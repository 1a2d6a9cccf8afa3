// Package topo provides the network topologies used throughout the
// evaluation: the Abilene research backbone (router level), PoP-level
// meshes matched to the Rocketfuel-inferred Level-3, SBC and UUNet maps in
// the paper's Table 1, a GT-ITM-style generated backbone, and a synthetic
// tier-1 "US-ISP-like" network with SRLG and MLG structure standing in for
// the paper's proprietary US-ISP data.
//
// All topologies are deterministic: generators use fixed seeds, so every
// run of the test suite and benchmarks sees identical networks.
package topo

import "repro/internal/graph"

// OC192 is the capacity (in Mbps) used for Rocketfuel topology links, as in
// the paper.
const OC192 = 9953.0

// OC48 is the capacity (in Mbps) of the generated topologies' stub links
// (transitStub).
const OC48 = 2488.0

// abileneLink describes one bidirectional Abilene link.
type abileneLink struct {
	a, b  string
	delay float64 // one-way propagation delay, ms
}

var abileneLinks = []abileneLink{
	{"Seattle", "Sunnyvale", 7},
	{"Seattle", "Denver", 10},
	{"Sunnyvale", "LosAngeles", 3},
	{"Sunnyvale", "Denver", 9},
	{"LosAngeles", "Houston", 12},
	{"Denver", "KansasCity", 5},
	{"KansasCity", "Houston", 6},
	{"KansasCity", "Indianapolis", 4},
	{"Houston", "Atlanta", 7},
	{"Chicago", "Indianapolis", 2},
	{"Chicago", "NewYork", 7},
	{"Indianapolis", "Atlanta", 4},
	{"Atlanta", "Washington", 5},
	{"Washington", "NewYork", 2},
}

// Abilene returns the 2006 Abilene backbone: 11 routers, 28 directed links.
// Capacities are the 100 Mbps scaled-down values used in the paper's Emulab
// experiments.
func Abilene() *graph.Graph {
	return AbileneWithCapacity(100)
}

// AbileneWithCapacity returns the Abilene backbone with every link set to
// the given capacity (Mbps).
func AbileneWithCapacity(capacity float64) *graph.Graph {
	g := graph.New("Abilene")
	for _, l := range abileneLinks {
		a := g.AddNode(l.a)
		b := g.AddNode(l.b)
		g.AddDuplex(a, b, capacity, l.delay, 1)
	}
	return g
}

// Level3 returns a PoP-level mesh matched to the paper's Table 1 row for
// Level-3: 17 nodes, 72 directed links, OC192 capacities.
func Level3() *graph.Graph {
	return Mesh("Level3", 17, 72, 3, OC192)
}

// SBC returns a PoP-level mesh matched to the paper's Table 1 row for SBC:
// 19 nodes, 70 directed links, OC192 capacities.
func SBC() *graph.Graph {
	return Mesh("SBC", 19, 70, 5, OC192)
}

// UUNet returns a PoP-level mesh matched to the paper's Table 1 row for
// UUNet (2003): 47 nodes, 336 directed links, OC192 capacities.
func UUNet() *graph.Graph {
	return Mesh("UUNet", 47, 336, 7, OC192)
}

// Generated returns a GT-ITM-style two-level (transit-stub) backbone
// matched to the paper's Table 1 row: 100 routers, 460 directed links.
func Generated() *graph.Graph {
	return transitStub("Generated", 10, 9, 460, 11)
}

// Generated1K returns a 1000-router, 5000-directed-link transit-stub
// backbone — the scale target for the incremental-SPF and sharded-eval
// paths, one order of magnitude past the paper's Table 1. It is a
// planner/eval stress preset, deliberately absent from the Table 1
// catalog. Pair it with traffic.GravityTopK: a dense gravity matrix at
// this size means ~10^6 commodities, far past what the protection-matrix
// formulation is meant to carry.
func Generated1K() *graph.Graph {
	return transitStub("Generated1K", 40, 24, 5000, 17)
}

// USISP returns the synthetic tier-1 PoP network standing in for the
// paper's proprietary US-ISP topology: 20 PoPs, 102 directed links at
// OC192 with 2×OC192 hub-to-hub bundles, SRLGs modeling shared fiber
// conduits and a maintenance-link-group (MLG) event list.
func USISP() *graph.Graph {
	g := Mesh("US-ISP", 20, 102, 13, OC192)
	// Mild capacity heterogeneity: hub-to-hub links run at 2x OC192 (two
	// bundled wavelengths), everything else at OC192. Stronger skew (a
	// lone OC768 amid OC48s) would make single fiber cuts unprotectable
	// by ANY scheme — real backbones parallel their big trunks precisely
	// to avoid that.
	links := g.Links()
	for i := 0; i < len(links); i += 2 {
		l := links[i]
		if g.Degree(l.Src) >= 6 && g.Degree(l.Dst) >= 6 {
			setDuplexCapacity(g, l.ID, 2*OC192)
		}
	}
	addUSISPGroups(g)
	return g
}

func setDuplexCapacity(g *graph.Graph, id graph.LinkID, c float64) {
	l := g.Link(id)
	gSet(g, id, c)
	if l.Reverse >= 0 {
		gSet(g, l.Reverse, c)
	}
}

// gSet rebuilds a link's capacity in place. Graph does not expose a
// capacity setter publicly elsewhere, so topo keeps this local helper using
// SetCapacity.
func gSet(g *graph.Graph, id graph.LinkID, c float64) {
	g.SetCapacity(id, c)
}

// addUSISPGroups attaches SRLGs (pairs of duplex links sharing a conduit at
// a common PoP) and MLGs (maintenance events) to the US-ISP-like topology.
// Groups are placed only where the PoP retains enough connectivity for the
// event to be survivable — operators engineer conduits and maintenance
// windows exactly so that single events do not strand a PoP — keeping the
// workload in the regime where congestion-free protection exists, as in
// the paper's evaluation.
func addUSISPGroups(g *graph.Graph) {
	// Conduit SRLGs: at well-connected PoPs (degree >= 6), two outgoing
	// duplex links share a conduit, so all four directed links fail
	// together while the PoP keeps at least four other exits.
	for n := 0; n < g.NumNodes(); n++ {
		node := graph.NodeID(n)
		if g.Degree(node) < 6 || n%2 != 0 {
			continue
		}
		out := g.Out(node)
		a, b := g.Link(out[0]), g.Link(out[1])
		if a.Reverse < 0 || b.Reverse < 0 {
			continue
		}
		g.AddSRLG(a.ID, a.Reverse, b.ID, b.Reverse)
	}
	// Every duplex link is also its own SRLG (a plain fiber cut),
	// mirroring how operators model isolated failures.
	seen := make(map[graph.LinkID]bool)
	for _, l := range g.Links() {
		if seen[l.ID] || l.Reverse < 0 {
			continue
		}
		seen[l.ID] = true
		seen[l.Reverse] = true
		g.AddSRLG(l.ID, l.Reverse)
	}
	// MLGs: a maintenance calendar of single-duplex-link events at PoPs
	// with spare connectivity (degree >= 4), taking the PoP's
	// last-listed link so MLGs and conduit SRLGs rarely overlap.
	for n := 1; n < g.NumNodes(); n += 2 {
		node := graph.NodeID(n)
		if g.Degree(node) < 4 {
			continue
		}
		out := g.Out(node)
		a := g.Link(out[len(out)-1])
		if a.Reverse < 0 {
			continue
		}
		g.AddMLG(a.ID, a.Reverse)
	}
}

// All returns the six evaluation topologies in the order of the paper's
// Table 1.
func All() []*graph.Graph {
	return []*graph.Graph{
		Abilene(), Level3(), SBC(), UUNet(), Generated(), USISP(),
	}
}
