package protect

import (
	"math"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// square: a=0, b=1, c=2, d=3; duplex links ab(0,1) ac(2,3) bd(4,5) cd(6,7).
func square(t testing.TB) (*graph.Graph, [4]graph.NodeID) {
	t.Helper()
	g := graph.New("square")
	a := g.AddNode("a")
	b := g.AddNode("b")
	c := g.AddNode("c")
	d := g.AddNode("d")
	g.AddDuplex(a, b, 10, 1, 1)
	g.AddDuplex(a, c, 10, 1, 1)
	g.AddDuplex(b, d, 10, 1, 1)
	g.AddDuplex(c, d, 10, 1, 1)
	return g, [4]graph.NodeID{a, b, c, d}
}

func singleOD(n int, a, b graph.NodeID, vol float64) *traffic.Matrix {
	m := traffic.NewMatrix(n)
	m.Set(a, b, vol)
	return m
}

// delivered computes the net inflow at dst for a single-OD load vector.
func delivered(g *graph.Graph, loads []float64, dst graph.NodeID) float64 {
	var in, out float64
	for _, id := range g.In(dst) {
		in += loads[id]
	}
	for _, id := range g.Out(dst) {
		out += loads[id]
	}
	return in - out
}

// conservationCheck verifies that the scheme delivers a single-OD matrix's
// whole demand to dst, which the failures leave reachable: failed links
// carry nothing, no load is negative, and the net inflow at dst is the
// demand.
func conservationCheck(t *testing.T, g *graph.Graph, s Scheme, failed graph.LinkSet, d *traffic.Matrix, dst graph.NodeID, vol float64) {
	t.Helper()
	loads := s.Loads(failed, d)
	for _, e := range failed.IDs() {
		if loads[e] != 0 {
			t.Fatalf("%s: load %v on failed link %d", s.Name(), loads[e], e)
		}
	}
	for e, l := range loads {
		if l < -1e-9 {
			t.Fatalf("%s: negative load %v on link %d", s.Name(), l, e)
		}
	}
	if got := delivered(g, loads, dst); math.Abs(got-vol) > 1e-6*vol {
		t.Fatalf("%s: delivered %v, want %v", s.Name(), got, vol)
	}
}

// cutOffCheck verifies that a single-OD matrix whose source the failures
// cut off from its destination loads no link.
func cutOffCheck(t *testing.T, s Scheme, failed graph.LinkSet, d *traffic.Matrix) {
	t.Helper()
	for e, l := range s.Loads(failed, d) {
		if l != 0 {
			t.Fatalf("%s: cut-off demand puts %v on link %d", s.Name(), l, e)
		}
	}
}

func TestOSPFReconReroutes(t *testing.T) {
	g, n := square(t)
	d := singleOD(4, n[0], n[3], 8)
	s := &OSPFRecon{G: g}

	// No failure: ECMP splits 4/4 across both two-hop paths.
	loads := s.Loads(graph.LinkSet{}, d)
	if math.Abs(loads[0]-4) > 1e-9 || math.Abs(loads[2]-4) > 1e-9 {
		t.Fatalf("no-failure loads = %v", loads)
	}
	conservationCheck(t, g, s, graph.LinkSet{}, d, n[3], 8)
	// Fail a->b: all 8 via a->c->d.
	loads = s.Loads(graph.NewLinkSet(0), d)
	if math.Abs(loads[2]-8) > 1e-9 || math.Abs(loads[6]-8) > 1e-9 {
		t.Fatalf("failover loads = %v", loads)
	}
	conservationCheck(t, g, s, graph.NewLinkSet(0), d, n[3], 8)
	// Partition a: nothing leaves it.
	cutOffCheck(t, s, graph.NewLinkSet(0, 2), d)
}

func TestCSPFDetourTunnels(t *testing.T) {
	g, n := square(t)
	d := singleOD(4, n[0], n[3], 8)
	s := &CSPFDetour{G: g}

	// Fail a->b (link 0). Base ECMP put 4 on a->b; the bypass from a to b
	// is a->c->d->b (links 2, 6, 5). The 4 units keep their base path
	// continuation b->d afterwards.
	loads := s.Loads(graph.NewLinkSet(0), d)
	if math.Abs(loads[2]-8) > 1e-9 { // 4 base + 4 detoured
		t.Fatalf("a->c load = %v, want 8", loads[2])
	}
	if math.Abs(loads[5]-4) > 1e-9 { // d->b carries the bypass
		t.Fatalf("d->b load = %v, want 4", loads[5])
	}
	if math.Abs(loads[4]-4) > 1e-9 { // b->d still carries base continuation
		t.Fatalf("b->d load = %v, want 4", loads[4])
	}
	conservationCheck(t, g, s, graph.NewLinkSet(0), d, n[3], 8)
}

func TestCSPFDetourUnprotectable(t *testing.T) {
	// Two parallel links only: failing both loses the bypass.
	g := graph.New("par")
	a := g.AddNode("a")
	b := g.AddNode("b")
	g.AddDuplex(a, b, 10, 1, 1)
	d := singleOD(2, a, b, 6)
	cutOffCheck(t, &CSPFDetour{G: g}, graph.NewLinkSet(0), d)
}

// triangle builds a=0, b=1, d=2 with duplex links ab(0,1), ad(2,3) and,
// when bd > 0, bd(4,5), at the given weights.
func triangle(ab, ad, bd float64) (*graph.Graph, [3]graph.NodeID) {
	g := graph.New("triangle")
	a := g.AddNode("a")
	b := g.AddNode("b")
	d := g.AddNode("d")
	g.AddDuplex(a, b, 100, 1, ab)
	g.AddDuplex(a, d, 100, 1, ad)
	if bd > 0 {
		g.AddDuplex(b, d, 100, 1, bd)
	}
	return g, [3]graph.NodeID{a, b, d}
}

// TestNearTieSchemes: a-b weighs 1e-12, inside the equal-cost tolerance, so
// a and b each look like an equal-cost hop of the other. With the a-d pair
// down, CSPFDetour's bypass from a to d is the finite a->b->d (its
// shortest-path walk used to bounce between a and b forever), and every
// shortest-path scheme delivers the whole a->d demand. Where a-d weighs 1e6
// and b has no b-d link, 1e6 + 1e-12 == 1e6 puts b on a plateau: its one
// hop is its canonical next link, at its own distance, and the schemes
// must still deliver a b->d demand.
func TestNearTieSchemes(t *testing.T) {
	watchdog := time.AfterFunc(20*time.Second, func() { panic("schemes did not finish within 20 s") })
	defer watchdog.Stop()
	g, n := triangle(1e-12, 1, 1)
	failed := graph.NewLinkSet(2, 3)
	if loads := (&CSPFDetour{G: g}).Loads(failed, singleOD(3, n[0], n[2], 8)); loads[0] != 8 || loads[4] != 8 {
		t.Fatalf("CSPF bypass: loads %v; want 8 on a->b and b->d", loads)
	}
	plateau, pn := triangle(1e-12, 1e6, 0)
	for _, tc := range []struct {
		g        *graph.Graph
		src, dst graph.NodeID
		failed   []graph.LinkSet
	}{
		{g, n[0], n[2], []graph.LinkSet{{}, failed}},
		{plateau, pn[1], pn[2], []graph.LinkSet{{}}},
	} {
		d := singleOD(3, tc.src, tc.dst, 8)
		for _, s := range []Scheme{&CSPFDetour{G: tc.g}, &OSPFRecon{G: tc.g}, &FCP{G: tc.g}} {
			for _, fail := range tc.failed {
				conservationCheck(t, tc.g, s, fail, d, tc.dst, 8)
			}
		}
	}
}

func TestFCPPathDragging(t *testing.T) {
	// FCP discovers the failure only when reaching it: traffic for a->d
	// goes a->b (learning nothing), then at b discovers b->d failed and
	// detours from b. OSPF recon instead routes a->c->d directly.
	g, n := square(t)
	g.SetWeight(2, 5) // make a->b->d the unique shortest path
	g.SetWeight(3, 5)
	d := singleOD(4, n[0], n[3], 8)

	fcp := &FCP{G: g}
	failed := graph.NewLinkSet(4) // b->d down
	loads := fcp.Loads(failed, d)
	// Packets reach b first (a->b carries all 8), then detour b->a->c->d
	// or via the learned-snapshot shortest path from b.
	if loads[0] != 8 {
		t.Fatalf("a->b load = %v, want 8 (FCP drags to the failure)", loads[0])
	}
	conservationCheck(t, g, fcp, failed, d, n[3], 8)

	// OSPF recon avoids a->b entirely.
	recon := &OSPFRecon{G: g}
	rLoads := recon.Loads(failed, d)
	if rLoads[0] != 0 {
		t.Fatalf("recon put %v on a->b", rLoads[0])
	}
}

func TestFCPNoFailureEqualsOSPF(t *testing.T) {
	g, n := square(t)
	d := singleOD(4, n[0], n[3], 8)
	fcp := &FCP{G: g}
	recon := &OSPFRecon{G: g}
	fl := fcp.Loads(graph.LinkSet{}, d)
	rl := recon.Loads(graph.LinkSet{}, d)
	for e := range fl {
		if math.Abs(fl[e]-rl[e]) > 1e-9 {
			t.Fatalf("link %d: FCP %v vs OSPF %v", e, fl[e], rl[e])
		}
	}
}

func TestFCPMultiFailureConservation(t *testing.T) {
	g := topo.Abilene()
	a, _ := g.NodeByName("Seattle")
	b, _ := g.NodeByName("Atlanta")
	d := singleOD(g.NumNodes(), a, b, 50)
	fcp := &FCP{G: g}
	failed := graph.NewLinkSet(0, 5, 9)
	conservationCheck(t, g, fcp, failed, d, b, 50)
}

func TestPathSplicingNoFailure(t *testing.T) {
	g, n := square(t)
	d := singleOD(4, n[0], n[3], 8)
	s := &PathSplicing{G: g, Seed: 1}
	loads := s.Loads(graph.LinkSet{}, d)
	// Slice 0 is the base shortest-path tree: a single two-hop path
	// carries all traffic.
	total := 0.0
	for _, l := range loads {
		total += l
	}
	if math.Abs(total-16) > 1e-9 { // 8 units × 2 hops
		t.Fatalf("total load = %v, want 16", total)
	}
	conservationCheck(t, g, s, graph.LinkSet{}, d, n[3], 8)
}

func TestPathSplicingDetours(t *testing.T) {
	g, n := square(t)
	d := singleOD(4, n[0], n[3], 8)
	s := &PathSplicing{G: g, Seed: 1}
	// Fail both directions of the slice-0 next hop out of a; with 10
	// slices over a 2-exit node, some slice detours via the other exit.
	loads0 := s.Loads(graph.LinkSet{}, d)
	var firstHop graph.LinkID = 0
	if loads0[2] > loads0[0] {
		firstHop = 2
	}
	failed := graph.NewLinkSet(firstHop, g.Link(firstHop).Reverse)
	conservationCheck(t, g, s, failed, d, n[3], 8)
}

func TestOptDetourBeatsCSPF(t *testing.T) {
	// On Abilene with a gravity matrix, the optimal detour's bottleneck
	// can never exceed the single-path CSPF bypass bottleneck.
	g := topo.Abilene()
	d := traffic.Gravity(g, 300, 2)
	cspf := &CSPFDetour{G: g}
	opt := &OptDetour{G: g, Iterations: 120}
	for _, e := range []graph.LinkID{0, 7, 13} {
		failed := graph.NewLinkSet(e)
		cl := cspf.Loads(failed, d)
		ol := opt.Loads(failed, d)
		cb := Bottleneck(g, failed, cl)
		ob := Bottleneck(g, failed, ol)
		if ob > cb*1.02+1e-9 {
			t.Fatalf("link %d: opt bottleneck %v worse than CSPF %v", e, ob, cb)
		}
	}
}

func TestOptimalLowerBound(t *testing.T) {
	// Optimal rerouting is a lower bound for every scheme (small solver
	// slack allowed).
	g := topo.Abilene()
	d := traffic.Gravity(g, 300, 2)
	failed := graph.NewLinkSet(3)
	schemes := []Scheme{
		&OSPFRecon{G: g},
		&CSPFDetour{G: g},
		&FCP{G: g},
		&PathSplicing{G: g, Seed: 1},
		&OptDetour{G: g, Iterations: 150},
	}
	optimal := &Optimal{G: g, Iterations: 300}
	ol := optimal.Loads(failed, d)
	ob := Bottleneck(g, failed, ol)
	for _, s := range schemes {
		l := s.Loads(failed, d)
		b := Bottleneck(g, failed, l)
		if b < ob*0.98-1e-9 {
			t.Fatalf("%s bottleneck %v below optimal %v", s.Name(), b, ob)
		}
	}
}

func TestBottleneckIgnoresFailed(t *testing.T) {
	g, _ := square(t)
	loads := make([]float64, g.NumLinks())
	loads[0] = 100 // would be utilization 10
	failed := graph.NewLinkSet(0)
	if b := Bottleneck(g, failed, loads); b != 0 {
		t.Fatalf("Bottleneck = %v, want 0", b)
	}
}

func TestSchemeNames(t *testing.T) {
	g, _ := square(t)
	for _, tc := range []struct {
		s    Scheme
		want string
	}{
		{&OSPFRecon{G: g}, "OSPF+recon"},
		{&CSPFDetour{G: g}, "OSPF+CSPF-detour"},
		{&FCP{G: g}, "FCP"},
		{&PathSplicing{G: g}, "PathSplice"},
		{&OptDetour{G: g}, "OSPF+opt"},
		{&Optimal{G: g}, "optimal"},
	} {
		if tc.s.Name() != tc.want {
			t.Fatalf("Name = %q, want %q", tc.s.Name(), tc.want)
		}
	}
}
