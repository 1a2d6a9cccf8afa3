package mplsff

import (
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/routing"
)

func TestLabelForIsStable(t *testing.T) {
	if LabelFor(0) != ProtLabelBase {
		t.Fatalf("LabelFor(0) = %d", LabelFor(0))
	}
	if LabelFor(5) != ProtLabelBase+5 {
		t.Fatalf("LabelFor(5) = %d", LabelFor(5))
	}
}

func TestHashBucketCoverage(t *testing.T) {
	// Over many flows, every bucket of the 6-bit hash is hit: the salted
	// hash has no dead buckets that would starve an NHLFE.
	_, n := buildAbilene(t)
	r := n.Routers[0]
	seen := make(map[uint32]bool)
	for i := 0; i < 20000 && len(seen) < hashBuckets; i++ {
		f := FlowKey{SrcIP: uint32(i * 2654435761), DstIP: uint32(i*7919 + 3), SrcPort: uint16(i), DstPort: uint16(i >> 3)}
		seen[r.Hash(f)] = true
	}
	if len(seen) != hashBuckets {
		t.Fatalf("only %d/%d buckets hit", len(seen), hashBuckets)
	}
}

func TestStorageScalesWithTopology(t *testing.T) {
	// A bigger topology's network-wide tables are strictly larger.
	planA, netA := buildAbilene(t)
	sA := netA.MeasureStorage()
	if sA.TotalILM != planA.G.NumLinks() {
		t.Fatalf("ILM = %d", sA.TotalILM)
	}
	if sA.TotalNHLFEs < sA.TotalILM {
		t.Fatalf("fewer NHLFEs (%d) than labels (%d): detours must have at least one hop",
			sA.TotalNHLFEs, sA.TotalILM)
	}
}

func TestProgramColumnSkipsUnprotectable(t *testing.T) {
	// A link whose protection is pinned to itself (p_l(l)=1) installs no
	// forwarding entries beyond the tail pop.
	g := graph.New("pin")
	a := g.AddNode("a")
	b := g.AddNode("b")
	g.AddDuplex(a, b, 10, 1, 1)
	base := routingFlowForTest(g, a, b)
	prot := [][]float64{{1, 0}, {0, 1}}
	plan := planFor(g, base, prot)
	n := Build(plan)
	if s := seg(n.rows[n.ilm(0)], a); len(s) > 0 && s[0].out != popOut {
		t.Fatalf("unprotectable link has forwarding entries: %+v", s)
	}
}

// planFor assembles a minimal plan for data-plane tests, its rows the
// nonzeros of base and of prot.
func planFor(g *graph.Graph, base *routing.Flow, prot [][]float64) *core.Plan {
	return &core.Plan{G: g, Model: core.ArbitraryFailures{F: 1}, Comms: base.Comms, Base: sparse(base.Frac), Prot: sparse(prot)}
}

// sparse keeps each dense row's nonzeros.
func sparse(dense [][]float64) []routing.SparseRow {
	rows := make([]routing.SparseRow, len(dense))
	for k, fr := range dense {
		rows[k].SetDense(fr)
	}
	return rows
}

// routingFlowForTest builds a single-commodity base flow on link 0.
func routingFlowForTest(g *graph.Graph, a, b graph.NodeID) *routing.Flow {
	f := routing.NewFlow(g, []routing.Commodity{{Src: a, Dst: b, Demand: 1}})
	f.Frac[0][0] = 1
	return f
}
