package eval

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/protect"
	"repro/internal/topo"
	"repro/internal/traffic"
)

func TestFilterConnected(t *testing.T) {
	g := topo.Abilene()
	sea, _ := g.NodeByName("Seattle")
	// Seattle has exactly two duplex links; cutting both partitions it.
	out := g.Out(sea)
	var cut graph.LinkSet
	for _, id := range out {
		cut.Add(id)
		cut.Add(g.Link(id).Reverse)
	}
	keep := graph.NewLinkSet(0, 1)
	got := FilterConnected(g, []graph.LinkSet{cut, keep})
	if len(got) != 1 || !got[0].Equal(keep) {
		t.Fatalf("FilterConnected = %v", got)
	}
	if got := FilterConnected(g, nil); got != nil {
		t.Fatalf("nil scenarios -> %v", got)
	}
}

func TestEngineParallelMatchesSerial(t *testing.T) {
	g := topo.Abilene()
	d := traffic.Gravity(g, 250, 3)
	schemes := []protect.Scheme{
		&protect.OSPFRecon{G: g},
		&protect.CSPFDetour{G: g},
		&protect.FCP{G: g},
	}
	scenarios := SingleLinks(g)[:10]
	serial := (&Engine{G: g, Schemes: schemes, OptimalIterations: 40, Workers: 1}).Evaluate(d, scenarios)
	parallel := (&Engine{G: g, Schemes: schemes, OptimalIterations: 40, Workers: 4}).Evaluate(d, scenarios)
	for i := range serial {
		for name, b := range serial[i].Bottleneck {
			// Deterministic schemes must agree exactly regardless of
			// worker count (the optimal MCF is also deterministic).
			if parallel[i].Bottleneck[name] != b {
				t.Fatalf("scenario %d scheme %s: serial %v vs parallel %v",
					i, name, b, parallel[i].Bottleneck[name])
			}
		}
		if serial[i].Optimal != parallel[i].Optimal {
			t.Fatalf("scenario %d optimal differs: %v vs %v",
				i, serial[i].Optimal, parallel[i].Optimal)
		}
	}
}

// TestEngineLostAccounting: cutting Seattle off loses its demand. No link
// at Seattle carries load, and every load equals, bit for bit, the load of
// the same cut with Seattle's row and column of the matrix zeroed.
func TestEngineLostAccounting(t *testing.T) {
	g := topo.Abilene()
	d := traffic.Gravity(g, 250, 3)
	sea, _ := g.NodeByName("Seattle")
	var cut graph.LinkSet
	for _, id := range g.Out(sea) {
		cut.Add(id)
		cut.Add(g.Link(id).Reverse)
	}
	withoutSea := d.Clone()
	for n := graph.NodeID(0); int(n) < g.NumNodes(); n++ {
		if n != sea {
			withoutSea.Set(sea, n, 0)
			withoutSea.Set(n, sea, 0)
		}
	}
	got := (&protect.OSPFRecon{G: g}).Loads(cut, d)
	want := (&protect.OSPFRecon{G: g}).Loads(cut, withoutSea)
	for e := range got {
		if l := g.Link(graph.LinkID(e)); (l.Src == sea || l.Dst == sea) && got[e] != 0 {
			t.Fatalf("link %d at Seattle carries %v", e, got[e])
		}
		if math.Float64bits(got[e]) != math.Float64bits(want[e]) {
			t.Fatalf("link %d: %v under the cut, %v without Seattle's demand", e, got[e], want[e])
		}
	}
}
