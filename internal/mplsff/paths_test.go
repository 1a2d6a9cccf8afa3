package mplsff

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/routing"
)

func TestDetourPathsDecompose(t *testing.T) {
	plan, _ := buildAbilene(t)
	st := core.NewState(plan)
	e := graph.LinkID(4)
	if err := st.Fail(e); err != nil {
		t.Fatal(err)
	}
	paths, err := DetourPaths(st, e, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatalf("no detour paths")
	}
	g := plan.G
	link := g.Link(e)
	var sum float64
	for _, p := range paths {
		sum += p.Frac
		// Each path runs head -> tail and avoids the failed link.
		at := link.Src
		for _, id := range p.Links {
			if id == e {
				t.Fatalf("detour path uses the failed link")
			}
			if g.Link(id).Src != at {
				t.Fatalf("path not contiguous at link %d", id)
			}
			at = g.Link(id).Dst
		}
		if at != link.Dst {
			t.Fatalf("path ends at %d, want %d", at, link.Dst)
		}
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("path fractions sum to %v", sum)
	}
}

func TestDetourPathsErrors(t *testing.T) {
	plan, _ := buildAbilene(t)
	st := core.NewState(plan)
	if _, err := DetourPaths(st, 3, 8); err == nil {
		t.Fatalf("detour for healthy link accepted")
	}
}

func TestDetourPathsPartition(t *testing.T) {
	// Two parallel links; failing both leaves no detour.
	g := graph.New("par")
	a := g.AddNode("a")
	b := g.AddNode("b")
	g.AddDuplex(a, b, 10, 1, 1)
	base := routingFlowForTest(g, a, b)
	prot := [][]float64{{1, 0}, {0, 1}}
	// p_l(l) = 1: unprotectable by construction.
	plan := planFor(g, base, prot)
	st := core.NewState(plan)
	if err := st.Fail(0); err != nil {
		t.Fatal(err)
	}
	paths, err := DetourPaths(st, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if paths != nil {
		t.Fatalf("partitioned link produced detour paths: %v", paths)
	}
}

// routingFlowForTest builds a single-commodity base flow on link 0.
func routingFlowForTest(g *graph.Graph, a, b graph.NodeID) *routing.Flow {
	f := routing.NewFlow(g, []routing.Commodity{{Src: a, Dst: b, Demand: 1, Link: -1}})
	f.Frac[0][0] = 1
	return f
}
