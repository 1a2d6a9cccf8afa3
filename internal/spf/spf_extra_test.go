package spf

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// TestPathFromNextUnreachable: PathFromNext, and the graph-walking
// reference it is checked against, return nil from a node that cannot
// reach the destination and from the destination itself.
func TestPathFromNextUnreachable(t *testing.T) {
	g := graph.New("u")
	a := g.AddNode("a")
	b := g.AddNode("b")
	g.AddLink(a, b, 1, 1, 1)
	var s Scratch
	SPFTo(g.CSR(), a, WeightCost(g), nil, &s)
	for _, src := range []graph.NodeID{b, a} {
		if p := PathFromNext(g.CSR(), src, s.Next, nil); p != nil {
			t.Fatalf("PathFromNext from %d: %v, want nil", src, p)
		}
		if p := graphWalkPath(g, src, s.Next); p != nil {
			t.Fatalf("reference path from %d: %v, want nil", src, p)
		}
	}
}

func TestSPFToNextTreeConsistency(t *testing.T) {
	// Following next pointers from any node yields a path whose cost
	// equals the Dijkstra distance.
	g := topo.SBC()
	dst := graph.NodeID(3)
	var s Scratch
	SPFTo(g.CSR(), dst, WeightCost(g), nil, &s)
	for n := 0; n < g.NumNodes(); n++ {
		src := graph.NodeID(n)
		if src == dst {
			continue
		}
		p := PathFromNext(g.CSR(), src, s.Next, nil)
		if p == nil {
			t.Fatalf("node %d unreachable in connected graph", n)
		}
		var cost float64
		at := src
		for _, id := range p {
			if g.Link(id).Src != at {
				t.Fatalf("path discontinuous at %d", id)
			}
			cost += g.Link(id).Weight
			at = g.Link(id).Dst
		}
		if at != dst {
			t.Fatalf("path from %d ends at %d", src, at)
		}
		if math.Abs(cost-s.Dist[src]) > 1e-9 {
			t.Fatalf("path cost %v != dist %v", cost, s.Dist[src])
		}
	}
}

func TestECMPFlowDemandWeighting(t *testing.T) {
	// Loads scale linearly with demand.
	g := topo.Abilene()
	tm := traffic.Gravity(g, 100, 5)
	comms := routing.ODCommodities(g.NumNodes(), tm.At)
	f1 := ECMPFlow(g, comms, nil, WeightCost(g))
	l1 := f1.Loads()

	tm.Scale(3)
	comms3 := routing.ODCommodities(g.NumNodes(), tm.At)
	f3 := ECMPFlow(g, comms3, nil, WeightCost(g))
	l3 := f3.Loads()
	for e := range l1 {
		if math.Abs(l3[e]-3*l1[e]) > 1e-6*(1+l1[e]) {
			t.Fatalf("link %d: %v != 3x%v", e, l3[e], l1[e])
		}
	}
}

func TestOptimizeWeightsMultipleMatrices(t *testing.T) {
	// Optimizing for two matrices minimizes the worse of the two.
	g := topo.Abilene()
	d1 := traffic.Gravity(g, 300, 1)
	d2 := traffic.Gravity(g, 300, 2)
	worst := OptimizeWeights(g, []func(a, b graph.NodeID) float64{d1.At, d2.At},
		OptimizeOptions{Rounds: 10, Seed: 3})
	// Re-evaluate both by hand: the reported value is the max.
	check := 0.0
	for _, d := range []*traffic.Matrix{d1, d2} {
		comms := routing.ODCommodities(g.NumNodes(), d.At)
		f := ECMPFlow(g, comms, nil, WeightCost(g))
		if u := routing.MLU(g, f.Loads()); u > check {
			check = u
		}
	}
	if math.Abs(check-worst) > 1e-9 {
		t.Fatalf("reported %v, recomputed %v", worst, check)
	}
}

func TestECMPRespectsWeightChanges(t *testing.T) {
	g := topo.Abilene()
	src, dst := graph.NodeID(0), graph.NodeID(6)
	comms := []routing.Commodity{{Src: src, Dst: dst, Demand: 1}}
	before := ECMPFlow(g, comms, nil, WeightCost(g)).Frac[0]
	// Penalize the first link on the current path.
	var firstLink graph.LinkID = -1
	for e, v := range before {
		if v > 0 {
			firstLink = graph.LinkID(e)
			break
		}
	}
	if firstLink < 0 {
		t.Fatalf("no path found")
	}
	g.SetWeight(firstLink, 100)
	after := ECMPFlow(g, comms, nil, WeightCost(g)).Frac[0]
	if after[firstLink] >= before[firstLink] {
		t.Fatalf("penalized link still carries %v (was %v)", after[firstLink], before[firstLink])
	}
}
