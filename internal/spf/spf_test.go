package spf

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/topo"
	"repro/internal/traffic"
)

func square(t *testing.T) (*graph.Graph, [4]graph.NodeID) {
	t.Helper()
	// a - b
	// |   |
	// c - d   (duplex, all weight 1 except c-d weight 2)
	g := graph.New("square")
	a := g.AddNode("a")
	b := g.AddNode("b")
	c := g.AddNode("c")
	d := g.AddNode("d")
	g.AddDuplex(a, b, 10, 1, 1) // 0,1
	g.AddDuplex(a, c, 10, 1, 1) // 2,3
	g.AddDuplex(b, d, 10, 1, 1) // 4,5
	g.AddDuplex(c, d, 10, 1, 2) // 6,7
	return g, [4]graph.NodeID{a, b, c, d}
}

func TestDijkstraBasic(t *testing.T) {
	g, n := square(t)
	// The square is symmetric, so distances to a are distances from a.
	var s Scratch
	SPFTo(g.CSR(), n[0], WeightCost(g), nil, &s)
	want := []float64{0, 1, 1, 2}
	for i, w := range want {
		if s.Dist[i] != w {
			t.Fatalf("dist[%d] = %v, want %v", i, s.Dist[i], w)
		}
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	g, n := square(t)
	// Cut all links out of a.
	fail := graph.NewLinkSet(0, 2)
	var s Scratch
	SPFTo(g.CSR(), n[3], WeightCost(g), &fail, &s)
	if !math.IsInf(s.Dist[n[0]], 1) {
		t.Fatalf("d should be unreachable from a, dist = %v", s.Dist[n[0]])
	}
}

// TestSPFToMatchesForward: the reverse kernel's distance from src to every
// destination equals a forward Dijkstra's from src.
func TestSPFToMatchesForward(t *testing.T) {
	g := topo.Abilene()
	src := graph.NodeID(0)
	fwd := refForwardDist(g, src, WeightCost(g), nil)
	var s Scratch
	for dst := 1; dst < g.NumNodes(); dst++ {
		SPFTo(g.CSR(), graph.NodeID(dst), WeightCost(g), nil, &s)
		if math.Abs(fwd[dst]-s.Dist[src]) > 1e-9 {
			t.Fatalf("dst %d: forward %v != backward %v", dst, fwd[dst], s.Dist[src])
		}
	}
}

func TestShortestPathAvoidsFailed(t *testing.T) {
	g, n := square(t)
	var s Scratch
	p := ShortestPath(g, n[0], n[3], nil, WeightCost(g), &s)
	// Unique shortest path a->b->d (a->c->d has weight 3).
	if len(p) != 2 || g.Link(p[0]).Dst != n[1] {
		t.Fatalf("path = %v", p)
	}
	fail := graph.NewLinkSet(0) // a->b down
	p = ShortestPath(g, n[0], n[3], &fail, WeightCost(g), &s)
	if len(p) != 2 || g.Link(p[0]).Dst != n[2] {
		t.Fatalf("detour path = %v", p)
	}
	// Partition: no path.
	fail = graph.NewLinkSet(0, 2)
	if p = ShortestPath(g, n[0], n[3], &fail, WeightCost(g), &s); p != nil {
		t.Fatalf("path through failed links: %v", p)
	}
}

func TestECMPFlowEvenSplit(t *testing.T) {
	// With equal weights the square has two equal-cost paths a->d; ECMP
	// must split 50/50.
	g, n := square(t)
	g.SetWeight(6, 1) // make c->d weight 1 too
	comms := []routing.Commodity{{Src: n[0], Dst: n[3], Demand: 4}}
	f := ECMPFlow(g, comms, nil, WeightCost(g))
	if err := comms[0].Validate(g, f.Frac[0], 1e-9); err != nil {
		t.Fatalf("ECMP flow invalid: %v", err)
	}
	if math.Abs(f.Frac[0][0]-0.5) > 1e-9 || math.Abs(f.Frac[0][2]-0.5) > 1e-9 {
		t.Fatalf("split = %v / %v, want 0.5/0.5", f.Frac[0][0], f.Frac[0][2])
	}
	loads := f.Loads()
	if math.Abs(loads[0]-2) > 1e-9 {
		t.Fatalf("load on a->b = %v, want 2", loads[0])
	}
}

func TestECMPFlowUnreachableZeroRow(t *testing.T) {
	g, n := square(t)
	fail := graph.NewLinkSet(0, 2)
	comms := []routing.Commodity{{Src: n[0], Dst: n[3], Demand: 4}}
	f := ECMPFlow(g, comms, &fail, WeightCost(g))
	for e, v := range f.Frac[0] {
		if v != 0 {
			t.Fatalf("unreachable commodity has frac[%d] = %v", e, v)
		}
	}
}

// flowLost is the lost demand of a flow as its rows tell it: the demand of
// every commodity whose row is all zero.
func flowLost(f *routing.Flow) float64 {
	var lost float64
	for k, c := range f.Comms {
		zero := true
		for _, v := range f.Frac[k] {
			zero = zero && v == 0
		}
		if zero {
			lost += c.Demand
		}
	}
	return lost
}

// TestECMPLoadsMatchesFlowLoads holds ECMPLoads to the flow it stands in
// for: the loads, bit for bit, of ECMPFlow(...).Loads(), with every link
// up, with one duplex pair down and with a node cut off (so commodities
// are lost), and with a zero-demand commodity among the rest. One scratch serves every call on a topology,
// so state leaking from one call into the next fails here too.
func TestECMPLoadsMatchesFlowLoads(t *testing.T) {
	for _, g := range topo.All() {
		comms := routing.ODCommodities(g.NumNodes(), traffic.Gravity(g, 1000, 3).At)
		comms[len(comms)/2].Demand = 0
		var pair, cut graph.LinkSet
		pair.Add(0)
		if r := g.Link(0).Reverse; r >= 0 {
			pair.Add(r)
		}
		for _, id := range g.Out(1) {
			cut.Add(id)
		}
		for _, id := range g.In(1) {
			cut.Add(id)
		}
		var sc ECMPScratch
		for _, down := range []*graph.LinkSet{nil, &pair, &cut, nil} {
			f := ECMPFlow(g, comms, down, WeightCost(g))
			want := f.Loads()
			got := make([]float64, g.NumLinks())
			ECMPLoads(g, comms, down, WeightCost(g), &sc, got)
			for e := range want {
				if math.Float64bits(got[e]) != math.Float64bits(want[e]) {
					t.Fatalf("%s: link %d carries %v, the flow %v", g.Name, e, got[e], want[e])
				}
			}
			if down == &cut && flowLost(f) == 0 {
				t.Fatalf("%s: cutting node 1 off lost nothing: the case tests nothing", g.Name)
			}
		}
	}
}

func TestECMPFlowValidOnAllTopologies(t *testing.T) {
	for _, g := range topo.All() {
		tm := traffic.Gravity(g, 1000, 1)
		comms := routing.ODCommodities(g.NumNodes(), tm.At)
		f := ECMPFlow(g, comms, nil, WeightCost(g))
		for k, c := range comms {
			if err := c.Validate(g, f.Frac[k], 1e-6); err != nil {
				t.Fatalf("%s: invalid ECMP flow, commodity %d: %v", g.Name, k, err)
			}
		}
	}
}

func TestInvCapWeights(t *testing.T) {
	g := graph.New("g")
	a := g.AddNode("a")
	b := g.AddNode("b")
	g.AddDuplex(a, b, 100, 1, 1)
	c := g.AddNode("c")
	g.AddDuplex(b, c, 400, 1, 1)
	InvCapWeights(g, 400)
	if g.Link(0).Weight != 4 || g.Link(2).Weight != 1 {
		t.Fatalf("weights = %v %v", g.Link(0).Weight, g.Link(2).Weight)
	}
	UnitWeights(g)
	if g.Link(0).Weight != 1 {
		t.Fatalf("UnitWeights failed")
	}
}

func TestOptimizeWeightsImproves(t *testing.T) {
	// A topology where hop-count routing overloads one path but capacity
	// is plentiful elsewhere: weight optimization must shift load.
	g := topo.SBC()
	tm := traffic.Gravity(g, 0.4*topo.OC192*float64(g.NumNodes())/4, 2)
	demand := tm.At

	UnitWeights(g)
	comms := routing.ODCommodities(g.NumNodes(), demand)
	before := routing.MLU(g, ECMPFlow(g, comms, nil, WeightCost(g)).Loads())

	after := OptimizeWeights(g, []func(a, b graph.NodeID) float64{demand}, OptimizeOptions{Rounds: 30, Seed: 1})
	if after > before+1e-9 {
		t.Fatalf("optimization made MLU worse: before %v after %v", before, after)
	}
	// Reported MLU must match re-evaluation with the final weights.
	reEval := routing.MLU(g, ECMPFlow(g, comms, nil, WeightCost(g)).Loads())
	if math.Abs(reEval-after) > 1e-9 {
		t.Fatalf("reported %v but re-evaluated %v", after, reEval)
	}
}

func BenchmarkSPFToUUNet(b *testing.B) {
	g := topo.UUNet()
	var s Scratch
	for i := 0; i < b.N; i++ {
		SPFTo(g.CSR(), graph.NodeID(i%g.NumNodes()), WeightCost(g), nil, &s)
	}
}

func BenchmarkECMPFlowUUNet(b *testing.B) {
	g := topo.UUNet()
	tm := traffic.Gravity(g, 1000, 1)
	comms := routing.ODCommodities(g.NumNodes(), tm.At)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ECMPFlow(g, comms, nil, WeightCost(g))
	}
}
