package mcf

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// parallel2 builds two nodes with two parallel duplex links of capacities
// 10 and 30.
func parallel2(t *testing.T) (*graph.Graph, graph.NodeID, graph.NodeID) {
	t.Helper()
	g := graph.New("par")
	a := g.AddNode("a")
	b := g.AddNode("b")
	g.AddDuplex(a, b, 10, 1, 1) // links 0,1
	g.AddDuplex(a, b, 30, 1, 1) // links 2,3
	return g, a, b
}

func TestMinMLUParallelLinksProportional(t *testing.T) {
	// Optimal min-MLU splits 20 units as 5/15 across capacities 10/30:
	// MLU = 0.5.
	g, a, b := parallel2(t)
	comms := []routing.Commodity{{Src: a, Dst: b, Demand: 20}}
	res := MinMLU(g, comms, Options{Iterations: 400})
	if err := validRows(res, 1e-6); err != nil {
		t.Fatalf("invalid flow: %v", err)
	}
	if math.Abs(res.MLU-0.5) > 0.02 {
		t.Fatalf("MLU = %v, want ~0.5", res.MLU)
	}
}

func TestMinMLUExactParallelLinks(t *testing.T) {
	g, a, b := parallel2(t)
	comms := []routing.Commodity{{Src: a, Dst: b, Demand: 20}}
	res, err := MinMLUExact(g, comms, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.MLU-0.5) > 1e-6 {
		t.Fatalf("exact MLU = %v, want 0.5", res.MLU)
	}
	if err := validRows(res, 1e-6); err != nil {
		t.Fatalf("invalid flow: %v", err)
	}
}

func TestApproxTracksExactOnAbilene(t *testing.T) {
	g := topo.Abilene()
	tm := traffic.Gravity(g, 300, 1)
	// Keep the instance small for the exact LP: top 12 demands only.
	comms := routing.ODCommodities(g.NumNodes(), tm.At)
	if len(comms) > 12 {
		// Keep the largest demands.
		for i := 0; i < len(comms); i++ {
			for j := i + 1; j < len(comms); j++ {
				if comms[j].Demand > comms[i].Demand {
					comms[i], comms[j] = comms[j], comms[i]
				}
			}
		}
		comms = comms[:12]
	}
	exact, err := MinMLUExact(g, comms, Options{})
	if err != nil {
		t.Fatal(err)
	}
	approx := MinMLU(g, comms, Options{Iterations: 600})
	if approx.MLU < exact.MLU-1e-6 {
		t.Fatalf("approx (%v) beat exact (%v): exact solver is wrong", approx.MLU, exact.MLU)
	}
	if approx.MLU > exact.MLU*1.08 {
		t.Fatalf("approx MLU %v too far above exact %v", approx.MLU, exact.MLU)
	}
}

func TestMinMLUWithBackground(t *testing.T) {
	// Background load fills the big link; flow must prefer the small one.
	g, a, b := parallel2(t)
	bg := make([]float64, g.NumLinks())
	bg[2] = 30 // cap-30 link fully loaded
	comms := []routing.Commodity{{Src: a, Dst: b, Demand: 5}}
	res := MinMLU(g, comms, Options{Background: bg, Iterations: 300})
	// All 5 units on cap-10 link => MLU max(0.5, 1.0) = 1.0 from bg. The
	// solver cannot beat the background utilization.
	if res.MLU < 0.999 {
		t.Fatalf("MLU = %v cannot be below background 1.0", res.MLU)
	}
	// The new flow should mostly use link 0 (otherwise MLU > 1).
	if res.MLU > 1.01 {
		t.Fatalf("MLU = %v: solver overloaded the background-full link", res.MLU)
	}
}

func TestMinMLUDropsPartitioned(t *testing.T) {
	g, a, b := parallel2(t)
	fail := graph.NewLinkSet(0, 2) // both a->b directions down
	comms := []routing.Commodity{
		{Src: a, Dst: b, Demand: 5},
		{Src: b, Dst: a, Demand: 5},
	}
	res := MinMLU(g, comms, Options{Alive: fail.Alive(), Iterations: 50})
	if res.Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1", res.Dropped)
	}
	for e, v := range denseFlow(res).Frac[0] {
		if v != 0 {
			t.Fatalf("dropped commodity routed on link %d: %v", e, v)
		}
	}
	// b->a still routed.
	var sum float64
	for _, v := range denseFlow(res).Frac[1] {
		sum += v
	}
	if sum == 0 {
		t.Fatalf("surviving commodity not routed")
	}
}

func TestMinMLUExactDropsPartitioned(t *testing.T) {
	g, a, b := parallel2(t)
	fail := graph.NewLinkSet(0, 2)
	comms := []routing.Commodity{{Src: a, Dst: b, Demand: 5}}
	res, err := MinMLUExact(g, comms, Options{Alive: fail.Alive()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped != 1 || res.MLU != 0 {
		t.Fatalf("Dropped=%d MLU=%v", res.Dropped, res.MLU)
	}
}

func TestMinMLUAvoidsFailedLinks(t *testing.T) {
	g, a, b := parallel2(t)
	fail := graph.NewLinkSet(2) // big a->b link down
	comms := []routing.Commodity{{Src: a, Dst: b, Demand: 5}}
	res := MinMLU(g, comms, Options{Alive: fail.Alive(), Iterations: 100})
	if denseFlow(res).Frac[0][2] != 0 {
		t.Fatalf("flow on failed link: %v", denseFlow(res).Frac[0][2])
	}
	if math.Abs(res.MLU-0.5) > 1e-6 {
		t.Fatalf("MLU = %v, want 0.5 (5 over cap 10)", res.MLU)
	}
}

func TestMinMLUZeroDemand(t *testing.T) {
	g, a, b := parallel2(t)
	comms := []routing.Commodity{{Src: a, Dst: b, Demand: 0}}
	res := MinMLU(g, comms, Options{})
	if res.MLU != 0 {
		t.Fatalf("MLU = %v, want 0", res.MLU)
	}
}

func TestMinMLUDiamondAvoidsHotPath(t *testing.T) {
	// Two OD pairs share one path under shortest-path routing; min-MLU
	// must spread them.
	g := graph.New("dia")
	a := g.AddNode("a")
	b := g.AddNode("b")
	c := g.AddNode("c")
	d := g.AddNode("d")
	g.AddDuplex(a, b, 10, 1, 1)
	g.AddDuplex(b, d, 10, 1, 1)
	g.AddDuplex(a, c, 10, 1, 1)
	g.AddDuplex(c, d, 10, 1, 1)
	comms := []routing.Commodity{
		{Src: a, Dst: d, Demand: 12},
	}
	res := MinMLU(g, comms, Options{Iterations: 300})
	// Optimal: 6/6 split => MLU 0.6. Single path would be 1.2.
	if res.MLU > 0.65 {
		t.Fatalf("MLU = %v, want ~0.6", res.MLU)
	}
	if err := validRows(res, 1e-6); err != nil {
		t.Fatalf("invalid: %v", err)
	}
}

func TestMinMLUFullGravityOnSBC(t *testing.T) {
	g := topo.SBC()
	tm := traffic.Gravity(g, 0.3*topo.OC192*float64(g.NumNodes()), 3)
	comms := routing.ODCommodities(g.NumNodes(), tm.At)
	res := MinMLU(g, comms, Options{Iterations: 150})
	if err := validRows(res, 1e-5); err != nil {
		t.Fatalf("invalid flow: %v", err)
	}
	if res.MLU <= 0 || math.IsNaN(res.MLU) {
		t.Fatalf("MLU = %v", res.MLU)
	}
	// Sanity: loads derived from flow match the claimed MLU.
	loads := denseFlow(res).Loads()
	if got := routing.MLU(g, loads); math.Abs(got-res.MLU) > 1e-9 {
		t.Fatalf("claimed MLU %v but loads give %v", res.MLU, got)
	}
}

func BenchmarkMinMLUUUNet(b *testing.B) {
	g := topo.UUNet()
	tm := traffic.Gravity(g, 0.3*topo.OC192*float64(g.NumNodes()), 1)
	comms := routing.ODCommodities(g.NumNodes(), tm.At)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MinMLU(g, comms, Options{Iterations: 60})
	}
}
