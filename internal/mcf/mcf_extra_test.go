package mcf

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/topo"
	"repro/internal/traffic"
)

func TestExactWithBackground(t *testing.T) {
	g, a, b := parallel2(t)
	bg := make([]float64, g.NumLinks())
	bg[2] = 15 // half of the 30-capacity link
	comms := []routing.Commodity{{Src: a, Dst: b, Demand: 10}}
	res, err := MinMLUExact(g, comms, Options{Background: bg})
	if err != nil {
		t.Fatal(err)
	}
	// Optimal: equalize utilization: x on cap-10 link, 10-x plus 15 on
	// cap-30: x/10 = (25-x)/30 → x = 6.25, MLU = 0.625.
	if math.Abs(res.MLU-0.625) > 1e-6 {
		t.Fatalf("MLU = %v, want 0.625", res.MLU)
	}
}

func TestApproxWithBackgroundTracksExact(t *testing.T) {
	g, a, b := parallel2(t)
	bg := make([]float64, g.NumLinks())
	bg[2] = 15
	comms := []routing.Commodity{{Src: a, Dst: b, Demand: 10}}
	res := MinMLU(g, comms, Options{Background: bg, Iterations: 400})
	if res.MLU > 0.625*1.05 {
		t.Fatalf("approx MLU = %v, want ~0.625", res.MLU)
	}
}

func TestAliveAndBackgroundCombined(t *testing.T) {
	// Failed big link + background on the small one: everything must fit
	// on the small link on top of its background.
	g, a, b := parallel2(t)
	fail := graph.NewLinkSet(2)
	bg := make([]float64, g.NumLinks())
	bg[0] = 4
	comms := []routing.Commodity{{Src: a, Dst: b, Demand: 3}}
	res := MinMLU(g, comms, Options{Alive: fail.Alive(), Background: bg, Iterations: 100})
	if math.Abs(res.MLU-0.7) > 1e-6 {
		t.Fatalf("MLU = %v, want 0.7 ((4+3)/10)", res.MLU)
	}
	if denseFlow(res).Frac[0][2] != 0 {
		t.Fatalf("flow on failed link")
	}
}

func TestExactRejectsNothing(t *testing.T) {
	// No commodities: MLU is the background utilization.
	g, _, _ := parallel2(t)
	bg := make([]float64, g.NumLinks())
	bg[0] = 5
	res, err := MinMLUExact(g, nil, Options{Background: bg})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.MLU-0.5) > 1e-9 {
		t.Fatalf("MLU = %v, want 0.5", res.MLU)
	}
}

func TestApproxScaleInvariance(t *testing.T) {
	// Scaling demands and capacities together leaves MLU unchanged.
	g1 := topo.Abilene()
	tm := traffic.Gravity(g1, 300, 9)
	comms1 := routing.ODCommodities(g1.NumNodes(), tm.At)
	r1 := MinMLU(g1, comms1, Options{Iterations: 120})

	g2 := topo.AbileneWithCapacity(1000) // 10x capacity
	tm2 := tm.Clone().Scale(10)
	comms2 := routing.ODCommodities(g2.NumNodes(), tm2.At)
	r2 := MinMLU(g2, comms2, Options{Iterations: 120})
	if math.Abs(r1.MLU-r2.MLU) > 0.02*r1.MLU {
		t.Fatalf("scale variance: %v vs %v", r1.MLU, r2.MLU)
	}
}

func TestMinMLUBeatsECMPOnAsymmetricMesh(t *testing.T) {
	// min-MLU must never be worse than any specific routing; compare
	// against single-shortest-path loads.
	g := topo.Level3()
	tm := traffic.Gravity(g, 0.25*g.TotalCapacity(), 4)
	comms := routing.ODCommodities(g.NumNodes(), tm.At)
	res := MinMLU(g, comms, Options{Iterations: 150})
	if res.MLU <= 0 {
		t.Fatalf("MLU = %v", res.MLU)
	}
	// Lower bound: total demand cannot exceed MLU × min-cut-ish total
	// capacity; cheap sanity: MLU >= total / sum(capacities).
	if res.MLU < tm.Total()/g.TotalCapacity() {
		t.Fatalf("MLU %v below aggregate lower bound", res.MLU)
	}
}
