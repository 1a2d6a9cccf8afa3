package core

import (
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/spf"
	"repro/internal/topo"
	"repro/internal/traffic"
)

func TestPrecomputeVariationsThreeMatrices(t *testing.T) {
	g := ring5(t)
	mats := []*traffic.Matrix{
		ring5Demand(g, 90),
		ring5Demand(g, 90),
		ring5Demand(g, 90),
	}
	// Skew each matrix toward a different pair so the hull has distinct
	// vertices.
	mats[0].Set(0, 2, mats[0].At(0, 2)*4)
	mats[1].Set(1, 3, mats[1].At(1, 3)*4)
	mats[2].Set(2, 4, mats[2].At(2, 4)*4)
	plan, err := PrecomputeVariations(g, mats, Config{
		Model: ArbitraryFailures{F: 1}, Iterations: 150,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every hull vertex must be covered; by convexity that covers the
	// whole hull (constraint (17)).
	for i, d := range mats {
		fl := plan.Base.Clone()
		fl.SetDemands(d.At)
		loads := fl.Loads()
		for e := 0; e < g.NumLinks(); e++ {
			u := (loads[e] + plan.VirtualLoad(graph.LinkID(e))) / g.Link(graph.LinkID(e)).Capacity
			if u > plan.MLU+1e-6 {
				t.Fatalf("matrix %d uncovered at link %d: %v > %v", i, e, u, plan.MLU)
			}
		}
	}
	// Convex midpoint is covered too.
	mid := traffic.NewMatrix(mats[0].N)
	for _, m := range mats {
		mid = mid.Add(m.Clone().Scale(1.0 / 3.0))
	}
	fl := plan.Base.Clone()
	fl.SetDemands(mid.At)
	loads := fl.Loads()
	for e := 0; e < g.NumLinks(); e++ {
		u := (loads[e] + plan.VirtualLoad(graph.LinkID(e))) / g.Link(graph.LinkID(e)).Capacity
		if u > plan.MLU+1e-6 {
			t.Fatalf("hull midpoint uncovered at link %d: %v > %v", e, u, plan.MLU)
		}
	}
}

func TestFixedBaseMissingPairRejected(t *testing.T) {
	g := ring5(t)
	d := ring5Demand(g, 60)
	// Base routing over a single OD pair cannot serve a full matrix.
	partial := routing.NewFlow(g, []routing.Commodity{{Src: 0, Dst: 1, Link: -1}})
	partial.Frac[0][0] = 1 // whatever; never validated because lookup fails first
	if _, err := Precompute(g, d, Config{
		Model: ArbitraryFailures{F: 1}, BaseRouting: partial, Iterations: 20,
	}); err == nil {
		t.Fatalf("base routing missing OD pairs accepted")
	}
}

// TestFixedBaseOfAnotherWidthRejected: a base routing whose rows are not
// NumLinks wide — a flow built over another graph — is hostile input and
// gets an error naming both widths; it used to index-panic deep in the
// solver.
func TestFixedBaseOfAnotherWidthRejected(t *testing.T) {
	g := topo.Abilene()
	d := traffic.Gravity(g, 300, 1)
	ospf := spf.ECMPFlow(g, routing.ODCommodities(g.NumNodes(), d.At), nil, spf.WeightCost(g))
	for k := range ospf.Frac {
		ospf.Frac[k] = ospf.Frac[k][:10]
	}
	_, err := Precompute(g, d, Config{
		Model: ArbitraryFailures{F: 1}, BaseRouting: ospf, Iterations: 20,
	})
	if want := "core: base routing has 10 links, topology has 28"; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("err = %v, want %q", err, want)
	}
}

func TestPrioritySingleClassEqualsPlain(t *testing.T) {
	// One priority class degenerates to plain precomputation: same
	// objective within solver noise.
	g := ring5(t)
	d := ring5Demand(g, 100)
	plain, err := Precompute(g, d, Config{Model: ArbitraryFailures{F: 1}, Iterations: 100})
	if err != nil {
		t.Fatal(err)
	}
	pri, err := PrecomputePrioritized(g, []Priority{{Demand: d, F: 1}}, Config{Iterations: 100})
	if err != nil {
		t.Fatal(err)
	}
	if pri.MLU > plain.MLU*1.05+1e-9 || plain.MLU > pri.MLU*1.05+1e-9 {
		t.Fatalf("single-class prioritized %v vs plain %v", pri.MLU, plain.MLU)
	}
}
