package core

import (
	"math"
	"strings"
	"testing"
	"time"

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
		fl := denseBase(plan)
		fl.SetDemands(d.At)
		loads := fl.Loads()
		for e := 0; e < g.NumLinks(); e++ {
			u := (loads[e] + virtualLoad(plan, graph.LinkID(e))) / g.Link(graph.LinkID(e)).Capacity
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
	fl := denseBase(plan)
	fl.SetDemands(mid.At)
	loads := fl.Loads()
	for e := 0; e < g.NumLinks(); e++ {
		u := (loads[e] + virtualLoad(plan, graph.LinkID(e))) / g.Link(graph.LinkID(e)).Capacity
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

// TestFixedBaseNonFiniteRejected: a base routing row holding NaN or an
// infinite fraction is rejected with an error by both solvers, as a
// mis-sized one is. A NaN row used to pass straight into loop cancellation,
// where a cycle of NaN cells never empties: Precompute on Abilene was still
// running after 20 s.
func TestFixedBaseNonFiniteRejected(t *testing.T) {
	g := topo.Abilene()
	d := traffic.Gravity(g, 300, 1)
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		for _, solver := range []Solver{SolverFW, SolverLP} {
			ospf := spf.ECMPFlow(g, routing.ODCommodities(g.NumNodes(), d.At), nil, spf.WeightCost(g))
			for e := range ospf.Frac[3] {
				ospf.Frac[3][e] = bad
			}
			done := make(chan error, 1)
			go func() {
				_, err := Precompute(g, d, Config{
					Model: ArbitraryFailures{F: 1}, BaseRouting: ospf, Iterations: 20, Solver: solver, Workers: 1,
				})
				done <- err
			}()
			select {
			case err := <-done:
				if want := "core: base routing has fraction"; err == nil || !strings.Contains(err.Error(), want) {
					t.Fatalf("solver %v, a row of %v: err = %v, want %q", solver, bad, err, want)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("solver %v, a row of %v: Precompute still running after 10 s", solver, bad)
			}
		}
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
