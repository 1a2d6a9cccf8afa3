package core

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// degradePlan precomputes a degradation-envelope plan over g, rescaling
// the demand once if needed so the certified MLU drops below 1 — the
// envelope's online soundness argument (DESIGN.md §3) needs a
// congestion-free certificate, exactly as the paper's Theorem 2 does for
// hard failures.
func degradePlan(t *testing.T, g *graph.Graph, d *traffic.Matrix, model DegradationModel, iters int) *Plan {
	t.Helper()
	cfg := Config{Model: model, Iterations: iters, Workers: 1}
	plan, err := Precompute(g, d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.CongestionFree() {
		d.Scale(0.8 / plan.MLU) // MLU is close to linear in total demand
		if plan, err = Precompute(g, d, cfg); err != nil {
			t.Fatal(err)
		}
	}
	if !plan.CongestionFree() {
		t.Skipf("could not reach a congestion-free certificate (MLU %v)", plan.MLU)
	}
	return plan
}

// TestDegradationPropertyNeverExceedsCertified is the envelope's core
// guarantee, sampled: any in-budget degradation assignment — replayed
// online through Degrade's scaled reconfiguration — keeps the maximum
// utilization (against effective capacities) within the certified MLU.
// 16 seeds on each of ring5 and Abilene, with the application order
// shuffled per scenario so order robustness is exercised too.
func TestDegradationPropertyNeverExceedsCertified(t *testing.T) {
	topos := []struct {
		name string
		g    *graph.Graph
	}{
		{"ring5", ring5(t)},
		{"abilene", topo.Abilene()},
	}
	for _, tg := range topos {
		tg := tg
		t.Run(tg.name, func(t *testing.T) {
			d := traffic.Gravity(tg.g, 40, 11)
			model := DegradationModel{Beta: 0.5, Budget: 1.5}
			plan := degradePlan(t, tg.g, d, model, 80)
			for seed := int64(0); seed < 16; seed++ {
				scs := SampleDegradations(tg.g, model, 8, seed)
				rng := rand.New(rand.NewSource(seed + 1000))
				for i, sc := range scs {
					rng.Shuffle(len(sc.Degraded), func(a, b int) {
						sc.Degraded[a], sc.Degraded[b] = sc.Degraded[b], sc.Degraded[a]
					})
					st := NewState(plan)
					if err := st.ApplyScenario(sc); err != nil {
						t.Fatalf("seed %d scenario %d: %v", seed, i, err)
					}
					if mlu := st.MLU(); mlu > plan.MLU+1e-6 {
						t.Fatalf("seed %d scenario %d (%s): online MLU %v exceeds certified %v",
							seed, i, sc.Describe(), mlu, plan.MLU)
					}
				}
			}
		})
	}
}

// TestDegradationExtremePointsDifferential replays every extreme point of
// the degradation polytope (β = 0.5, B = 1 on ring5: all singles at full
// β and all saturated pairs) — brute-force coverage rather than sampling.
func TestDegradationExtremePointsDifferential(t *testing.T) {
	g := ring5(t)
	d := ring5Demand(g, 40)
	model := DegradationModel{Beta: 0.5, Budget: 1}
	plan := degradePlan(t, g, d, model, 80)
	nL := g.NumLinks()
	var scs []Scenario
	for a := 0; a < nL; a++ {
		scs = append(scs, Scenario{Kind: ScenarioDegradation, Node: -1,
			Degraded: []LinkDegradation{{Link: graph.LinkID(a), Frac: 0.5}}})
		for b := a + 1; b < nL; b++ {
			scs = append(scs, Scenario{Kind: ScenarioDegradation, Node: -1, Degraded: []LinkDegradation{
				{Link: graph.LinkID(a), Frac: 0.5},
				{Link: graph.LinkID(b), Frac: 0.5},
			}})
		}
	}
	rep, err := plan.VerifyScenarios(scs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violations != 0 {
		t.Fatalf("%d/%d extreme points exceed certified MLU %v; worst %v at %s",
			rep.Violations, rep.Scenarios, plan.MLU, rep.WorstMLU, rep.Worst.Describe())
	}
}

// TestDegradationFWvsLP is the solver differential: the exact LP's
// certified MLU can never exceed the Frank–Wolfe bound (it optimizes the
// same constraints exactly), both must certify congestion-free plans
// here, and both plans must survive the same sampled degradations.
func TestDegradationFWvsLP(t *testing.T) {
	g := ring5(t)
	d := ring5Demand(g, 40)
	model := DegradationModel{Beta: 0.5, Budget: 1}
	fw, err := Precompute(g, d, Config{Model: model, Iterations: 80, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	lp, err := Precompute(g, d, Config{Model: model, Solver: SolverLP, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if lp.MLU > fw.MLU+1e-6 {
		t.Fatalf("exact LP MLU %v above FW bound %v", lp.MLU, fw.MLU)
	}
	if fw.MLU > 2*lp.MLU+1e-6 {
		t.Fatalf("FW bound %v implausibly loose against LP optimum %v", fw.MLU, lp.MLU)
	}
	scs := SampleDegradations(g, model, 48, 17)
	for name, plan := range map[string]*Plan{"fw": fw, "lp": lp} {
		if !plan.CongestionFree() {
			t.Fatalf("%s plan not congestion-free: MLU %v", name, plan.MLU)
		}
		rep, err := plan.VerifyScenarios(scs)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Violations != 0 {
			t.Fatalf("%s plan: %d violations, worst %v at %s (certified %v)",
				name, rep.Violations, rep.WorstMLU, rep.Worst.Describe(), plan.MLU)
		}
	}
}

// TestSurgePropertyCoveredByEnvelope: a plan precomputed with the surge
// envelope folded in keeps the fully surged matrix — and, by convexity,
// any partial surge of the same OD set — within its certified MLU.
func TestSurgePropertyCoveredByEnvelope(t *testing.T) {
	g := ring5(t)
	d := ring5Demand(g, 40)
	spec := &SurgeSpec{Scale: 1.5, Frac: 0.5}
	plan, err := Precompute(g, d, Config{
		Model: ArbitraryFailures{F: 1}, Surge: spec, Iterations: 80, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !plan.CongestionFree() {
		t.Skipf("plan MLU %v > 1", plan.MLU)
	}
	full := spec.Scenario(d)
	partial := full
	partial.SurgeScale = 1.2
	// The surge composes with any single protected failure: the envelope
	// bound holds for d' + X_F with d' the surged matrix.
	combined := full
	combined.Failed = graph.NewLinkSet(0)
	rep, err := plan.VerifyScenarios([]Scenario{full, partial, combined})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violations != 0 {
		t.Fatalf("surge replay: %d violations, worst %v at %s (certified %v)",
			rep.Violations, rep.WorstMLU, rep.Worst.Describe(), plan.MLU)
	}
	if rep.ByKind[ScenarioSurge] != 3 {
		t.Fatalf("ByKind[surge] = %d, want 3", rep.ByKind[ScenarioSurge])
	}
}
