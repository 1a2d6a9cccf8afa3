package core

import (
	"math"
	"testing"

	"repro/internal/obs"
)

// TestPrecomputeLPWarmBasisMatchesCold re-runs the ring-5 LP
// precomputation warm-started from a previous run's basis: the plan must
// be numerically identical and the warm solve must spend strictly fewer
// pivots (same problem, optimal basis in hand, ideally zero pivots).
func TestPrecomputeLPWarmBasisMatchesCold(t *testing.T) {
	g := ring5(t)
	d := ring5Demand(g, 20)
	cfg := Config{Model: ArbitraryFailures{F: 1}, Solver: SolverLP}

	cold, err := Precompute(g, d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cold.LPBasis == nil {
		t.Fatalf("LP plan carries no basis")
	}

	coldReg, warmReg := obs.NewRegistry(), obs.NewRegistry()
	cfgCold, cfgWarm := cfg, cfg
	cfgCold.Obs = coldReg
	cfgWarm.Obs = warmReg
	cfgWarm.LPWarmBasis = cold.LPBasis
	cold2, err := Precompute(g, d, cfgCold)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Precompute(g, d, cfgWarm)
	if err != nil {
		t.Fatal(err)
	}

	if math.Abs(warm.MLU-cold2.MLU) > 1e-9 {
		t.Fatalf("warm MLU %v != cold MLU %v", warm.MLU, cold2.MLU)
	}
	wb, cb := denseBase(warm), denseBase(cold2)
	for k := range cb.Frac {
		for e := range cb.Frac[k] {
			if math.Abs(wb.Frac[k][e]-cb.Frac[k][e]) > 1e-9 {
				t.Fatalf("base frac differs at comm %d link %d: warm %v, cold %v",
					k, e, wb.Frac[k][e], cb.Frac[k][e])
			}
		}
	}
	wp, cp := denseProt(warm), denseProt(cold2)
	for l := range cp {
		for e := range cp[l] {
			if math.Abs(wp[l][e]-cp[l][e]) > 1e-9 {
				t.Fatalf("protection differs at link %d over %d: warm %v, cold %v",
					l, e, wp[l][e], cp[l][e])
			}
		}
	}

	coldPivots := coldReg.Snapshot().Counters["lp.pivots"]
	warmPivots := warmReg.Snapshot().Counters["lp.pivots"]
	if warmReg.Snapshot().Counters["lp.warm_starts"] != 1 {
		t.Fatalf("warm solve did not take the warm path")
	}
	if warmPivots >= coldPivots {
		t.Fatalf("warm solve took %d pivots, cold %d — basis reuse is not helping", warmPivots, coldPivots)
	}
	t.Logf("pivots: cold %d, warm %d", coldPivots, warmPivots)
}

// TestPrecomputeLPWarmBasisMismatchFallsBack feeds a basis from a
// different problem shape: the solve must silently fall back to cold and
// still produce the right plan.
func TestPrecomputeLPWarmBasisMismatchFallsBack(t *testing.T) {
	g := ring5(t)
	d := ring5Demand(g, 20)
	cold, err := Precompute(g, d, Config{Model: ArbitraryFailures{F: 1}, Solver: SolverLP})
	if err != nil {
		t.Fatal(err)
	}
	// F=2 has the same variables but a different scenario weighting; the
	// shape happens to match, so build a genuinely different shape by
	// adding a delay envelope (extra rows).
	reg := obs.NewRegistry()
	mis, err := Precompute(g, d, Config{
		Model: ArbitraryFailures{F: 1}, Solver: SolverLP,
		DelayEnvelope: 4.0, LPWarmBasis: cold.LPBasis, Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if reg.Snapshot().Counters["lp.warm_starts"] != 0 {
		t.Fatalf("mismatched basis was warm-accepted")
	}
	if mis.MLU <= 0 || math.IsNaN(mis.MLU) {
		t.Fatalf("fallback plan MLU = %v", mis.MLU)
	}
}
