package mcf

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/routing"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// TestMinMLUExactWarmMatchesColdAcrossFailures re-solves every
// single-link failure scenario of a small topology warm from the
// no-failure basis and cold, requiring identical optimal MLUs and a
// strictly lower total pivot count on the warm side — the property the
// evaluation engine's per-scenario optimal baseline relies on.
func TestMinMLUExactWarmMatchesColdAcrossFailures(t *testing.T) {
	g := topo.Abilene()
	tm := traffic.Gravity(g, 300, 3)
	comms := routing.ODCommodities(g.NumNodes(), tm.At)
	// Keep the LP small: largest 8 demands.
	for len(comms) > 8 {
		worst := 0
		for k := range comms {
			if comms[k].Demand < comms[worst].Demand {
				worst = k
			}
		}
		comms = append(comms[:worst], comms[worst+1:]...)
	}

	seed, err := MinMLUExact(g, comms, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if seed.Basis == nil {
		t.Fatalf("no basis returned from the seeding solve")
	}

	coldReg, warmReg := obs.NewRegistry(), obs.NewRegistry()
	scenarios := 0
	for e := 0; e < g.NumLinks() && scenarios < 8; e++ {
		failed := graph.NewLinkSet(graph.LinkID(e))
		if !g.Connected(failed.Alive()) {
			continue
		}
		scenarios++
		cold, err := MinMLUExact(g, comms, Options{Alive: failed.Alive(), Obs: coldReg})
		if err != nil {
			t.Fatalf("cold link %d: %v", e, err)
		}
		warm, err := MinMLUExact(g, comms, Options{Alive: failed.Alive(), Warm: seed.Basis, Obs: warmReg})
		if err != nil {
			t.Fatalf("warm link %d: %v", e, err)
		}
		if math.Abs(cold.MLU-warm.MLU) > 1e-6*(1+cold.MLU) {
			t.Fatalf("link %d: warm MLU %v != cold MLU %v", e, warm.MLU, cold.MLU)
		}
		if err := warm.Flow.Validate(1e-6); err != nil {
			t.Fatalf("link %d: warm flow invalid: %v", e, err)
		}
	}
	if scenarios == 0 {
		t.Fatalf("no connected single-link scenarios")
	}
	coldPivots := coldReg.Snapshot().Counters["lp.pivots"]
	warmPivots := warmReg.Snapshot().Counters["lp.pivots"]
	warmStarts := warmReg.Snapshot().Counters["lp.warm_starts"]
	if warmStarts != int64(scenarios) {
		t.Fatalf("warm_starts = %d, want %d (shape mismatch broke warm starting)", warmStarts, scenarios)
	}
	if warmPivots >= coldPivots {
		t.Fatalf("warm solves took %d pivots, cold %d — warm start is not helping", warmPivots, coldPivots)
	}
	t.Logf("pivots over %d scenarios: cold %d, warm %d", scenarios, coldPivots, warmPivots)
}

// TestMinMLUExactKillRowsMatchLegacySemantics checks the rhs-only
// failure encoding against first principles on the parallel-links
// topology: failing the big duplex pair forces everything onto the small
// one.
func TestMinMLUExactKillRowsMatchLegacySemantics(t *testing.T) {
	g, a, b := parallel2(t)
	comms := []routing.Commodity{{Src: a, Dst: b, Demand: 8, Link: -1}}
	failed := graph.NewLinkSet(2, 3) // the capacity-30 pair
	res, err := MinMLUExact(g, comms, Options{Alive: failed.Alive()})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.MLU-0.8) > 1e-6 {
		t.Fatalf("MLU = %v, want 0.8 (all 8 units on the capacity-10 link)", res.MLU)
	}
	for e := 0; e < g.NumLinks(); e++ {
		if failed.Contains(graph.LinkID(e)) && res.Flow.Frac[0][e] != 0 {
			t.Fatalf("flow %v on failed link %d", res.Flow.Frac[0][e], e)
		}
	}
}

// TestExactAbileneCold runs the LP behind r3d's certificate — the cold
// exact min-MLU solve on Abilene under the benchmark's hour-0 gravity
// matrix, 3 081 variables by 1 436 rows — and pins its optimum to the
// value the dense-LU solver reached (0.37817308734842009), with no
// recovery, and the same pivot count on a second run: the factorization's
// ordering is a function of the basis alone.
func TestExactAbileneCold(t *testing.T) {
	if testing.Short() {
		t.Skip("two full-size exact solves")
	}
	g := topo.Abilene()
	d := traffic.DiurnalSeries(traffic.Gravity(g, 0.15*g.TotalCapacity(), 1), 24, 1)[0]
	comms := routing.ODCommodities(g.NumNodes(), d.At)
	var pivots [2]int64
	for run := range pivots {
		reg := obs.NewRegistry()
		res, err := MinMLUExact(g, comms, Options{Obs: reg})
		if err != nil {
			t.Fatal(err)
		}
		if want := 0.37817308734842009; math.Abs(res.MLU-want) > 1e-9 {
			t.Fatalf("run %d: MLU %.17g, want %.17g", run, res.MLU, want)
		}
		c := reg.Snapshot().Counters
		if c["lp.recoveries"] != 0 {
			t.Fatalf("run %d: %d recoveries", run, c["lp.recoveries"])
		}
		pivots[run] = c["lp.pivots"]
	}
	if pivots[0] != pivots[1] || pivots[0] == 0 {
		t.Fatalf("pivot counts %v differ between identical runs", pivots)
	}
}
