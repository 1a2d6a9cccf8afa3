package core

import (
	"bytes"
	"math"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// encodePlan serializes a plan to the wire format so two plans can be
// compared for byte identity — the strongest possible determinism check:
// every base fraction, protection fraction and MLU must match to the last
// bit.
func encodePlan(t *testing.T, p *Plan) []byte {
	t.Helper()
	b, err := p.EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// precomputeAt runs Precompute with the given worker count, failing the
// test on error.
func precomputeAt(t *testing.T, g *graph.Graph, d *traffic.Matrix, cfg Config, workers int) *Plan {
	t.Helper()
	cfg.Workers = workers
	plan, err := Precompute(g, d, cfg)
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return plan
}

// TestPrecomputeDeterministicAcrossWorkers is the solver's parallelism
// contract: for seeded random topologies and several failure models, the
// plan produced with Workers=8 (and intermediate counts) is byte-identical
// to the serial Workers=1 plan. The FW solver's pooled loops write
// index-owned slots over a worker-independent chunk grid, so any
// scheduling-dependent float association would show up here as a one-bit
// diff in the encoded plan.
func TestPrecomputeDeterministicAcrossWorkers(t *testing.T) {
	type tc struct {
		name string
		g    *graph.Graph
		d    *traffic.Matrix
		cfg  Config
	}
	var cases []tc

	for _, m := range []struct {
		nodes, links int
		seed         int64
	}{
		{10, 30, 3},
		{14, 44, 7},
	} {
		g := topo.Mesh("det", m.nodes, m.links, m.seed, 1000)
		d := traffic.Gravity(g, 800, m.seed+1)
		cases = append(cases,
			tc{"arb-f1", g, d, Config{Model: ArbitraryFailures{F: 1}, Iterations: 25}},
			tc{"arb-f2", g, d, Config{Model: ArbitraryFailures{F: 2}, Iterations: 25}},
		)
	}
	// Penalty envelope pins the base and optimizes p only — a different
	// code path through the solver.
	gEnv := topo.Mesh("det-env", 10, 30, 5, 1000)
	cases = append(cases, tc{
		"envelope", gEnv, traffic.Gravity(gEnv, 700, 6),
		Config{Model: ArbitraryFailures{F: 1}, Iterations: 25, PenaltyEnvelope: 1.1},
	})
	// Group failure model exercises the SRLG/MLG fast path.
	gGrp := topo.Mesh("det-grp", 10, 32, 9, 1000)
	gGrp.AddSRLG(0, 1, 4)
	gGrp.AddSRLG(2, 3)
	gGrp.AddMLG(6, 7, 8)
	cases = append(cases, tc{
		"groups", gGrp, traffic.Gravity(gGrp, 700, 10),
		Config{Model: ModelFromGraph(gGrp, 1), Iterations: 25},
	})
	// Degradation envelope: the knapsack kernel's ActiveSet under the
	// pooled gradient-cost accumulation.
	gDeg := topo.Mesh("det-degrade", 12, 36, 25, 1000)
	cases = append(cases, tc{
		"degradation", gDeg, traffic.Gravity(gDeg, 800, 26),
		Config{Model: DegradationModel{Beta: 0.5, Budget: 2}, Iterations: 25},
	})

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want := encodePlan(t, precomputeAt(t, c.g, c.d, c.cfg, 1))
			for _, w := range []int{2, 3, 8} {
				got := encodePlan(t, precomputeAt(t, c.g, c.d, c.cfg, w))
				if !bytes.Equal(got, want) {
					t.Fatalf("workers=%d plan differs from serial plan (%d vs %d bytes)",
						w, len(got), len(want))
				}
			}
		})
	}
}

// TestPrecomputeVariationsDeterministicAcrossWorkers covers the
// multi-requirement path: several hull matrices send rDirections down its
// per-commodity fan-out (one demand-weighted SPF per pool item).
func TestPrecomputeVariationsDeterministicAcrossWorkers(t *testing.T) {
	g := topo.Mesh("det-var", 12, 36, 13, 1000)
	ds := []*traffic.Matrix{
		traffic.Gravity(g, 600, 14),
		traffic.Gravity(g, 900, 15),
		traffic.Gravity(g, 750, 16),
	}
	cfg := Config{Model: ArbitraryFailures{F: 1}, Iterations: 25}
	run := func(workers int) []byte {
		c := cfg
		c.Workers = workers
		plan, err := PrecomputeVariations(g, ds, c)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return encodePlan(t, plan)
	}
	want := run(1)
	for _, w := range []int{2, 8} {
		if got := run(w); !bytes.Equal(got, want) {
			t.Fatalf("workers=%d variations plan differs from serial", w)
		}
	}
}

// TestPrecomputePrioritizedDeterministicAcrossWorkers covers prioritized
// classes (cumulative demand sets with distinct F per class).
func TestPrecomputePrioritizedDeterministicAcrossWorkers(t *testing.T) {
	g := topo.Mesh("det-prio", 12, 36, 17, 1000)
	classes := []Priority{
		{Demand: traffic.Gravity(g, 300, 18), F: 2},
		{Demand: traffic.Gravity(g, 500, 19), F: 1},
	}
	run := func(workers int) []byte {
		plan, err := PrecomputePrioritized(g, classes, Config{Iterations: 25, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return encodePlan(t, plan)
	}
	want := run(1)
	for _, w := range []int{2, 8} {
		if got := run(w); !bytes.Equal(got, want) {
			t.Fatalf("workers=%d prioritized plan differs from serial", w)
		}
	}
}

// TestPrecomputeConcurrentCalls covers the parallelism r3d (a rebuild
// beside GET /v1/scenario) and exp actually use: several Precompute calls
// at once on one shared graph. Each call owns its solver state and pool,
// the graph is read-only, so every plan must equal the serial call's bytes
// — and the race detector must stay quiet.
func TestPrecomputeConcurrentCalls(t *testing.T) {
	g := topo.Abilene()
	d := traffic.Gravity(g, 0.15*g.TotalCapacity(), 1)
	for _, model := range []FailureModel{ArbitraryFailures{F: 1}, DegradationModel{Beta: 0.5, Budget: 2}} {
		cfg := Config{Model: model, Iterations: 25}
		want := encodePlan(t, precomputeAt(t, g, d, cfg, 1))
		plans := make([]*Plan, 4)
		errs := make([]error, len(plans))
		var wg sync.WaitGroup
		for i := range plans {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c := cfg
				c.Workers = 2
				plans[i], errs[i] = Precompute(g, d, c)
			}()
		}
		wg.Wait()
		for i, plan := range plans {
			if errs[i] != nil {
				t.Fatalf("%v: concurrent call %d: %v", model, i, errs[i])
			}
			if !bytes.Equal(encodePlan(t, plan), want) {
				t.Fatalf("%v: concurrent call %d differs from the serial plan", model, i)
			}
		}
	}
}

// TestLPvsFWDifferential cross-checks the two solvers on small topologies
// where the LP is tractable: the approximate FW objective must land within
// a modest factor of the exact LP optimum (and never beat it — the LP is a
// lower bound), and both plans must deliver the Theorem 1 guarantee for
// every single-link failure.
func TestLPvsFWDifferential(t *testing.T) {
	type tc struct {
		name string
		g    *graph.Graph
		d    *traffic.Matrix
		f    int
	}
	gr := ring5(t)
	// The structured mesh6 (ring + diagonals, uniform capacity) is the
	// largest instance the dense simplex solves reliably inside the test
	// timeout; randomized meshes of the same size can push phase 1 past
	// its iteration limit. F=2 because the F=1 instance is degenerate
	// enough that the simplex fails its own solution verification — the
	// F=2 plan still covers every single-link failure, which is what
	// checkTheorem1 exercises below.
	gm := mesh6(t)
	cases := []tc{
		{"ring5", gr, ring5Demand(gr, 110), 1},
		{"mesh6", gm, traffic.Gravity(gm, 40, 11), 2},
	}

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := Config{Model: ArbitraryFailures{F: c.f}}
			cfg.Solver = SolverLP
			lp, err := Precompute(c.g, c.d, cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Solver = SolverFW
			cfg.Iterations = 300
			fw, err := Precompute(c.g, c.d, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if fw.MLU < lp.MLU-1e-6 {
				t.Fatalf("FW MLU %v beat exact LP %v: LP must be wrong", fw.MLU, lp.MLU)
			}
			if fw.MLU > lp.MLU*1.15+1e-9 {
				t.Fatalf("FW MLU %v too far above LP optimum %v", fw.MLU, lp.MLU)
			}
			// Evaluate must agree with each solver's reported objective.
			if ev := lp.Evaluate(); math.Abs(ev-lp.MLU) > 1e-6 {
				t.Fatalf("LP Evaluate %v != MLU %v", ev, lp.MLU)
			}
			validateProt(t, c.g, lp.Prot)
			validateProt(t, c.g, fw.Prot)
			checkTheorem1(t, lp, 1)
			checkTheorem1(t, fw, 1)
		})
	}
}
