package core

import (
	"bytes"
	"testing"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/traffic"
)

// TestObsDoesNotPerturbPlan is the observability determinism contract:
// precomputing with a live registry must yield a byte-identical plan to
// precomputing with none, for both solvers and for both DynTree rebuild
// kernels — instrumentation only reads solver state.
func TestObsDoesNotPerturbPlan(t *testing.T) {
	mesh := mesh6(t)
	ring := ring5(t)
	for _, solver := range []struct {
		name string
		g    *graph.Graph
		d    *traffic.Matrix
		cfg  Config
	}{
		{"fw", mesh, traffic.Gravity(mesh, 40, 11), Config{Model: ArbitraryFailures{F: 1}, Iterations: 40}},
		{"fw-pinned", mesh, traffic.Gravity(mesh, 40, 11), Config{Model: ArbitraryFailures{F: 1}, Iterations: 40, PenaltyEnvelope: 1.1}},
		{"fw-delta", mesh, traffic.Gravity(mesh, 40, 11), Config{Model: ArbitraryFailures{F: 1}, Iterations: 40, kernel: kernelDelta}},
		{"lp", ring, ring5Demand(ring, 20), Config{Model: ArbitraryFailures{F: 1}, Solver: SolverLP}},
	} {
		t.Run(solver.name, func(t *testing.T) {
			bare := encodePlan(t, precomputeAt(t, solver.g, solver.d, solver.cfg, 4))
			cfg := solver.cfg
			cfg.Obs = obs.NewRegistry()
			instrumented := encodePlan(t, precomputeAt(t, solver.g, solver.d, cfg, 4))
			if !bytes.Equal(bare, instrumented) {
				t.Fatal("plan bytes differ with a live registry attached")
			}
			if solver.cfg.Solver == SolverLP {
				return
			}
			// The gauge and counter the sparse protection half reports were
			// live during that solve: the protection's nonzeros after the last
			// epoch, and the block sweeps' line-search cache fills (at least one per sweep).
			snap := cfg.Obs.Snapshot()
			if nnz := snap.Gauges["fw.prot_nnz"]; nnz <= 0 {
				t.Fatalf("fw.prot_nnz = %d, want the protection's nonzero count", nnz)
			}
			if rekeys := snap.Counters["fw.lse_rekeys"]; rekeys <= 0 {
				t.Fatalf("fw.lse_rekeys = %d, want the line-search cache fills counted", rekeys)
			}
			// The fw.run span says which kernel rebuilt the trees.
			wantDelta := 0.0
			if solver.cfg.kernel == kernelDelta {
				wantDelta = 1
			}
			roots := snap.Traces["fw"]
			if len(roots) != 1 || len(roots[0].Attrs) != 1 || roots[0].Attrs[0] != (obs.Attr{Key: "spf_delta", Value: wantDelta}) {
				t.Fatalf("fw trace roots = %+v, want one fw.run with spf_delta = %v", roots, wantDelta)
			}
			t.Logf("fw.prot_nnz %d, fw.lse_rekeys %d", snap.Gauges["fw.prot_nnz"], snap.Counters["fw.lse_rekeys"])
		})
	}
}

// TestObsFWRecordsSolverProgress checks the substance of the FW
// instrumentation: epoch/SPF counters advance, the final MLU gauge equals
// the plan's, and the span tree holds one fw.run root whose children are
// base-init, one epoch per counted epoch, and package.
func TestObsFWRecordsSolverProgress(t *testing.T) {
	g := mesh6(t)
	d := traffic.Gravity(g, 40, 11)
	reg := obs.NewRegistry()
	plan, err := Precompute(g, d, Config{
		Model: ArbitraryFailures{F: 1}, Iterations: 30, Workers: 2, Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	epochs := snap.Counters["fw.epochs"]
	if epochs == 0 {
		t.Fatal("fw.epochs never advanced")
	}
	if snap.Counters["fw.spf"] == 0 {
		t.Fatal("fw.spf never advanced")
	}
	if got := snap.FloatGauges["fw.mlu"]; got != plan.MLU {
		t.Fatalf("fw.mlu gauge = %v, plan MLU = %v", got, plan.MLU)
	}
	roots := snap.Traces["fw"]
	if len(roots) != 1 || roots[0].Name != "fw.run" {
		t.Fatalf("fw trace roots = %+v, want one fw.run", roots)
	}
	// The root covers the whole solve: base initialization first, then the
	// epochs, then packaging, and nothing else.
	kids := roots[0].Children
	if n := len(kids); n < 3 || kids[0].Name != "base-init" || kids[n-1].Name != "package" {
		t.Fatalf("fw.run children = %+v, want base-init, epochs, package", kids)
	}
	var epochSpans int64
	for _, c := range kids[1 : len(kids)-1] {
		if c.Name != "epoch" {
			t.Fatalf("fw.run has a %q span between base-init and package, want only epochs", c.Name)
		}
		epochSpans++
	}
	if epochSpans != epochs {
		t.Fatalf("trace has %d epoch spans, counter says %d", epochSpans, epochs)
	}
	// Pool gauges are registered and sampled at snapshot time; after the
	// run the queue must be drained.
	if pending, ok := snap.Gauges["fw.pool_pending"]; !ok || pending != 0 {
		t.Fatalf("fw.pool_pending = %d (present=%v), want 0 after the run", pending, ok)
	}
	if snap.Gauges["fw.pool_items"] == 0 {
		t.Fatal("fw.pool_items = 0, want the run's parallel loop items")
	}
}

// TestPoolCarriesOnlyLinkSizedItems is the gate on the solver's execution
// policy (DESIGN.md §14): the pool runs the two loops of pDirections (cost
// accumulation, then the oracle fan-out) and the r fan-out, and nothing
// else — the global step's line-search fill costs the protection's
// nonzeros per column and is a plain loop. A joint solve (no
// PenaltyEnvelope, so the r sweep and its cache refills run) must stay
// within 3 pool loops per epoch; any loop put back on the pool, the fill's
// 15 per epoch included, fails it.
func TestPoolCarriesOnlyLinkSizedItems(t *testing.T) {
	g := mesh6(t)
	reg := obs.NewRegistry()
	if _, err := Precompute(g, traffic.Gravity(g, 40, 11), Config{
		Model: ArbitraryFailures{F: 1}, Iterations: 60, Workers: 2, Obs: reg,
	}); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	loops, epochs := snap.Gauges["fw.pool_loops"], snap.Counters["fw.epochs"]
	if epochs == 0 || loops == 0 {
		t.Fatalf("fw.pool_loops = %d over fw.epochs = %d, want both positive", loops, epochs)
	}
	if loops > 3*epochs {
		t.Fatalf("fw.pool_loops / fw.epochs = %d / %d = %.1f, want <= 3: a fine-grained loop is back on the pool",
			loops, epochs, float64(loops)/float64(epochs))
	}
	t.Logf("fw.pool_loops / fw.epochs = %d / %d", loops, epochs)
}

// TestObsLPRecordsSolveCounters checks the LP instrumentation path end to
// end through Precompute with the exact solver.
func TestObsLPRecordsSolveCounters(t *testing.T) {
	g := ring5(t)
	d := ring5Demand(g, 20)
	reg := obs.NewRegistry()
	if _, err := Precompute(g, d, Config{
		Model: ArbitraryFailures{F: 1}, Solver: SolverLP, Obs: reg,
	}); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if snap.Counters["lp.solves"] == 0 {
		t.Fatal("lp.solves never advanced")
	}
	if snap.Counters["lp.pivots"] == 0 {
		t.Fatal("lp.pivots never advanced")
	}
	if snap.Vecs["lp.status"]["optimal"] != snap.Counters["lp.solves"] {
		t.Fatalf("lp.status = %v, want all %d solves optimal", snap.Vecs["lp.status"], snap.Counters["lp.solves"])
	}
	if snap.Gauges["lp.lu_nnz"] == 0 || snap.Gauges["lp.basis_nnz"] == 0 || snap.Counters["lp.eta_nnz"] == 0 {
		t.Fatalf("fill telemetry missing: lu_nnz %d, basis_nnz %d, eta_nnz %d",
			snap.Gauges["lp.lu_nnz"], snap.Gauges["lp.basis_nnz"], snap.Counters["lp.eta_nnz"])
	}
}
