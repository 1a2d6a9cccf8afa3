package repro_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// TestBenchmarkPlanDigest pins the plan the benchmark's plan-protect-g100
// workload (and `r3plan -net generated -f 1 -effort 200 -envelope 1.1`)
// builds: generated-100, gravity seed 1 at 15 % of capacity, F = 1, pinned
// base. The digest is of the wire bytes, so it moves with any change to
// the planner's arithmetic, and it must not depend on the worker count.
func TestBenchmarkPlanDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("plans generated-100 twice (a few seconds each)")
	}
	g := topo.Generated()
	d := traffic.Gravity(g, 0.15*g.TotalCapacity(), 1)
	for _, workers := range []int{1, 0} {
		plan, err := core.Precompute(g, d, core.Config{
			Model: core.ArbitraryFailures{F: 1}, Iterations: 200, PenaltyEnvelope: 1.1, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		fp, err := plan.WireFingerprint()
		if err != nil {
			t.Fatal(err)
		}
		if got, want := fmt.Sprintf("%016x", fp), "599dd342194d7ee2"; got != want {
			t.Fatalf("workers %d: plan digest %s, want %s", workers, got, want)
		}
	}
}
