package repro_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// TestBenchmarkPlanDigest pins two plans by the digest of their wire bytes,
// so each moves with any change to the planner's arithmetic, and neither
// may depend on the worker count:
//   - the plan the benchmark's plan-protect-g100 workload (and `r3plan -net
//     generated -f 1 -effort 200 -envelope 1.1`) builds: generated-100,
//     gravity seed 1 at 15 % of capacity, F = 1, pinned base;
//   - SBC with the base optimized jointly (`r3plan -net sbc -f 2 -effort 100
//     -envelope 0`): the one workload here whose global step reads direction
//     loads other than the current ones, and whose r sweep runs.
func TestBenchmarkPlanDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("plans generated-100 and SBC twice each (a few seconds)")
	}
	for _, tc := range []struct {
		name   string
		g      *graph.Graph
		cfg    core.Config
		digest string
	}{
		{"generated-100", topo.Generated(), core.Config{Model: core.ArbitraryFailures{F: 1}, Iterations: 200, PenaltyEnvelope: 1.1}, "599dd342194d7ee2"},
		{"sbc-joint", topo.SBC(), core.Config{Model: core.ArbitraryFailures{F: 2}, Iterations: 100}, "bd48462ea2a030b6"},
	} {
		d := traffic.Gravity(tc.g, 0.15*tc.g.TotalCapacity(), 1)
		for _, workers := range []int{1, 0} {
			cfg := tc.cfg
			cfg.Workers = workers
			plan, err := core.Precompute(tc.g, d, cfg)
			if err != nil {
				t.Fatal(err)
			}
			fp, err := plan.WireFingerprint()
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%016x", fp); got != tc.digest {
				t.Fatalf("%s workers %d: plan digest %s, want %s", tc.name, workers, got, tc.digest)
			}
		}
	}
}
