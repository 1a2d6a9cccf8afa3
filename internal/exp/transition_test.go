package exp

import (
	"os"
	"testing"
)

// TestTransitionSweep is the acceptance check for staged activation:
// across 32 chaos seeds on Abilene under the 2-duplex-link failure, the
// staged rollout's measured transient peak never exceeds one-shot
// activation's, every run's staged end state is byte-identical to
// one-shot, and the invariant checker stays silent.
func TestTransitionSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("64 seeded emulation runs")
	}
	sum := TransitionSweep(EmulationConfig{TotalMbps: 220, Effort: 80, Seed: 1}, 32)
	if testing.Verbose() {
		PrintStagedSweep(sum, os.Stdout)
	}
	if sum.Rounds == 0 {
		t.Fatal("scheduler produced no rounds")
	}
	if sum.Rounds > 4 {
		t.Fatalf("scheduler needed %d rounds, want <= 4", sum.Rounds)
	}
	if !sum.CongestionFree {
		t.Fatalf("transition not congestion-free: transient MLU %.4f", sum.TransientMLU)
	}
	if sum.TransientMLU > 1+1e-6 {
		t.Fatalf("scheduler transient MLU %.4f > 1", sum.TransientMLU)
	}
	if sum.StagedWorse != 0 {
		t.Fatalf("staged transient peak exceeded one-shot in %d/%d runs", sum.StagedWorse, len(sum.Runs))
	}
	if sum.Matches != len(sum.Runs) {
		t.Fatalf("staged end state matched one-shot in only %d/%d runs", sum.Matches, len(sum.Runs))
	}
	if sum.Violations != 0 {
		t.Fatalf("%d invariant violations across the sweep", sum.Violations)
	}
	if sum.WireKB <= 0 {
		t.Fatal("staged rounds reported no wire bytes")
	}
}
