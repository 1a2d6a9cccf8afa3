package exp

import (
	"os"
	"strings"
	"testing"
)

// TestSwapSweep is the acceptance check for staged plan swaps: on the
// crossing-commodities construct (both endpoints feasible, one-shot
// mixing envelope 1.2) the scheduler decomposes into >= 2 analytically
// congestion-free rounds, every chaos run's staged end state is
// byte-identical to the one-shot install, and the invariant checker
// stays silent.
func TestSwapSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("seeded emulation runs")
	}
	sum := SwapSweep(EmulationConfig{Effort: 30, Seed: 1}, 8)
	if testing.Verbose() {
		PrintStagedSweep(sum, os.Stdout)
	}
	if sum.Rounds < 2 {
		t.Fatalf("scheduler produced %d rounds, want >= 2", sum.Rounds)
	}
	if !sum.CongestionFree {
		t.Fatalf("swap not congestion-free: transient MLU %.4f", sum.TransientMLU)
	}
	if sum.TransientMLU > 1+1e-6 {
		t.Fatalf("scheduler transient MLU %.4f > 1", sum.TransientMLU)
	}
	if sum.OneShotMLU <= 1 {
		t.Fatalf("construct broken: one-shot mixing envelope %.4f not over capacity", sum.OneShotMLU)
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

// TestPrintSwapSweepShape pins the table header so the r3emu -swap output
// stays machine-greppable.
func TestPrintSwapSweepShape(t *testing.T) {
	sum := &StagedSummary{Rounds: 2, CongestionFree: true, OneShotMLU: 1.2, WireKB: 1,
		Runs: []StagedRun{{Seed: 1, Match: true}}, Matches: 1}
	var b strings.Builder
	PrintStagedSweep(sum, &b)
	out := b.String()
	for _, want := range []string{"one_shot_envelope_mlu=1.2000", "staged_peak", "end states match in 1/1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}
