package exp

import (
	"fmt"
	"hash/fnv"
	"testing"
)

// stagedDigest hashes a sweep as r3emu prints it, then every run's fields
// at full precision, so a change below the table's four decimals moves it
// too.
func stagedDigest(sum *StagedSummary) uint64 {
	h := fnv.New64a()
	PrintStagedSweep(sum, h)
	fmt.Fprintf(h, "%v", sum.Runs)
	return h.Sum64()
}

// TestTransitionSweepGolden pins `r3emu -transition -transition-seeds 2
// -effort 40` bit for bit: both chaos seeds' staged and one-shot runs
// through the emulator's failure flood, staged-round flood and event loop.
func TestTransitionSweepGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("four seeded emulation runs")
	}
	const want = 0x5e56c93e709f89d0
	if got := stagedDigest(TransitionSweep(EmulationConfig{Effort: 40, Seed: 1}, 2)); got != want {
		t.Errorf("TransitionSweep digest %#016x, pinned %#016x", got, uint64(want))
	}
}

// TestSwapSweepGolden pins `r3emu -swap -swap-seeds 2 -effort 40` bit for
// bit, the plan-swap rounds' delivery included.
func TestSwapSweepGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("four seeded emulation runs")
	}
	const want = 0x94c63b1f420ac024
	if got := stagedDigest(SwapSweep(EmulationConfig{Effort: 40, Seed: 1}, 2)); got != want {
		t.Errorf("SwapSweep digest %#016x, pinned %#016x", got, uint64(want))
	}
}
