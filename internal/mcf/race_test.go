//go:build race

package mcf

// raceEnabled reports a race-detector build. The largest single-threaded
// LP solves in the tests (SBC's per-OD oracle, UUNet's reference) run some
// twenty-five times slower under it and exercise no concurrency, so they skip.
const raceEnabled = true
