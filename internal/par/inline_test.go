package par

import (
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// withGOMAXPROCS runs fn with the scheduler clamped to n slots, restoring
// the previous setting afterwards.
func withGOMAXPROCS(t *testing.T, n int, fn func()) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(prev)
	fn()
}

// peakConcurrency runs n sleeping items on p and returns the most that
// ran at once. Sleeping bodies yield, so a spawned worker would overlap
// the caller even on one slot.
func peakConcurrency(p *Pool, n int) int32 {
	var cur, peak atomic.Int32
	p.ForEach(n, func(int) {
		c := cur.Add(1)
		for {
			old := peak.Load()
			if c <= old || peak.CompareAndSwap(old, c) {
				break
			}
		}
		time.Sleep(50 * time.Microsecond)
		cur.Add(-1)
	})
	return peak.Load()
}

// TestInlineSpawnsNoWorkers: on a single-slot runtime even a wide pool
// must run ForEach on the calling goroutine alone — no two items ever
// overlap — and a 1-worker or nil pool never runs items concurrently.
func TestInlineSpawnsNoWorkers(t *testing.T) {
	const n = 100
	withGOMAXPROCS(t, 1, func() {
		if peak := peakConcurrency(New(8), n); peak != 1 {
			t.Fatalf("inline execution ran %d items at once, want 1", peak)
		}
	})
	withGOMAXPROCS(t, 4, func() {
		var nilPool *Pool
		if peak := max(peakConcurrency(New(1), n), peakConcurrency(nilPool, n)); peak != 1 {
			t.Fatalf("1-worker and nil pools ran %d items at once, want 1", peak)
		}
	})
}

// TestInlinePooledIdentical: the same loop on a serial pool, on a wide
// pool clamped to one slot and on a wide pool with slots to spare must
// fill its index-owned slots with the same bits.
func TestInlinePooledIdentical(t *testing.T) {
	const n = 12345
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = math.Sin(float64(i)) * math.Pow(10, float64(i%17)-8)
	}
	run := func(p *Pool) []float64 {
		out := make([]float64, n)
		p.ForEach(n, func(i int) { out[i] = vals[i] * 3 })
		return out
	}
	same := func(what string, got, want []float64) {
		t.Helper()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s ForEach diverged at %d", what, i)
			}
		}
	}
	serial := run(Serial)
	withGOMAXPROCS(t, 1, func() { same("inline wide-pool", run(New(8)), serial) })
	withGOMAXPROCS(t, 4, func() {
		same("pooled", run(New(8)), serial)
		// Bit-equality alone would pass an inline fallback; a wide pool
		// with free slots must actually overlap items.
		if peak := peakConcurrency(New(8), 100); peak < 2 {
			t.Fatalf("pooled ForEach ran %d item at a time, want worker overlap", peak)
		}
	})
}
