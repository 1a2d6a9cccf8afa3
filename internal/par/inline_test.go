package par

import (
	"math"
	"runtime"
	"testing"
)

// withGOMAXPROCS runs fn with the scheduler clamped to n slots, restoring
// the previous setting afterwards.
func withGOMAXPROCS(t *testing.T, n int, fn func()) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(prev)
	fn()
}

// TestInlineSpawnsNoWorkers: on a single-slot runtime even a wide pool
// must run ForEach on the calling goroutine — the spawned-worker counter
// stays flat — and a 1-worker or nil pool never spawns at all.
func TestInlineSpawnsNoWorkers(t *testing.T) {
	const n = 1000
	out := make([]float64, n)
	fill := func(i int) { out[i] = float64(i) * 1.5 }
	withGOMAXPROCS(t, 1, func() {
		p := New(8)
		p.ForEach(n, fill)
		if d := p.SpawnedWorkers(); d != 0 {
			t.Fatalf("inline execution spawned %d workers, want 0", d)
		}
	})
	withGOMAXPROCS(t, 4, func() {
		p := New(1)
		p.ForEach(n, fill)
		var nilPool *Pool
		nilPool.ForEach(n, fill)
		if d := p.SpawnedWorkers() + nilPool.SpawnedWorkers(); d != 0 {
			t.Fatalf("1-worker and nil pools spawned %d workers, want 0", d)
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
		p := New(8)
		same("pooled", run(p), serial)
		if p.SpawnedWorkers() == 0 {
			t.Fatal("pooled ForEach with 4 slots should have spawned workers")
		}
	})
}
