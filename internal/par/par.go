// Package par is the repo's single concurrency substrate: a bounded
// worker pool running index-addressed parallel loops whose results are
// bit-identical to a serial execution, regardless of worker count or
// goroutine scheduling.
//
// Determinism contract. ForEach writes results into caller-owned slots
// addressed by loop index, so scheduling cannot reorder anything
// observable. The chunk grid (ChunkSize, NumChunks, Chunk) and the shard
// grid (ShardRanges) are pure functions of the problem size — never of the
// worker count — so a caller that hands one chunk or shard to each loop
// item visits the same index ranges on a 1-worker pool and an N-worker
// pool. Callers keep the contract by never accumulating across indices
// inside a parallel body; the Frank–Wolfe solver in internal/core leans on
// this to make Workers=1 and Workers=8 produce byte-identical plans.
//
// Panics inside a body are captured and re-raised on the caller's
// goroutine (the panic from the lowest-indexed failing item wins, again
// for determinism).
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a bounded degree of parallelism. The zero value and nil both
// behave as a serial pool; New(n) bounds concurrent body executions to n.
// A Pool holds no goroutines between calls — workers are spawned per loop
// and joined before the loop returns, so a Pool is freely shareable and
// safe for concurrent use.
type Pool struct {
	workers int

	// Always-on stats: a few atomic adds per loop/item, negligible next
	// to chunk-sized bodies. Observability layers (internal/obs) sample
	// them through Stats and Pending rather than the pool importing any
	// metrics package.
	loops   atomic.Int64
	items   atomic.Int64
	pending atomic.Int64
	spawned atomic.Int64
}

// Stats reports how many parallel loops the pool has run and how many
// loop items it has executed. Nil pools report zeros.
func (p *Pool) Stats() (loops, items int64) {
	if p == nil {
		return 0, 0
	}
	return p.loops.Load(), p.items.Load()
}

// Pending reports the number of items of in-flight loops not yet
// completed — the pool's instantaneous queue depth. Nil pools report 0.
func (p *Pool) Pending() int64 {
	if p == nil {
		return 0
	}
	return p.pending.Load()
}

// SpawnedWorkers reports the total number of worker goroutines the pool
// has launched across all loops, beside the callers themselves. Loops that
// ran on the calling goroutine alone spawn none. Nil pools report 0.
func (p *Pool) SpawnedWorkers() int64 {
	if p == nil {
		return 0
	}
	return p.spawned.Load()
}

func (p *Pool) noteItemDone() {
	if p == nil {
		return
	}
	p.items.Add(1)
	p.pending.Add(-1)
}

// New returns a pool bounded to workers concurrent body executions.
// workers <= 0 selects GOMAXPROCS.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers}
}

// Serial is a 1-worker pool: ForEach degenerates to a plain loop.
var Serial = New(1)

// Workers reports the pool's bound. A nil or zero pool reports 1.
func (p *Pool) Workers() int {
	if p == nil || p.workers <= 0 {
		return 1
	}
	return p.workers
}

// firstPanic tracks the lowest-index panic across workers.
type firstPanic struct {
	mu    sync.Mutex
	set   bool
	index int
	value any
}

func (f *firstPanic) record(index int, value any) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.set || index < f.index {
		f.set, f.index, f.value = true, index, value
	}
}

// rethrow re-raises the recorded panic value on the caller's goroutine.
func (f *firstPanic) rethrow() {
	if f.set {
		panic(f.value)
	}
}

// ForEach runs fn(i) for every i in [0, n), using up to Workers()
// concurrent executions, the calling goroutine's among them. fn must only
// write state owned by index i. A 1-worker pool — or any pool when the
// runtime has a single scheduling slot (GOMAXPROCS=1), where goroutine
// handoff buys no parallelism — runs the plain loop on the calling
// goroutine.
func (p *Pool) ForEach(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	w := p.Workers()
	if w > n {
		w = n
	}
	if w > 1 && runtime.GOMAXPROCS(0) == 1 {
		w = 1
	}
	if p != nil {
		p.loops.Add(1)
		p.pending.Add(int64(n))
	}
	var done atomic.Int64
	// Reconcile the pending gauge for items never executed (an early exit
	// via panic); on a normal completion this adjusts by zero.
	defer func() {
		if p != nil {
			p.pending.Add(done.Load() - int64(n))
		}
	}()
	if w == 1 {
		for i := 0; i < n; i++ {
			fn(i)
			done.Add(1)
			p.noteItemDone()
		}
		return
	}
	var next atomic.Int64
	next.Store(-1)
	var fp firstPanic
	var wg sync.WaitGroup
	body := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				fp.record(i, r)
			}
		}()
		fn(i)
	}
	work := func() {
		for {
			i := int(next.Add(1))
			if i >= n {
				return
			}
			body(i)
			done.Add(1)
			p.noteItemDone()
		}
	}
	// The caller is one of the w workers: it starts on the items at once
	// instead of parking until a freshly woken thread has done them, so a
	// loop too short to amortize that wake-up degrades toward the plain
	// loop, not below it.
	for g := 1; g < w; g++ {
		wg.Add(1)
		p.spawned.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	fp.rethrow()
}

// ChunkSize returns the fixed chunk width of the grid over n items. It
// depends only on n — never on the worker count — so the chunk grid (and
// therefore any per-chunk floating-point association) is identical for
// every pool.
func ChunkSize(n int) int {
	// Aim for a fixed ~32-way grid: fine enough to balance 8–16 workers,
	// coarse enough that dispatch cost stays negligible.
	c := (n + 31) / 32
	if c < 1 {
		c = 1
	}
	return c
}

// NumChunks reports how many chunks the fixed grid splits n items into.
func NumChunks(n int) int {
	if n <= 0 {
		return 0
	}
	c := ChunkSize(n)
	return (n + c - 1) / c
}

// Chunk returns the half-open index range [lo, hi) of chunk ci in the
// fixed grid over [0, n): a chunked loop is ForEach(NumChunks(n), …) with
// each item recovering its bounds here.
func Chunk(n, ci int) (lo, hi int) {
	c := ChunkSize(n)
	lo = ci * c
	hi = lo + c
	if hi > n {
		hi = n
	}
	return lo, hi
}

// ShardRanges splits [0, n) into at most shards contiguous half-open
// ranges [lo, hi), balanced to within one item. The grid is a pure
// function of (n, shards) — never of the worker count — and ranges are
// returned in ascending index order, so shard-structured loops that
// process each range serially and write index-owned slots inherit the
// package determinism contract. shards < 1 is treated as 1; shards > n
// is clamped to n (every returned range is non-empty). n <= 0 returns nil.
func ShardRanges(n, shards int) [][2]int {
	if n <= 0 {
		return nil
	}
	if shards < 1 {
		shards = 1
	}
	if shards > n {
		shards = n
	}
	out := make([][2]int, shards)
	for s := 0; s < shards; s++ {
		out[s] = [2]int{s * n / shards, (s + 1) * n / shards}
	}
	return out
}
