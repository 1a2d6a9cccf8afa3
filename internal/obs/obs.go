// Package obs is the repo's stdlib-only observability substrate: atomic
// counters and gauges, lock-striped histograms over fixed bucket grids, a
// span/trace recorder with monotonic timestamps, and a Registry that
// snapshots everything to JSON and text (plus a debug HTTP surface with
// pprof in http.go).
//
// Nil-safety contract. Every metric handle (*Counter, *Gauge, *FloatGauge,
// *Vec, *Histogram, *Trace, Span) is a valid no-op when nil (or, for Span,
// when its zero value): a nil *Registry hands out nil handles, so
// instrumented code calls Add/Observe/Set unconditionally and the
// uninstrumented configuration costs nothing — no branches beyond the nil
// check, and zero allocations (verified by alloc_test.go). Observability
// must never perturb results: handles only ever read solver state, so a
// plan computed with a live registry is byte-identical to one computed
// with none (verified by internal/core's obs determinism test).
package obs

import (
	"math"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use; a nil *Counter is a no-op.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value reads the counter (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic int64 gauge. A nil *Gauge is a no-op.
type Gauge struct {
	v atomic.Int64
}

// Set stores n.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Value reads the gauge (0 for nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// FloatGauge is an atomic float64 gauge (stored as bits). A nil
// *FloatGauge is a no-op.
type FloatGauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *FloatGauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value reads the gauge (0 for nil).
func (g *FloatGauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Vec is a fixed-size vector of atomic counters, used for per-index
// tallies (per-link bottleneck counts, per-node drops). Out-of-range
// indices and a nil *Vec are no-ops.
type Vec struct {
	vals  []atomic.Int64
	label func(int) string // optional, used at snapshot time
}

// Add increments slot i by n.
func (v *Vec) Add(i int, n int64) {
	if v == nil || i < 0 || i >= len(v.vals) {
		return
	}
	v.vals[i].Add(n)
}

// Value reads slot i (0 when nil or out of range).
func (v *Vec) Value(i int) int64 {
	if v == nil || i < 0 || i >= len(v.vals) {
		return 0
	}
	return v.vals[i].Load()
}

// Len reports the vector size (0 for nil).
func (v *Vec) Len() int {
	if v == nil {
		return 0
	}
	return len(v.vals)
}

// histStripes is the fixed stripe count. Stripes spread concurrent
// Observe calls over independent mutexes; the count is a power of two so
// stripe selection is a mask.
const histStripes = 8

// Histogram counts int64 observations against a fixed, immutable bucket
// grid. It is lock-striped: each stripe guards its own bucket counts and
// running sum/min/max with a plain mutex, and an observation picks its
// stripe by hashing the observed value — allocation-free and uncontended
// unless many workers observe simultaneously. Snapshot merges the stripes.
// A nil *Histogram is a no-op.
type Histogram struct {
	// bounds are ascending inclusive upper bounds; values above the last
	// bound land in an implicit +Inf overflow bucket.
	bounds  []int64
	stripes [histStripes]histStripe
}

type histStripe struct {
	mu     sync.Mutex
	counts []int64 // len(bounds)+1
	count  int64
	sum    int64
	min    int64
	max    int64
}

// newHistogram builds a histogram over the given ascending bounds.
func newHistogram(bounds []int64) *Histogram {
	cp := append([]int64(nil), bounds...)
	h := &Histogram{bounds: cp}
	for i := range h.stripes {
		h.stripes[i].counts = make([]int64, len(cp)+1)
		h.stripes[i].min = math.MaxInt64
		h.stripes[i].max = math.MinInt64
	}
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	// Fibonacci-style hash of the value picks the stripe: identical values
	// share a stripe, but the grids we observe (latencies in µs) vary
	// enough that contention stays low without per-goroutine state.
	s := &h.stripes[uint64(v)*0x9E3779B97F4A7C15>>59&(histStripes-1)]
	// Binary search the bucket; grids are small (≤ ~40 buckets), so this
	// stays a handful of branches.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= h.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	s.mu.Lock()
	s.counts[lo]++
	s.count++
	s.sum += v
	if v < s.min {
		s.min = v
	}
	if v > s.max {
		s.max = v
	}
	s.mu.Unlock()
}

// HistogramSnapshot is a merged view of a histogram.
type HistogramSnapshot struct {
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
	Min   int64 `json:"min"`
	Max   int64 `json:"max"`
	// Buckets[i] counts observations with value <= Bounds[i]; the final
	// extra entry is the +Inf overflow bucket.
	Bounds  []int64 `json:"bounds"`
	Buckets []int64 `json:"buckets"`
}

// Snapshot merges the stripes into one view. Nil returns a zero snapshot.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	snap := HistogramSnapshot{
		Min:     math.MaxInt64,
		Max:     math.MinInt64,
		Bounds:  append([]int64(nil), h.bounds...),
		Buckets: make([]int64, len(h.bounds)+1),
	}
	for i := range h.stripes {
		s := &h.stripes[i]
		s.mu.Lock()
		for j, c := range s.counts {
			snap.Buckets[j] += c
		}
		snap.Count += s.count
		snap.Sum += s.sum
		if s.min < snap.Min {
			snap.Min = s.min
		}
		if s.max > snap.Max {
			snap.Max = s.max
		}
		s.mu.Unlock()
	}
	if snap.Count == 0 {
		snap.Min, snap.Max = 0, 0
	}
	return snap
}

// Mean returns the average observed value (0 when empty).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// ExpBounds builds an exponential bucket grid: n bounds starting at start,
// each factor× the previous (rounded up to stay strictly increasing).
// Suitable for latency grids, e.g. ExpBounds(10, 2, 20) spans 10 µs to
// ~5 s.
func ExpBounds(start int64, factor float64, n int) []int64 {
	if start < 1 {
		start = 1
	}
	if factor <= 1 {
		factor = 2
	}
	bounds := make([]int64, 0, n)
	v := float64(start)
	prev := int64(0)
	for i := 0; i < n; i++ {
		b := int64(v)
		if b <= prev {
			b = prev + 1
		}
		bounds = append(bounds, b)
		prev = b
		v *= factor
	}
	return bounds
}

// LinearBounds builds n bounds start, start+step, ….
func LinearBounds(start, step int64, n int) []int64 {
	if step < 1 {
		step = 1
	}
	bounds := make([]int64, n)
	for i := range bounds {
		bounds[i] = start + int64(i)*step
	}
	return bounds
}
