package main

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/graph"
	"repro/internal/traffic"
)

// refSeconds is the measuring time the reference op counts are sized for;
// BENCHMARK.json's run_seconds equals it.
const refSeconds = 24

// count is a fixed op count: ref at -seconds refSeconds, scaled linearly
// with -seconds but never below floor; quick is the smoke-test size.
type count struct{ ref, floor, quick int }

// run carries one workload execution: its sizes, the tracer (nil unless
// -trace 1), and everything the workload reports.
type run struct {
	o  options
	tr *tracer

	m      map[string]float64
	exact  map[string]string
	detail map[string]any

	attempted, failed int
	failures          []string
}

func newRun(o options) *run {
	r := &run{o: o, m: map[string]float64{}, exact: map[string]string{}, detail: map[string]any{}}
	if o.trace {
		r.tr = newTracer()
	}
	return r
}

// n resolves a count for this run. The result depends only on the flags,
// so two commits run at the same -seconds do identical work.
func (r *run) n(c count) int {
	if r.o.quick {
		return c.quick
	}
	n := int(math.Round(float64(c.ref) * float64(r.o.seconds) / refSeconds))
	if n < c.floor {
		n = c.floor
	}
	return n
}

// abort ends a workload that cannot go on (its warm-up failed); execute
// turns it into an error and a non-zero exit without a result line.
type abort struct{ err error }

// check records one attempted operation or output check and whether it
// held. Any failure makes the run incorrect and the exit code non-zero.
func (r *run) check(ok bool, format string, args ...any) bool {
	r.attempted++
	if !ok {
		r.fail(format, args...)
	}
	return ok
}

// batch records n operations of which bad failed.
func (r *run) batch(n, bad int, what string) {
	r.attempted += n
	if bad > 0 {
		r.failed += bad - 1
		r.fail("%d of %d %s failed", bad, n, what)
	}
}

func (r *run) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// result assembles the driver's line from the metric table: every
// end-to-end metric must have been set; a per-layer metric the workload
// did not touch reads 0 (the layer idled, or its probe belongs to another
// workload's traced run). A value outside the table is a harness bug.
func (r *run) result(defs []metricDef, zeroFill bool) (result, error) {
	res := result{Attempted: r.attempted, Metrics: map[string]metric{}}
	known := map[string]bool{}
	for _, d := range defs {
		known[d.name] = true
		v, ok := r.m[d.name]
		if !ok && !zeroFill {
			return res, fmt.Errorf("workload %s did not report %s", r.o.workload, d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.fail("%s is %v", d.name, v)
			v = 0
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	for name := range r.m {
		if !known[name] {
			return res, fmt.Errorf("workload %s reported undeclared metric %s", r.o.workload, name)
		}
	}
	if res.Attempted < 1 {
		return res, fmt.Errorf("workload %s attempted nothing", r.o.workload)
	}
	res.Failed = r.failed
	res.Correct = r.failed == 0
	return res, nil
}

// ---------------------------------------------------------------------
// Timing.
// ---------------------------------------------------------------------

// sample is one timed operation.
type sample struct {
	ms      float64
	allocMB float64
}

// timeOp times fn once. The collection runs before the clock starts, so
// an op never pays for its predecessor's garbage.
func timeOp(fn func()) sample {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return sample{
		ms:      float64(d.Nanoseconds()) / 1e6,
		allocMB: float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6,
	}
}

func msOf(s []sample) []float64 {
	out := make([]float64, len(s))
	for i := range s {
		out[i] = s[i].ms
	}
	return out
}

// reportWait sets wait_ms and alloc_mb from the timed wait ops. Identical
// reps report the median time and the smallest allocation: a sync.Pool
// emptied by a collection makes an op allocate whole buffers again (the
// plan encoder's 33.6 MB on generated-100) and never fewer, so the minimum
// is what the code needs and repeats exactly. Ops that differ by design
// (the daemon's updates) report means over the fixed sequence.
func (r *run) reportWait(s []sample, identical bool) {
	ms := msOf(s)
	mb := make([]float64, len(s))
	for i := range s {
		mb[i] = s[i].allocMB
	}
	if identical {
		r.m["wait_ms"] = median(ms)
		r.m["alloc_mb"] = slices.Min(mb)
	} else {
		r.m["wait_ms"] = mean(ms)
		r.m["alloc_mb"] = mean(mb)
	}
	r.detail["wait_ms"] = spread(ms)
}

// reportOverhead sets obs.trace_overhead_pct: the traced wait ops against
// the same ops untraced in the same process, compared at their median
// (identical reps) or mean (the daemon's sequence).
func (r *run) reportOverhead(plain, traced []sample, center func([]float64) float64) {
	p, t := center(msOf(plain)), center(msOf(traced))
	r.m["obs.trace_overhead_pct"] = 100 * (t - p) / p
	r.detail["untraced wait_ms"] = spread(msOf(plain))
	r.detail["traced wait_ms"] = spread(msOf(traced))
}

func mean(v []float64) float64 {
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// spread describes a sample for the report: count, quartiles, extremes.
func spread(v []float64) string {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) < 4 {
		return fmt.Sprintf("n=%d values=%.4g", len(s), s)
	}
	q1, q2, q3 := quartiles(s)
	return fmt.Sprintf("n=%d min=%.4g q1=%.4g median=%.4g q3=%.4g max=%.4g", len(s), s[0], q1, q2, q3, s[len(s)-1])
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns what Python's statistics.quantiles(v, n=4) returns
// (the exclusive method), since that is what the driver computes. len(v)
// must be at least 2.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	ld := len(s)
	q := func(i int) float64 {
		j := i * (ld + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*(ld+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// percentile returns the p-th percentile (nearest rank) of v.
func percentile(v []float64, p float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

// serveChunks is how many equal sub-batches a serve batch is timed in.
const serveChunks = 15

// batchUS runs fn(0..n-1) as serveChunks sub-batches, each timed as a
// whole, and returns the median sub-batch's microseconds per op with the
// spread across sub-batches. The reference machine's interference comes in
// bursts of 0.3-1 s that add 20-35 %; one total over a 3 s batch absorbs
// them, the median of 0.2 s sub-batches does not. Each sub-batch is still a
// total over a fixed count, never a per-call timing.
func batchUS(n int, fn func(i int)) (float64, string) {
	k := min(serveChunks, n)
	us := make([]float64, k)
	for c := 0; c < k; c++ {
		lo, hi := c*n/k, (c+1)*n/k
		t0 := time.Now()
		for i := lo; i < hi; i++ {
			fn(i)
		}
		us[c] = float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(hi-lo)
	}
	return median(us), spread(us)
}

// perOpUS times a batch of n calls and returns microseconds per call.
// Microsecond-scale work is never timed call by call: that measures the
// clock and the scheduler (bench/README.md, "noise history").
func perOpUS(n int, fn func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(n)
}

// ---------------------------------------------------------------------
// Inputs.
// ---------------------------------------------------------------------

// demand is a workload's traffic matrix: gravity at 15 % of capacity,
// drawn from -matrix-seed and not from -seed. R3's planners are chaotic in
// their input: a relative perturbation of 1e-7 per demand moved
// generated-100's alloc_mb by 7 % and its mlu by 0.4 %, one of 0.2 % moved
// SBC's degradation mlu by 1 %, and a fresh gravity draw moved it by 15 %
// and generated-100's planning time by 22 % — all beyond the bounds the
// driver holds the spread over ten seeds to. So -seed draws what averages
// out (bench/README.md lists it per workload), and a second matrix is a
// deliberate act: -matrix-seed.
func demand(g *graph.Graph, matrixSeed int64) *traffic.Matrix {
	return traffic.Gravity(g, 0.15*g.TotalCapacity(), matrixSeed)
}

// shuffled returns v in an order drawn from seed.
func shuffled[T any](v []T, seed int64) []T {
	out := append([]T(nil), v...)
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// ---------------------------------------------------------------------
// Machine stamp.
// ---------------------------------------------------------------------

type machine struct {
	NProc        int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	GoVersion    string  `json:"go_version"`
	Commit       string  `json:"commit"`
	Load1Start   float64 `json:"load1_start"`
	Load1End     float64 `json:"load1_end"`
	CalibStartMS float64 `json:"calib_start_ms"`
	CalibEndMS   float64 `json:"calib_end_ms"`
	CalibMS      float64 `json:"calib_ms"`
	Warning      string  `json:"warning,omitempty"`
}

func stampStart(quick bool) machine {
	m := machine{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		Load1Start: load1(),
	}
	if m.Load1Start > float64(m.NProc)-0.5 {
		m.Warning = fmt.Sprintf("1-minute load %.2f at start leaves less than half a CPU idle of %d; expect noisy times", m.Load1Start, m.NProc)
	}
	m.CalibStartMS = calibrate(quick)
	return m
}

func (m machine) finish(quick bool) machine {
	m.CalibEndMS = calibrate(quick)
	m.CalibMS = (m.CalibStartMS + m.CalibEndMS) / 2
	m.Load1End = load1()
	return m
}

// commit is the VCS revision go stamped into the binary, when it built
// inside a git checkout.
func commit() string {
	rev, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision" && len(s.Value) >= 12:
				rev = s.Value[:12]
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// load1 is the 1-minute load average, or -1 where /proc has none.
func load1() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return -1
	}
	f := strings.Fields(string(b))
	if len(f) == 0 {
		return -1
	}
	v, err := strconv.ParseFloat(f[0], 64)
	if err != nil {
		return -1
	}
	return v
}

// calibrate times a fixed heap-Dijkstra loop of the harness's own (about
// 200 ms on the reference machine). It is a noise sentinel printed beside
// the results, never a normaliser: dividing by it did not tighten the
// spread (8.4 % calibrated against 7 % raw, ISSUE 13).
func calibrate(quick bool) float64 {
	const n, deg = 20000, 4
	rounds := 22
	if quick {
		rounds = 1
	}
	rng := rand.New(rand.NewSource(7))
	head := make([]int32, n*deg)
	cost := make([]float64, n*deg)
	for i := range head {
		head[i] = int32(rng.Intn(n))
		cost[i] = 1 + rng.Float64()
	}
	dist := make([]float64, n)
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		for i := range dist {
			dist[i] = math.Inf(1)
		}
		src := int32(r)
		dist[src] = 0
		h := &calibHeap{{src, 0}}
		for h.Len() > 0 {
			it := heap.Pop(h).(calibItem)
			if it.d > dist[it.v] {
				continue
			}
			for k := 0; k < deg; k++ {
				e := int(it.v)*deg + k
				if nd := it.d + cost[e]; nd < dist[head[e]] {
					dist[head[e]] = nd
					heap.Push(h, calibItem{head[e], nd})
				}
			}
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / 1e6
}

type calibItem struct {
	v int32
	d float64
}

type calibHeap []calibItem

func (h calibHeap) Len() int           { return len(h) }
func (h calibHeap) Less(i, j int) bool { return h[i].d < h[j].d }
func (h calibHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *calibHeap) Push(x any)        { *h = append(*h, x.(calibItem)) }
func (h *calibHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}
