// Frank–Wolfe hot-path benchmarks (DESIGN.md §9): the flat SPF kernel,
// the partial-selection worst-load evaluation, a full Precompute with
// allocation accounting, and a summary benchmark that times the serial
// solver on the 100-node generated topology against the committed
// BENCH_parallel.json baseline and writes BENCH_fw.json. Run via
// `make bench-fw`; CI runs each once (-benchtime=1x) as a smoke check.
package repro_test

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/spf"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// BenchmarkSPF measures the allocation-free kernel on the generated
// topology (100 nodes, 460 links) with a warm scratch: reverse Dijkstra
// plus path extraction, the solver's per-oracle-call shape. The
// acceptance bar is 0 allocs/op.
func BenchmarkSPF(b *testing.B) {
	g := topo.Generated()
	c := g.CSR()
	nL := g.NumLinks()
	cost := make([]float64, nL)
	for e := 0; e < nL; e++ {
		cost[e] = g.Link(graph.LinkID(e)).Weight
	}
	var down graph.LinkSet
	down.Add(3)
	var s spf.Scratch
	spf.SPFTo(c, 0, cost, &down, &s) // warm
	buf := make([]graph.LinkID, 0, c.N)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst := graph.NodeID(i % c.N)
		spf.SPFTo(c, dst, cost, &down, &s)
		src := graph.NodeID((i + 1) % c.N)
		buf = spf.PathFromNext(c, src, s.Next, buf[:0])
	}
}

// BenchmarkWorstLoad measures the inner-maximization evaluation over a
// generated-topology-sized column for small F (insertion buffer), large
// F (quickselect partial selection) and degradation envelopes (the
// knapsack walk over the same kind of insertion buffer).
func BenchmarkWorstLoad(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	v := make([]float64, 460)
	for i := range v {
		v[i] = rng.Float64() * 100
	}
	run := func(name string, m core.FailureModel) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var sink float64
			for i := 0; i < b.N; i++ {
				sink += m.WorstLoad(v)
			}
			_ = sink
		})
	}
	for _, f := range []int{1, 2, 4, 40} {
		run(fmt.Sprintf("F%d", f), core.ArbitraryFailures{F: f})
	}
	// Degradation envelopes: a 4-step and a 20-step knapsack walk, both on
	// the allocation-free insertion buffer (0 allocs/op).
	run("degrade-b0.5-B2", core.DegradationModel{Beta: 0.5, Budget: 2})
	run("degrade-b0.1-B2", core.DegradationModel{Beta: 0.1, Budget: 2})
}

// BenchmarkPrecompute runs the full solver on SBC at a scale CI can
// afford once per run, with allocation accounting: the arena refactor
// shows up as a near-flat allocs/op count regardless of iteration count.
func BenchmarkPrecompute(b *testing.B) {
	g := topo.SBC()
	d := traffic.Gravity(g, 0.1*g.TotalCapacity(), 35)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Precompute(g, d, core.Config{
			Model: core.ArbitraryFailures{F: 1}, Iterations: 20, Workers: 1,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFWSummary times the serial Precompute on the generated
// topology — the exact configuration BENCH_parallel.json records — and
// writes BENCH_fw.json comparing against that committed baseline. The
// plan bytes are unchanged by the hot-path work, so the ratio is pure
// single-thread wall-clock.
func BenchmarkFWSummary(b *testing.B) {
	baseline := 0.0
	if raw, err := os.ReadFile("BENCH_parallel.json"); err == nil {
		var prev struct {
			Precompute struct {
				SerialSeconds float64 `json:"serial_seconds"`
			} `json:"precompute"`
		}
		if json.Unmarshal(raw, &prev) == nil {
			baseline = prev.Precompute.SerialSeconds
		}
	}

	g := topo.Generated()
	d := traffic.Gravity(g, 0.15*g.TotalCapacity(), 33)
	for i := 0; i < b.N; i++ {
		start := time.Now()
		if _, err := core.Precompute(g, d, core.Config{
			Model: core.ArbitraryFailures{F: 1}, Iterations: 20, Workers: 1,
		}); err != nil {
			b.Fatal(err)
		}
		after := time.Since(start).Seconds()

		if i != 0 {
			continue
		}
		summary := map[string]any{
			"topology":       g.Name,
			"nodes":          g.NumNodes(),
			"links":          g.NumLinks(),
			"iterations":     20,
			"workers":        1,
			"cpus":           runtime.NumCPU(),
			"gomaxprocs":     runtime.GOMAXPROCS(0),
			"note":           "before = committed BENCH_parallel.json serial baseline (pre flat-kernel hot path); plans are byte-identical before and after",
			"before_seconds": baseline,
			"after_seconds":  after,
		}
		if baseline > 0 {
			summary["speedup"] = baseline / after
			b.ReportMetric(baseline/after, "speedup")
		}
		writeBenchFile(b, "BENCH_fw.json", summary)
		b.Logf("serial precompute %.2fs (baseline %.2fs, %.2fx) on %s", after, baseline, baseline/after, g.Name)
	}
}
