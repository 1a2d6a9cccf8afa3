// Package eval drives the paper's evaluation: failure-scenario
// enumeration and sampling, the R3 plan wrapped as a protection scheme,
// and the engine computing bottleneck traffic intensity and performance
// ratio (bottleneck ÷ optimal flow-based routing's bottleneck) per
// scenario — the two metrics every figure in §5 is built from.
package eval

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/protect"
	"repro/internal/traffic"
)

// R3Scheme adapts a precomputed R3 plan to the protect.Scheme interface:
// for each failure scenario it replays online reconfiguration from the
// plan and reports the resulting loads.
type R3Scheme struct {
	// Label names the scheme in output (e.g. "MPLS-ff+R3", "OSPF+R3").
	Label string
	Plan  *core.Plan
}

// Name implements protect.Scheme.
func (s *R3Scheme) Name() string { return s.Label }

// Loads implements protect.Scheme.
func (s *R3Scheme) Loads(failed graph.LinkSet, d *traffic.Matrix) ([]float64, float64) {
	st := core.NewState(s.Plan)
	st.SetDemands(d.At)
	for _, e := range failed.IDs() {
		if err := st.Fail(e); err != nil {
			panic(fmt.Sprintf("eval: %v", err))
		}
	}
	return st.Loads(), st.LostDemand()
}

// ScenarioScheme is a Scheme that can replay full scenarios — surges and
// partial capacity degradations, not just hard failures. The engine
// detects it and hands such schemes the whole scenario (with the base,
// unsurged matrix; the scheme applies the surge itself).
type ScenarioScheme interface {
	protect.Scheme
	ScenarioLoads(sc core.Scenario, d *traffic.Matrix) ([]float64, float64)
}

// ScenarioLoads implements ScenarioScheme: online reconfiguration replays
// the surge, then the failures, then the degradations.
func (s *R3Scheme) ScenarioLoads(sc core.Scenario, d *traffic.Matrix) ([]float64, float64) {
	st := core.NewState(s.Plan)
	st.SetDemands(d.At)
	if err := st.ApplyScenario(sc); err != nil {
		panic(fmt.Sprintf("eval: %v", err))
	}
	return st.Loads(), st.LostDemand()
}

// SingleLinks enumerates every single-link failure scenario.
func SingleLinks(g *graph.Graph) []graph.LinkSet {
	out := make([]graph.LinkSet, g.NumLinks())
	for e := 0; e < g.NumLinks(); e++ {
		out[e] = graph.NewLinkSet(graph.LinkID(e))
	}
	return out
}

// SingleEvents enumerates single failure events: one scenario per SRLG
// and per MLG registered on the graph (the paper's single-failure-event
// model for US-ISP). Graphs without groups fall back to duplex link
// pairs: a fiber cut takes both directions.
func SingleEvents(g *graph.Graph) []graph.LinkSet {
	var out []graph.LinkSet
	for _, grp := range g.SRLGs() {
		out = append(out, graph.NewLinkSet(grp...))
	}
	for _, grp := range g.MLGs() {
		out = append(out, graph.NewLinkSet(grp...))
	}
	if out == nil {
		out = DuplexPairs(g)
	}
	return out
}

// DuplexPairs enumerates one scenario per bidirectional link: both
// directions fail together, as in a fiber cut.
func DuplexPairs(g *graph.Graph) []graph.LinkSet {
	var out []graph.LinkSet
	seen := make([]bool, g.NumLinks())
	for _, l := range g.Links() {
		if seen[l.ID] {
			continue
		}
		seen[l.ID] = true
		if l.Reverse >= 0 {
			seen[l.Reverse] = true
			out = append(out, graph.NewLinkSet(l.ID, l.Reverse))
		} else {
			out = append(out, graph.NewLinkSet(l.ID))
		}
	}
	return out
}

// AllPairs enumerates every unordered pair of base events (the paper's
// "all two-link failures").
func AllPairs(events []graph.LinkSet) []graph.LinkSet {
	var out []graph.LinkSet
	for i := 0; i < len(events); i++ {
		for j := i + 1; j < len(events); j++ {
			out = append(out, events[i].Union(events[j]))
		}
	}
	return out
}

// Sample draws n distinct random unions of k base events, seeded for
// reproducibility (the paper samples ~1100 three- and four-link
// scenarios). Each attempt draws its k distinct indices directly with
// Floyd's algorithm — O(k) random numbers instead of the full O(|events|)
// permutation a Perm-and-truncate draw would cost per attempt. The
// sequence for a given seed differs from the pre-Floyd implementation
// (fewer RNG draws per attempt); any fixed seed remains reproducible.
func Sample(events []graph.LinkSet, k, n int, seed int64) []graph.LinkSet {
	if k <= 0 || k > len(events) {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[string]bool)
	var out []graph.LinkSet
	idx := make([]int, 0, k)
	for attempts := 0; len(out) < n && attempts < 50*n; attempts++ {
		// Floyd's uniform k-subset sample over [0, len(events)).
		idx = idx[:0]
		contains := func(v int) bool {
			for _, x := range idx {
				if x == v {
					return true
				}
			}
			return false
		}
		for j := len(events) - k; j < len(events); j++ {
			if t := rng.Intn(j + 1); contains(t) {
				idx = append(idx, j)
			} else {
				idx = append(idx, t)
			}
		}
		sort.Ints(idx)
		key := fmt.Sprint(idx)
		if seen[key] {
			continue
		}
		seen[key] = true
		s := events[idx[0]]
		for _, i := range idx[1:] {
			s = s.Union(events[i])
		}
		out = append(out, s)
	}
	return out
}

// FilterConnected drops scenarios that disconnect the network. The
// paper's congestion metrics exclude demand lost to partitions (Theorem 1
// is stated modulo reachability); performance ratios on partitioned
// topologies measure partition artifacts rather than protection quality,
// so the multi-failure figures evaluate connectivity-preserving scenarios.
func FilterConnected(g *graph.Graph, scenarios []graph.LinkSet) []graph.LinkSet {
	var out []graph.LinkSet
	for _, sc := range scenarios {
		if g.Connected(&sc) {
			out = append(out, sc)
		}
	}
	return out
}

// Result is the evaluation of one scenario.
type Result struct {
	// Kind labels the scenario class ("failure", "degradation", "surge",
	// "node") so mixed sweeps stay attributable per row.
	Kind string
	// Bottleneck is the bottleneck traffic intensity per scheme name.
	Bottleneck map[string]float64
	// Lost is the dropped demand per scheme name.
	Lost map[string]float64
	// Optimal is the optimal flow-based routing's bottleneck for the
	// scenario (the performance-ratio denominator).
	Optimal float64
}

// Ratio returns scheme's performance ratio for this scenario. Ratios are
// clamped below at 1 (the optimal is a lower bound; the approximate
// solver can land a scheme marginally under it). A zero optimal with a
// positive scheme bottleneck returns +Inf: the scheme congests a
// scenario that optimal routing carries load-free, and the old answer of
// 1 silently masked that. Zero over zero is 1 (both idle). SortedRatios
// sorts +Inf last, so CDF-style figures surface such scenarios at the
// tail instead of hiding them at the origin.
func (r *Result) Ratio(scheme string) float64 {
	b := r.Bottleneck[scheme]
	if r.Optimal == 0 {
		if b > 0 {
			return math.Inf(1)
		}
		return 1
	}
	ratio := b / r.Optimal
	if ratio < 1 {
		return 1
	}
	return ratio
}

// Engine evaluates schemes over scenarios on a fixed topology.
type Engine struct {
	G *graph.Graph
	// Schemes are evaluated on every scenario. Scheme implementations in
	// internal/protect and R3Scheme are safe for the engine's concurrent
	// use.
	Schemes []protect.Scheme
	// OptimalIterations is the solver effort for the per-scenario optimal
	// baseline (default 200).
	OptimalIterations int
	// Workers bounds evaluation concurrency (default GOMAXPROCS).
	Workers int
	// Shards partitions the scenario list into contiguous index-ordered
	// shards (par.ShardRanges): shards are evaluated concurrently, while
	// scenarios within a shard run serially in index order on one worker,
	// each shard owning a private optimal-baseline instance, and results
	// stay byte-identical at every shard and worker count. 0 selects
	// min(32, ceil(scenarios/8)); values are clamped to the scenario count.
	// 1 evaluates everything on a single serial chain.
	Shards int
	// Obs, when non-nil, receives evaluation metrics: the per-scenario
	// latency histogram "eval.scenario_us", the running "eval.scenarios"
	// count, "eval.scenarios_per_sec" over the last Evaluate call, the
	// running "eval.shards" count of shards executed, and
	// "eval.bottleneck_links" tallying how often each link is the
	// bottleneck across scheme evaluations. Nil disables all of it.
	Obs *obs.Registry
}

// resolveShards maps the Shards knob to a concrete shard count for n
// scenarios. The auto policy targets ~8 scenarios per shard, capped at 32
// shards: enough shards to keep a 16-worker pool fed, few enough that the
// per-shard optimal-baseline seed solve stays amortized.
func (en *Engine) resolveShards(n int) int {
	if en.Shards > 0 {
		return en.Shards
	}
	s := (n + 7) / 8
	if s > 32 {
		s = 32
	}
	return s
}

// bottleneckLink returns the index of the most-utilized alive link, or -1
// when every link is failed or idle. It mirrors protect.Bottleneck's
// utilization convention (including degraded effective capacities) so the
// tally names the link behind that metric.
func bottleneckLink(g *graph.Graph, failed graph.LinkSet, capScale []float64, loads []float64) int {
	best, worst := -1, 0.0
	for e, l := range loads {
		if failed.Contains(graph.LinkID(e)) {
			continue
		}
		c := g.Link(graph.LinkID(e)).Capacity
		if capScale != nil {
			c *= capScale[e]
		}
		if u := l / c; u > worst {
			worst, best = u, e
		}
	}
	return best
}

// Evaluate runs every scheme on every scenario for the given demand.
// The scenario list is partitioned into contiguous shards (see Shards);
// shards are independent and evaluated concurrently on the shared
// internal/par pool substrate, scenarios within a shard serially in index
// order. Every result lands in its scenario's slot, so the output order
// (and content) is independent of scheduling, shard count, and worker
// count.
func (en *Engine) Evaluate(d *traffic.Matrix, scenarios []graph.LinkSet) []Result {
	return en.EvaluateScenarios(d, FailureScenarios(scenarios))
}

// FailureScenarios wraps bare hard-failure sets as core.Scenario values —
// the adapter between the classic enumerators above and the generalized
// engine entry point.
func FailureScenarios(sets []graph.LinkSet) []core.Scenario {
	out := make([]core.Scenario, len(sets))
	for i, s := range sets {
		out[i] = core.FailureScenario(s)
	}
	return out
}

// EvaluateScenarios is Evaluate over generalized scenarios: hard failures,
// partial capacity degradations, demand surges and node outages. Schemes
// implementing ScenarioScheme (R3's online reconfiguration) replay the
// full scenario; the others reroute around the hard failures under the
// surged demand but cannot react to capacity degradation — every scheme
// is then judged against the scenario's effective (degraded) capacities,
// as is the optimal denominator. Pure-failure scenarios take exactly the
// classic code paths, so Evaluate's results are unchanged.
func (en *Engine) EvaluateScenarios(d *traffic.Matrix, scenarios []core.Scenario) []Result {
	ranges := par.ShardRanges(len(scenarios), en.resolveShards(len(scenarios)))
	opts := make([]*protect.Optimal, len(ranges))
	for si := range opts {
		opts[si] = &protect.Optimal{G: en.G, Iterations: en.OptimalIterations}
	}
	results := make([]Result, len(scenarios))

	// Metric handles from a nil registry are nil and every operation on
	// them is a no-op, so the loop below records unconditionally. The
	// handle types are concurrency-safe (atomics / striped locks), so the
	// pool workers share them directly.
	g := en.G
	scenarioUS := en.Obs.Histogram("eval.scenario_us", obs.ExpBounds(10, 2, 22))
	scenarioCt := en.Obs.Counter("eval.scenarios")
	rate := en.Obs.FloatGauge("eval.scenarios_per_sec")
	bottle := en.Obs.Vec("eval.bottleneck_links", g.NumLinks(), func(e int) string {
		l := g.Link(graph.LinkID(e))
		return g.Node(l.Src) + "->" + g.Node(l.Dst)
	})
	live := en.Obs != nil
	evalStart := time.Now()
	en.Obs.Counter("eval.shards").Add(int64(len(ranges)))

	pool := par.New(en.Workers)
	// Warm lazily initialized scheme caches serially so the concurrent
	// shards only read them. (A single shard is already serial.)
	if len(ranges) > 1 && pool.Workers() > 1 {
		for _, s := range en.Schemes {
			s.Loads(scenarios[0].Failed, d)
		}
	}

	pool.ForEach(len(ranges), func(si int) {
		opt := opts[si]
		for i := ranges[si][0]; i < ranges[si][1]; i++ {
			start := time.Now()
			sc := scenarios[i]
			res := Result{
				Kind:       string(sc.EffectiveKind()),
				Bottleneck: make(map[string]float64, len(en.Schemes)),
				Lost:       make(map[string]float64, len(en.Schemes)),
			}
			// nil for pure failures, so those stay on the classic
			// (bit-identical) arithmetic.
			capScale := sc.CapScale(en.G.NumLinks())
			dEff := sc.SurgeDemand(d)
			ol, _ := opt.ScenarioLoads(sc.Failed, capScale, dEff)
			res.Optimal = protect.BottleneckScaled(en.G, sc.Failed, capScale, ol)
			for _, s := range en.Schemes {
				var loads []float64
				var lost float64
				if ss, ok := s.(ScenarioScheme); ok {
					// The scheme replays the full scenario itself, from the
					// base (unsurged) matrix.
					loads, lost = ss.ScenarioLoads(sc, d)
				} else {
					loads, lost = s.Loads(sc.Failed, dEff)
				}
				res.Bottleneck[s.Name()] = protect.BottleneckScaled(en.G, sc.Failed, capScale, loads)
				res.Lost[s.Name()] = lost
				if live {
					if e := bottleneckLink(g, sc.Failed, capScale, loads); e >= 0 {
						bottle.Add(e, 1)
					}
				}
			}
			results[i] = res
			scenarioUS.Observe(time.Since(start).Microseconds())
			scenarioCt.Inc()
		}
	})
	if live && len(scenarios) > 0 {
		if secs := time.Since(evalStart).Seconds(); secs > 0 {
			rate.Set(float64(len(scenarios)) / secs)
		}
	}
	return results
}

// WorstCase returns, for each scheme, the maximum bottleneck across the
// results (the paper's "worst case performance upon all possible single
// failure events" per interval).
func WorstCase(results []Result) map[string]float64 {
	worst := make(map[string]float64)
	for _, r := range results {
		for name, b := range r.Bottleneck {
			if b > worst[name] {
				worst[name] = b
			}
		}
	}
	return worst
}

// SortedRatios returns the performance ratios of one scheme across the
// results, ascending — the x-axis ordering used by Figures 4–7.
func SortedRatios(results []Result, scheme string) []float64 {
	out := make([]float64, len(results))
	for i := range results {
		out[i] = results[i].Ratio(scheme)
	}
	sort.Float64s(out)
	return out
}

// ClassBottlenecks evaluates per-class bottleneck intensity for
// prioritized R3 (Figure 8): the class's own traffic is routed with the
// reconfigured base routing and measured alone on each link.
func ClassBottlenecks(plan *core.Plan, classes map[traffic.Class]*traffic.Matrix, failed graph.LinkSet) map[traffic.Class]float64 {
	out := make(map[traffic.Class]float64, len(classes))
	for cls, d := range classes {
		st := core.NewState(plan)
		st.SetDemands(d.At)
		for _, e := range failed.IDs() {
			if err := st.Fail(e); err != nil {
				panic(fmt.Sprintf("eval: %v", err))
			}
		}
		out[cls] = protect.Bottleneck(plan.G, failed, st.Loads())
	}
	return out
}
