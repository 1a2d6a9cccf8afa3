package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/routing"
	"repro/internal/spf"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// planSpec describes a planning workload: the wait op is the r3plan
// -save -fingerprint path (Precompute, encode, digest), the serve op is
// the online step on the resulting plan (a fresh State, one failure or
// degradation, its MLU).
type planSpec struct {
	graph  func() *graph.Graph
	model  core.FailureModel
	effort int
	reps   count
	serve  count
	// traceServe is the length of the traced run's serve batch, one span
	// per call.
	traceServe count
	// stride serves every stride-th link, starting at seed mod stride.
	stride int
	// degrade makes the serve op Degrade(e, 0.5) instead of Fail(e).
	degrade bool
	// verify audits the plan with Verify(1, 2000), outside the timed
	// regions. Left off where that costs more than the run (460 links at
	// 27 ms each); there the serve ops, which are the same replay, are
	// audited against the plan's bound instead.
	verify bool
}

// protectG100 plans hard-failure protection on the 100-node generated
// topology: the SPF kernel, the top-F worst-load selection and the
// protection sweep do the work; the LP and the generic envelope idle.
func protectG100(r *run) planSpec {
	sp := planSpec{
		graph: topo.Generated, model: core.ArbitraryFailures{F: 1}, effort: 200,
		reps: count{5, 5, 1}, serve: count{115, 80, 6}, traceServe: count{115, 115, 4}, stride: 4,
	}
	if r.o.quick {
		sp.graph, sp.effort = topo.Abilene, 20
	}
	return sp
}

// degradeSBC plans a bounded-degradation envelope on SBC: the same core
// layer, landing on the generic sort-based worst-load path.
func degradeSBC(r *run) planSpec {
	sp := planSpec{
		graph:  topo.SBC,
		model:  core.WorkloadSpec{Alpha: 0.5, Budget: 2}.Model(core.ArbitraryFailures{F: 1}),
		effort: 60,
		reps:   count{9, 5, 1}, serve: count{20000, 14000, 40}, traceServe: count{2000, 2000, 8}, stride: 1,
		degrade: true, verify: true,
	}
	if r.o.quick {
		sp.graph, sp.effort = topo.Abilene, 4
	}
	return sp
}

func (sp planSpec) config(reg *obs.Registry) core.Config {
	// Workers: 1 on every end-to-end op: the pooled paths were slower and
	// four times noisier on the reference machine (bench/README.md).
	return core.Config{Model: sp.model, Iterations: sp.effort, PenaltyEnvelope: 1.1, Workers: 1, Obs: reg}
}

// planOut is what one wait op produced.
type planOut struct {
	plan   *core.Plan
	bytes  []byte
	digest uint64
	err    error
	// Set on traced ops only: what Precompute alone allocated.
	allocMB float64
	gc      uint32
}

// planOp is the timed wait op.
func planOp(tr *tracer, g *graph.Graph, d *traffic.Matrix, cfg core.Config) (o planOut) {
	defer tr.op("wait")()
	var m0, m1 runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&m0)
	}
	tr.do("core.Precompute", func() { o.plan, o.err = core.Precompute(g, d, cfg) })
	if tr != nil {
		runtime.ReadMemStats(&m1)
		o.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
		o.gc = m1.NumGC - m0.NumGC
	}
	if o.err != nil {
		return o
	}
	tr.do("core.EncodeBytes", func() { o.bytes, o.err = o.plan.EncodeBytes() })
	if o.err != nil {
		return o
	}
	tr.do("core.WireFingerprint", func() { o.digest, o.err = o.plan.WireFingerprint() })
	return o
}

// planInputs is what set-up leaves for the timed phases.
type planInputs struct {
	g *graph.Graph
	d *traffic.Matrix
	// ref is the warm-up op: the serve phase uses its plan, and every
	// later rep must reproduce its digest.
	ref planOut
	// links are the links the serve phase fails or degrades, in order.
	links []graph.LinkID
}

// planSetup builds the inputs and runs the warm-up op.
func planSetup(r *run, sp planSpec) planInputs {
	g := sp.graph()
	d := demand(g, r.o.matrixSeed)
	ref := planOp(nil, g, d, sp.config(nil))
	if !r.check(ref.err == nil, "warm-up plan: %v", ref.err) {
		panic(abort{ref.err})
	}
	off := int(((r.o.seed % int64(sp.stride)) + int64(sp.stride)) % int64(sp.stride))
	var links []graph.LinkID
	for e := off; e < g.NumLinks(); e += sp.stride {
		links = append(links, graph.LinkID(e))
	}
	return planInputs{g, d, ref, shuffled(links, r.o.seed)}
}

// waitPlan runs n timed wait ops and holds each to the warm-up's digest.
func waitPlan(r *run, tr *tracer, n int, in planInputs, cfg core.Config) ([]sample, []planOut) {
	g, d, ref := in.g, in.d, in.ref
	samples := make([]sample, n)
	outs := make([]planOut, n)
	for i := range samples {
		samples[i] = timeOp(func() { outs[i] = planOp(tr, g, d, cfg) })
		o := outs[i]
		r.check(o.err == nil && o.digest == ref.digest && o.plan.MLU == ref.plan.MLU,
			"plan rep %d: err=%v digest %016x mlu %v, warm-up had %016x %v", i, o.err, o.digest, mluOf(o.plan), ref.digest, ref.plan.MLU)
	}
	return samples, outs
}

func mluOf(p *core.Plan) float64 {
	if p == nil {
		return math.NaN()
	}
	return p.MLU
}

// servePlan runs n serve ops over links in order and returns microseconds
// per op (see batchUS). Outputs are checked after the clock stops.
func servePlan(r *run, tr *tracer, sp planSpec, plan *core.Plan, links []graph.LinkID, n int) float64 {
	mlus := make([]float64, n)
	bad := 0
	us, chunks := batchUS(n, func(i int) {
		e := links[i%len(links)]
		end := tr.op("serve")
		var st *core.State
		var err error
		tr.do("core.NewState", func() { st = core.NewState(plan) })
		if sp.degrade {
			tr.do("core.State.Degrade", func() { err = st.Degrade(e, 0.5) })
		} else {
			tr.do("core.State.Fail", func() { err = st.Fail(e) })
		}
		if err != nil {
			bad++
			mlus[i] = math.NaN()
		} else {
			tr.do("core.State.MLU", func() { mlus[i] = st.MLU() })
		}
		end()
	})
	r.detail["serve_us"] = fmt.Sprintf("%d ops over %d links; sub-batches %s", n, len(links), chunks)

	// The plan's bound holds for every covered scenario when the plan is
	// congestion-free (Theorem 1); a best-effort plan (MLU > 1) may
	// exceed it, by a count that repeats exactly.
	over := 0
	for i, m := range mlus {
		if math.IsNaN(m) || m <= 0 {
			bad++
		} else if i < len(links) && m > plan.MLU+1e-6 {
			over++
		}
	}
	r.batch(n, bad, "serve ops")
	r.exact["serve.over_bound"] = fmt.Sprint(over)
	r.check(!plan.CongestionFree() || over == 0, "%d served scenarios exceed a congestion-free plan's bound", over)
	return us
}

// verifyPlan audits the plan by enumeration, as r3plan -verify 1 does.
func verifyPlan(r *run, tr *tracer, plan *core.Plan) {
	var rep *core.VerifyReport
	var err error
	tr.do("core.Verify", func() { rep, err = plan.Verify(1, 2000) })
	if !r.check(err == nil, "verify: %v", err) {
		return
	}
	r.exact["verify.violations"] = fmt.Sprintf("%d of %d", rep.Violations, rep.Scenarios)
	r.check(!plan.CongestionFree() || rep.Violations == 0, "verify: %d violations of a congestion-free plan", rep.Violations)
}

func runPlan(r *run, sp planSpec) {
	t0 := time.Now()
	in := planSetup(r, sp)
	ref := in.ref
	r.m["setup_s"] = time.Since(t0).Seconds()

	samples, outs := waitPlan(r, nil, r.n(sp.reps), in, sp.config(nil))
	r.reportWait(samples, true)
	last := outs[len(outs)-1].plan
	if last == nil {
		last = ref.plan
	}

	r.m["serve_us"] = servePlan(r, nil, sp, last, in.links, r.n(sp.serve))
	if sp.verify {
		verifyPlan(r, nil, last)
	}
	r.m["mlu"] = last.MLU
	r.exact["plan.digest"] = fmt.Sprintf("%016x", ref.digest)
	r.exact["plan.mlu"] = fmt.Sprint(last.MLU)
	r.exact["plan.bytes"] = fmt.Sprint(len(ref.bytes))
}

// tracePlan is the traced run of a planning workload: k untraced and k
// traced wait ops (their difference is the tracing overhead), a short
// traced serve batch, and the layer probes that run on this workload's
// own topology.
// It returns the inputs and the untraced wait_ms for planProbes.
func tracePlan(r *run, sp planSpec) (planInputs, float64) {
	tr := r.tr
	in := planSetup(r, sp)
	ref := in.ref
	k := r.n(count{2, 2, 1})

	plain, _ := waitPlan(r, nil, k, in, sp.config(nil))
	reg := obs.NewRegistry()
	mark := tr.mark()
	traced, outs := waitPlan(r, tr, k, in, sp.config(reg))
	r.reportOverhead(plain, traced, median)

	r.m["core.precompute_ms"] = tr.meanMS("core.Precompute", mark)
	r.m["core.encode_ms"] = tr.meanMS("core.EncodeBytes", mark)
	r.m["core.encode_bytes"] = float64(len(ref.bytes))
	r.m["core.alloc_mb"] = outs[0].allocMB
	r.m["core.gc_cycles"] = float64(outs[0].gc)
	counters := reg.Snapshot().Counters
	perOp := func(name string) float64 { return float64(counters[name]) / float64(k) }
	r.m["core.fw_epochs"] = perOp("fw.epochs")
	r.m["core.fw_spf_calls"] = perOp("fw.spf")
	r.m["spf.incremental_repairs"] = perOp("spf.incremental_repairs")
	r.m["spf.full_fallbacks"] = perOp("spf.full_fallbacks")
	lpCounters(r, counters, true)
	for _, name := range []string{"fw.epochs", "fw.spf", "spf.incremental_repairs", "spf.full_fallbacks"} {
		r.exact[name] = fmt.Sprint(counters[name])
	}
	r.exact["plan.digest"] = fmt.Sprintf("%016x", ref.digest)

	mark = tr.mark()
	servePlan(r, tr, sp, ref.plan, in.links, r.n(sp.traceServe))
	r.m["core.newstate_us"] = 1e3 * tr.meanMS("core.NewState", mark)
	if sp.degrade {
		r.m["core.state_degrade_us"] = 1e3 * tr.meanMS("core.State.Degrade", mark)
	} else {
		r.m["core.state_fail_us"] = 1e3 * tr.meanMS("core.State.Fail", mark)
	}
	if sp.verify {
		mark = tr.mark()
		verifyPlan(r, tr, ref.plan)
		r.m["core.verify_ms"] = tr.meanMS("core.Verify", mark)
	}

	// The worst-load kernel this workload's model selects, on one
	// 460-entry column (generated-100's link count) for both, so the
	// cheap top-F selection and the full sort-based knapsack sit side by
	// side in the two planning workloads' traces.
	rng := rand.New(rand.NewSource(42))
	col := make([]float64, 460)
	for i := range col {
		col[i] = rng.Float64() * 100
	}
	worst := perOpUS(r.n(count{200000, 200000, 100}), func(int) { probeSink += sp.model.WorstLoad(col) })
	if _, ok := sp.model.(core.DegradationModel); ok {
		r.m["core.worstload_degrade_us"] = worst
	} else {
		r.m["core.worstload_topf_us"] = worst
	}

	spfProbes(r, in.g, in.d)
	return in, median(msOf(plain))
}

// probeSink keeps the compiler from discarding a probe's result.
var probeSink float64

// weights is g's IGP weight per link, the cost vector the SPF kernels take.
func weights(g *graph.Graph) []float64 {
	cost := make([]float64, g.NumLinks())
	for e := range cost {
		cost[e] = g.Link(graph.LinkID(e)).Weight
	}
	return cost
}

// lpCounters copies the LP solver's counters out of a registry snapshot.
// With idle set it also holds the workload to the layer separation the
// benchmark claims: the planning workloads and replay never call the LP.
func lpCounters(r *run, c map[string]int64, idle bool) {
	for _, name := range []string{"lp.solves", "lp.pivots", "lp.refactorizations", "lp.warm_starts", "lp.recoveries"} {
		r.m[name] = float64(c[name])
		r.exact[name] = fmt.Sprint(c[name])
	}
	if idle {
		r.check(c["lp.solves"] == 0 && c["lp.pivots"] == 0, "the LP ran in a workload it should idle in: %d solves, %d pivots", c["lp.solves"], c["lp.pivots"])
	}
}

// spfProbes times the SPF layer's public kernels on the workload's graph.
func spfProbes(r *run, g *graph.Graph, d *traffic.Matrix) {
	c, cost := g.CSR(), weights(g)
	var s spf.Scratch
	spf.SPFTo(c, 0, cost, nil, &s)
	r.m["spf.tree_us"] = perOpUS(r.n(count{4000, 4000, 20}), func(i int) {
		spf.SPFTo(c, graph.NodeID(i%g.NumNodes()), cost, nil, &s)
	})

	// A sparse batch, as the planner issues them: eight link costs move,
	// then move back; 0.25 is the planner's dirty-fraction cutover.
	var t spf.DynTree
	t.Reset(c, 0, false)
	t.Full(cost)
	rng := rand.New(rand.NewSource(42))
	ids := make([]int32, 8)
	base := make([]float64, len(ids))
	raised := make([]float64, len(ids))
	for j, e := range rng.Perm(g.NumLinks())[:len(ids)] {
		ids[j], base[j], raised[j] = int32(e), cost[e], cost[e]*1.5
	}
	r.m["spf.dyn_update_us"] = perOpUS(r.n(count{20000, 20000, 20}), func(i int) {
		if i%2 == 0 {
			t.Update(ids, raised, 0.25)
		} else {
			t.Update(ids, base, 0.25)
		}
	})

	comms := routing.ODCommodities(g.NumNodes(), d.At)
	r.m["spf.ecmp_ms"] = perOpUS(r.n(count{3, 3, 1}), func(int) {
		spf.ECMPFlow(g, comms, nil, spf.WeightCost(g))
	}) / 1e3
}

// planProbes are the stand-alone probes that no gated cell depends on:
// the 1000-node SPF kernels, which stand in for the generated1k planning
// row a run cannot afford (88 s per op), and the worker pool, measured
// against the serial path it is supposed to beat.
func planProbes(r *run, sp planSpec, in planInputs, serialMS float64) {
	g1k := topo.Generated1K()
	if r.o.quick {
		g1k = topo.Abilene()
	}
	c, cost := g1k.CSR(), weights(g1k)
	var s spf.Scratch
	var ds spf.DeltaScratch
	n := r.n(count{200, 200, 4})
	spf.SPFTo(c, 0, cost, nil, &s)
	r.m["spf.heap_tree_us_1k"] = perOpUS(n, func(i int) { spf.SPFTo(c, graph.NodeID(i%c.N), cost, nil, &s) })
	spf.SPFToDelta(c, 0, cost, nil, &s, &ds)
	r.m["spf.delta_tree_us_1k"] = perOpUS(n, func(i int) { spf.SPFToDelta(c, graph.NodeID(i%c.N), cost, nil, &s, &ds) })

	nproc := runtime.GOMAXPROCS(0)
	pool := par.New(nproc)
	const items = 1 << 14
	loops := r.n(count{200, 200, 2})
	r.m["par.foreach_ns_per_item"] = 1e3 * perOpUS(loops, func(int) { pool.ForEach(items, func(int) {}) }) / items
	r.detail["par.foreach inline ns/item"] = 1e3 * perOpUS(loops, func(int) { par.Serial.ForEach(items, func(int) {}) }) / items

	// The same wait op and the same evaluation, serial against pooled.
	// Recorded with its nproc; a ratio below 1 means the pool costs time.
	cfg := sp.config(nil)
	cfg.Workers = nproc
	var pooledOut planOut
	pooled := timeOp(func() { pooledOut = planOp(nil, in.g, in.d, cfg) })
	r.check(pooledOut.err == nil && pooledOut.digest == in.ref.digest, "pooled plan digest differs from serial")
	r.m["par.fw_speedup_x"] = serialMS / pooled.ms

	rin := newReplayInputs(r)
	var serialRes, pooledRes replayOut
	serialEval := timeOp(func() { serialRes = rin.evaluate(nil, nil, 1) })
	pooledEval := timeOp(func() { pooledRes = rin.evaluate(nil, nil, nproc) })
	r.check(pooledRes.digest == serialRes.digest, "pooled evaluation digest differs from serial")
	r.m["par.eval_speedup_x"] = serialEval.ms / pooledEval.ms
	r.detail["par nproc"] = nproc
}
