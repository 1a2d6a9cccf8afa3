package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/exp"
	"repro/internal/graph"
	"repro/internal/mcf"
	"repro/internal/netem"
	"repro/internal/obs"
	"repro/internal/protect"
	"repro/internal/routing"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// replayInputs is the r3sim user's material: a plan, the matrix it was
// built for, and a sample of failure scenarios drawn from -seed.
type replayInputs struct {
	g         *graph.Graph
	d         *traffic.Matrix
	plan      *core.Plan
	scenarios []graph.LinkSet
	// verifyF and verifyCap size the enumeration audit in the wait op.
	verifyF, verifyCap int
	optIters           int
}

func newReplayInputs(r *run) *replayInputs {
	in := &replayInputs{g: topo.SBC(), verifyF: 2, verifyCap: 5000, optIters: 50}
	f, effort, sampleK, sampleN := 2, 100, 2, 300
	if r.o.quick {
		in.g, in.verifyF, in.verifyCap, in.optIters = topo.Abilene(), 1, 10, 5
		f, effort, sampleK, sampleN = 1, 10, 1, 4
	}
	in.d = demand(in.g, r.o.matrixSeed)
	plan, err := core.Precompute(in.g, in.d, core.Config{
		Model: core.ArbitraryFailures{F: f}, Iterations: effort, PenaltyEnvelope: 1.1, Workers: 1,
	})
	if !r.check(err == nil, "replay plan: %v", err) {
		panic(abort{err})
	}
	in.plan = plan
	in.scenarios = eval.FilterConnected(in.g, eval.Sample(eval.SingleEvents(in.g), sampleK, sampleN, r.o.seed))
	return in
}

// replayOut is what one wait op produced.
type replayOut struct {
	digest  uint64
	worstR3 float64
	// auditMLU and violations come from the enumeration audit.
	auditMLU   float64
	violations int
	err        error
}

// evaluate is the first half of the wait op: every scheme on every
// sampled scenario against the per-scenario optimum.
func (in *replayInputs) evaluate(tr *tracer, reg *obs.Registry, workers int) (o replayOut) {
	en := &eval.Engine{
		G: in.g,
		Schemes: []protect.Scheme{
			&eval.R3Scheme{Label: "R3", Plan: in.plan},
			&protect.OSPFRecon{G: in.g},
		},
		OptimalIterations: in.optIters, Workers: workers, Obs: reg,
	}
	var res []eval.Result
	tr.do("eval.Evaluate", func() { res = en.Evaluate(in.d, in.scenarios) })
	h := fnv.New64a()
	var b [8]byte
	put := func(v float64) {
		binary.BigEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	for _, x := range res {
		put(x.Optimal)
		names := make([]string, 0, len(x.Bottleneck))
		for name := range x.Bottleneck {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			put(x.Bottleneck[name])
		}
	}
	o.digest = h.Sum64()
	o.worstR3 = eval.WorstCase(res)["R3"]
	return o
}

// op is the timed wait op: evaluate, then audit the plan by enumeration.
func (in *replayInputs) op(tr *tracer, reg *obs.Registry) replayOut {
	defer tr.op("wait")()
	o := in.evaluate(tr, reg, 1)
	var rep *core.VerifyReport
	tr.do("core.Verify", func() { rep, o.err = in.plan.Verify(in.verifyF, in.verifyCap) })
	if o.err == nil {
		o.auditMLU, o.violations = rep.WorstMLU, rep.Violations
	}
	return o
}

// emuOut is what one emulation produced.
type emuOut struct {
	digest  uint64
	packets int64
	err     error
}

// emulate is the serve op: the r3emu run, three sequential duplex
// failures on Abilene under MPLS-ff+R3. The emulator panics on an
// invariant violation unless told otherwise; that panic is an op failure.
func emulate(tr *tracer, reg *obs.Registry, cfg exp.EmulationConfig) (o emuOut) {
	defer tr.op("serve")()
	defer func() {
		if p := recover(); p != nil {
			o.err = fmt.Errorf("emulation panicked: %v", p)
		}
	}()
	cfg.Obs = reg
	var res *exp.EmulationResult
	tr.do("exp.RunEmulation", func() { res = exp.RunEmulation("MPLS-ff+R3", cfg) })
	h := fnv.New64a()
	var buf []byte
	for _, p := range res.Phases {
		buf = p.AppendCanonical(buf[:0])
		h.Write(buf)
		for _, n := range p.DeliveredBytes {
			o.packets += n / packetBytes
		}
	}
	var b [8]byte
	for _, s := range res.RTT {
		binary.BigEndian.PutUint64(b[:], math.Float64bits(s[0]))
		h.Write(b[:])
		binary.BigEndian.PutUint64(b[:], math.Float64bits(s[1]))
		h.Write(b[:])
	}
	o.digest = h.Sum64()
	return o
}

// packetBytes is netem's default data packet size.
const packetBytes = 1500

func emuConfig(r *run) exp.EmulationConfig {
	cfg := exp.EmulationConfig{PhaseSeconds: 10, Seed: r.o.seed}
	if r.o.quick {
		cfg.PhaseSeconds, cfg.Effort = 0.5, 20
	}
	return cfg
}

var (
	replayReps = count{9, 5, 1}
	replayEmus = count{4, 2, 1}
)

// replaySetup builds the inputs and warms both phases; the warm-up
// outputs are the reference every later op must reproduce.
func replaySetup(r *run) (*replayInputs, replayOut, emuOut) {
	in := newReplayInputs(r)
	ref := in.op(nil, nil)
	if !r.check(ref.err == nil, "warm-up replay: %v", ref.err) {
		panic(abort{ref.err})
	}
	emu := emulate(nil, nil, emuConfig(r))
	if !r.check(emu.err == nil && emu.packets > 0, "warm-up emulation: %v, %d packets", emu.err, emu.packets) {
		panic(abort{emu.err})
	}
	return in, ref, emu
}

func waitReplay(r *run, tr *tracer, reg *obs.Registry, n int, in *replayInputs, ref replayOut) []sample {
	samples := make([]sample, n)
	for i := range samples {
		var o replayOut
		samples[i] = timeOp(func() { o = in.op(tr, reg) })
		r.check(o.err == nil && o.digest == ref.digest && o.violations == ref.violations && o.auditMLU == ref.auditMLU,
			"replay rep %d: err=%v digest %016x audit %d/%v, warm-up had %016x %d/%v", i, o.err, o.digest, o.violations, o.auditMLU, ref.digest, ref.violations, ref.auditMLU)
	}
	return samples
}

// serveReplay runs n emulations and returns microseconds of wall time per
// delivered packet: the median emulation's.
func serveReplay(r *run, tr *tracer, reg *obs.Registry, n int, ref emuOut) float64 {
	cfg := emuConfig(r)
	outs := make([]emuOut, n)
	us := make([]float64, n)
	for i := range outs {
		t0 := time.Now()
		outs[i] = emulate(tr, reg, cfg)
		us[i] = float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(max(outs[i].packets, 1))
	}
	for i, o := range outs {
		r.check(o.err == nil && o.digest == ref.digest && o.packets == ref.packets,
			"emulation %d: err=%v digest %016x packets %d, warm-up had %016x %d", i, o.err, o.digest, o.packets, ref.digest, ref.packets)
	}
	r.detail["serve_us"] = fmt.Sprintf("%d emulations of %d packets delivered; per emulation %s", n, ref.packets, spread(us))
	return median(us)
}

func runReplay(r *run) {
	t0 := time.Now()
	in, ref, emu := replaySetup(r)
	r.m["setup_s"] = time.Since(t0).Seconds()

	r.reportWait(waitReplay(r, nil, nil, r.n(replayReps), in, ref), true)
	r.m["serve_us"] = serveReplay(r, nil, nil, r.n(replayEmus), emu)
	// The audit's worst case, not the evaluation's: the worst bottleneck
	// among 300 sampled scenarios is 2.8281 for 187 seeds of 200 and one
	// of three lower values for the rest, which would put a seed lottery
	// under a 0.5 % bound. The audit enumerates, so it repeats.
	r.m["mlu"] = ref.auditMLU
	replayExact(r, ref, emu)
}

func replayExact(r *run, ref replayOut, emu emuOut) {
	r.exact["eval.digest"] = fmt.Sprintf("%016x", ref.digest)
	r.exact["eval.worst_r3"] = fmt.Sprint(ref.worstR3)
	r.exact["verify.worst_mlu"] = fmt.Sprint(ref.auditMLU)
	r.exact["verify.violations"] = fmt.Sprint(ref.violations)
	r.exact["emu.digest"] = fmt.Sprintf("%016x", emu.digest)
	r.exact["emu.packets"] = fmt.Sprint(emu.packets)
}

func traceReplay(r *run) {
	tr := r.tr
	in, ref, emu := replaySetup(r)
	k := r.n(count{3, 3, 1})

	plain := waitReplay(r, nil, nil, k, in, ref)
	reg := obs.NewRegistry()
	mark := tr.mark()
	traced := waitReplay(r, tr, reg, k, in, ref)
	r.reportOverhead(plain, traced, median)
	r.m["eval.evaluate_ms"] = tr.meanMS("eval.Evaluate", mark)
	r.m["core.verify_ms"] = tr.meanMS("core.Verify", mark)
	counters := reg.Snapshot().Counters
	r.m["eval.scenarios"] = float64(counters["eval.scenarios"]) / float64(k)
	r.m["eval.shards"] = float64(counters["eval.shards"]) / float64(k)
	lpCounters(r, counters, true)
	replayExact(r, ref, emu)

	// The schemes and the solver under the evaluation, one scenario at a
	// time, on the same sample.
	ospf := &protect.OSPFRecon{G: in.g}
	r.m["protect.ospf_us"] = perOpUS(len(in.scenarios), func(i int) { ospf.Loads(in.scenarios[i], in.d) })
	opt := &protect.Optimal{G: in.g, Iterations: in.optIters}
	nOpt := min(len(in.scenarios), r.n(count{60, 60, 2}))
	r.m["protect.optimal_ms"] = perOpUS(nOpt, func(i int) { opt.Loads(in.scenarios[i], in.d) }) / 1e3
	comms := routing.ODCommodities(in.g.NumNodes(), in.d.At)
	r.m["mcf.fw_ms"] = perOpUS(r.n(count{20, 20, 1}), func(int) { mcf.MinMLU(in.g, comms, mcf.Options{Iterations: in.optIters}) }) / 1e3

	// The online step the R3 scheme replays per scenario.
	mark = tr.mark()
	for i := 0; i < min(len(in.scenarios), r.n(count{300, 300, 2})); i++ {
		end := tr.op("replay.state")
		var st *core.State
		tr.do("core.NewState", func() { st = core.NewState(in.plan) })
		tr.do("core.State.Fail", func() { _ = st.FailAll(in.scenarios[i].IDs()...) })
		end()
	}
	r.m["core.newstate_us"] = 1e3 * tr.meanMS("core.NewState", mark)
	r.m["core.state_fail_us"] = 1e3 * tr.meanMS("core.State.Fail", mark)

	// One traced emulation through the r3emu entry point, then the same
	// run assembled from netem's public API, which separates the
	// emulator's own time from the plan it forwards on and exposes its
	// invariants and fingerprint.
	traced1 := emulate(tr, reg, emuConfig(r))
	r.check(traced1.err == nil && traced1.digest == emu.digest, "traced emulation: err=%v digest %016x, warm-up had %016x", traced1.err, traced1.digest, emu.digest)
	netemProbe(r, emu)
}

// netemProbe mirrors exp.RunEmulation ("MPLS-ff+R3") with the emulator in
// hand.
func netemProbe(r *run, ref emuOut) {
	cfg := emuConfig(r)
	g := topo.Abilene()
	d := traffic.AbileneMatrix(g, 220)
	effort := 120
	if cfg.Effort != 0 {
		effort = cfg.Effort
	}
	plan, err := core.Precompute(g, d, core.Config{Model: core.ArbitraryFailures{F: 3}, Iterations: effort, PenaltyEnvelope: 1.1})
	if !r.check(err == nil, "netem probe plan: %v", err) {
		return
	}
	var violations []netem.Violation
	em := netem.New(netem.Config{
		G: g, Forwarder: netem.NewR3Distributed(plan), Seed: cfg.Seed,
		OnViolation: func(v netem.Violation) { violations = append(violations, v) },
	})
	stop := 4 * cfg.PhaseSeconds
	d.Pairs(func(a, b graph.NodeID, mbps float64) { em.AddCBRTraffic(a, b, mbps*1e6/8, stop) })
	den, _ := g.NodeByName("Denver")
	la, _ := g.NodeByName("LosAngeles")
	em.AddPing(den, la, 0.2, stop)
	for i, e := range testbedLinks(g) {
		em.FailAt(float64(i+1)*cfg.PhaseSeconds, e)
	}
	var runMS float64
	r.tr.do("netem.Run", func() {
		t0 := time.Now()
		em.Run(stop)
		runMS = float64(time.Since(t0).Nanoseconds()) / 1e6
	})

	var packets int64
	for _, p := range em.Phases() {
		for _, n := range p.DeliveredBytes {
			packets += n / packetBytes
		}
	}
	r.check(len(violations) == 0 && len(em.Violations()) == 0, "emulator invariants: %v", violations)
	r.check(packets == ref.packets, "netem probe delivered %d packets, exp.RunEmulation %d: the probe no longer mirrors it", packets, ref.packets)
	r.m["netem.run_ms"] = runMS
	r.m["netem.packets"] = float64(packets)
	r.m["netem.us_per_packet"] = runMS * 1e3 / float64(packets)
	if rt := em.ReconfigTimes(); len(rt) > 0 {
		r.m["netem.reconfig_p50_us"] = median(rt) * 1e6
	}
	r.exact["netem.fingerprint"] = fmt.Sprintf("%016x", em.Fingerprint())
	r.exact["netem.packets"] = fmt.Sprint(packets)
	r.exact["netem.reconfig_p50_us"] = fmt.Sprint(r.m["netem.reconfig_p50_us"])
}
