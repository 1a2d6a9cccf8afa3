package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mcf"
	"repro/internal/mplsff"
	"repro/internal/obs"
	"repro/internal/routing"
	"repro/internal/topo"
	"repro/internal/traffic"
	"repro/internal/transition"
)

// daemonInputs is the operator's material: a topology and a day of hourly
// traffic matrices, already rendered as the bodies POST /v1/traffic takes.
type daemonInputs struct {
	g      *graph.Graph
	series []*traffic.Matrix
	bodies [][]byte
	effort int
	// hours are the updates the wait phase posts, in the order -seed drew.
	hours []int
}

// ring5 is the 5-node ring with two chords the repository's control-plane
// tests use; the smoke test's daemon runs on it, because the exact-LP
// certificate on Abilene takes seconds.
func ring5() *graph.Graph {
	g := graph.New("ring5")
	n := make([]graph.NodeID, 5)
	for i, s := range []string{"a", "b", "c", "d", "e"} {
		n[i] = g.AddNode(s)
	}
	for i := range n {
		g.AddDuplex(n[i], n[(i+1)%5], 100, 1, 1)
	}
	g.AddDuplex(n[0], n[2], 100, 1, 1)
	g.AddDuplex(n[1], n[3], 100, 1, 1)
	return g
}

var daemonUpdates = count{5, 5, 1}

func newDaemonInputs(r *run) *daemonInputs {
	in := &daemonInputs{g: topo.Abilene(), effort: 200}
	if r.o.quick {
		in.g, in.effort = ring5(), 30
	}
	// The rollout certificate's solve time is as chaotic in its input as
	// the planners (see demand): a 1e-6 relative perturbation moved
	// it by ±20 % at an unchanged pivot count. -seed orders the updates
	// and the served links.
	in.series = traffic.DiurnalSeries(demand(in.g, r.o.matrixSeed), 24, r.o.matrixSeed)
	for _, m := range in.series {
		var buf bytes.Buffer
		if err := traffic.FormatMatrix(&buf, m, in.g.Node); err != nil {
			panic(abort{err})
		}
		in.bodies = append(in.bodies, buf.Bytes())
	}
	n := r.n(daemonUpdates)
	for h := 2; h < 2+n && h < len(in.series); h++ {
		in.hours = append(in.hours, h)
	}
	in.hours = shuffled(in.hours, r.o.seed)
	return in
}

// daemon drives one in-process r3d: requests go straight into
// Server.Handler().ServeHTTP. No socket is crossed — over loopback TCP a
// GET cost 112 us against 24 us in process, i.e. mostly the kernel.
type daemon struct {
	r   *run
	in  *daemonInputs
	srv *controlplane.Server
	h   http.Handler
	w   sink
	// boot is revision 1: the plan for hour 0, which every update starts
	// from and every rollback restores.
	boot *controlplane.Revision
	// worst is the highest certified MLU among the revisions published.
	worst float64
}

// sink is the smallest http.ResponseWriter that keeps what the checks
// read; reused across requests so the serve batch measures the handler.
type sink struct {
	h    http.Header
	code int
	body bytes.Buffer
}

func (s *sink) Header() http.Header         { return s.h }
func (s *sink) WriteHeader(code int)        { s.code = code }
func (s *sink) Write(b []byte) (int, error) { return s.body.Write(b) }
func (s *sink) reset() {
	clear(s.h)
	s.code = http.StatusOK
	s.body.Reset()
}

func bootDaemon(r *run, in *daemonInputs, reg *obs.Registry) *daemon {
	srv, err := controlplane.New(controlplane.Config{
		Graph: in.g, Traffic: in.series[0],
		Precompute: core.Config{Model: core.ArbitraryFailures{F: 1}, Iterations: in.effort, PenaltyEnvelope: 1.1, Workers: 1},
		// Every update is followed by a rollback to revision 1, so the
		// log must keep it for the whole run.
		Retain: 64,
		Obs:    reg,
	})
	if !r.check(err == nil, "daemon boot: %v", err) {
		panic(abort{err})
	}
	d := &daemon{r: r, in: in, srv: srv, h: srv.Handler(), w: sink{h: http.Header{}}, boot: srv.Active()}
	d.worst = d.boot.Plan.MLU
	return d
}

func (d *daemon) do(req *http.Request) {
	d.w.reset()
	d.h.ServeHTTP(&d.w, req)
}

// update is the timed wait op: POST the hour's matrix and wait until the
// revision built from it, with its rollout, is the one being served.
func (d *daemon) update(tr *tracer, hour int) error {
	defer tr.op("wait")()
	prev := d.srv.Active().ID
	var code int
	tr.do("controlplane.POST /v1/traffic", func() {
		d.do(httptest.NewRequest("POST", "/v1/traffic", bytes.NewReader(d.in.bodies[hour])))
		code = d.w.code
	})
	if code != http.StatusAccepted {
		return fmt.Errorf("POST /v1/traffic hour %d: status %d: %s", hour, code, d.w.body.String())
	}
	var err error
	tr.do("controlplane.rebuild", func() {
		deadline := time.Now().Add(90 * time.Second)
		for d.srv.Active().ID == prev {
			if time.Now().After(deadline) {
				err = fmt.Errorf("hour %d: no new revision after 90 s", hour)
				return
			}
			time.Sleep(100 * time.Microsecond)
		}
	})
	return err
}

// checkActive holds the served plan to its advertised digest and records
// the rollout's verdict, which must repeat from run to run.
func (d *daemon) checkActive(hour int) {
	rev := d.srv.Active()
	d.do(httptest.NewRequest("GET", "/v1/plan", nil))
	got := fnv.New64a()
	got.Write(d.w.body.Bytes())
	want := d.w.h.Get("X-R3-Digest")
	d.r.check(d.w.code == http.StatusOK && fmt.Sprintf("%016x", got.Sum64()) == want && got.Sum64() == rev.Digest,
		"hour %d: GET /v1/plan status %d, body digest %016x, header %s, revision %016x", hour, d.w.code, got.Sum64(), want, rev.Digest)
	if d.r.check(rev.Rollout != nil, "hour %d: revision %d has no rollout", hour, rev.ID) {
		d.r.exact[fmt.Sprintf("rollout.hour%d", hour)] = fmt.Sprintf("rounds=%d congestion_free=%v", len(rev.Rollout.Rounds), rev.Rollout.CongestionFree)
	}
	d.r.exact[fmt.Sprintf("plan.hour%d", hour)] = fmt.Sprintf("%016x mlu=%v", rev.Digest, rev.Plan.MLU)
	d.worst = math.Max(d.worst, rev.Plan.MLU)
	if rev.Plan.CongestionFree() {
		rep, err := rev.Plan.Verify(1, 2000)
		d.r.check(err == nil && rep.Violations == 0, "hour %d: verify of a congestion-free plan: err=%v, report %+v", hour, err, rep)
	}
}

// rollback restores revision 1 and checks the daemon then serves its bytes
// unchanged. It also leaves the next update without a warm LP basis, so
// every timed update pays the same cold certificate (bench/README.md).
func (d *daemon) rollback(tr *tracer) {
	end := tr.op("rollback")
	tr.do("controlplane.POST /v1/rollback", func() {
		d.do(httptest.NewRequest("POST", fmt.Sprintf("/v1/rollback?rev=%d", d.boot.ID), nil))
	})
	end()
	if !d.r.check(d.w.code == http.StatusOK, "rollback: status %d: %s", d.w.code, d.w.body.String()) {
		return
	}
	d.do(httptest.NewRequest("GET", "/v1/plan", nil))
	d.r.check(bytes.Equal(d.w.body.Bytes(), d.boot.Bytes), "rollback serves %d bytes that differ from revision %d's %d", d.w.body.Len(), d.boot.ID, len(d.boot.Bytes))
}

// wait posts the hours in order, each from the boot plan, and returns one
// sample per update.
func (d *daemon) wait(tr *tracer, hours []int) []sample {
	samples := make([]sample, len(hours))
	for i, hour := range hours {
		var err error
		samples[i] = timeOp(func() { err = d.update(tr, hour) })
		if d.r.check(err == nil, "update: %v", err) {
			d.checkActive(hour)
		}
		d.rollback(tr)
	}
	return samples
}

// serve sends n GET /v1/plan and n GET /v1/scenario?links=e requests,
// alternating, and returns microseconds per request (see batchUS).
func (d *daemon) serve(n int) float64 {
	planReq := httptest.NewRequest("GET", "/v1/plan", nil)
	links := make([]graph.LinkID, d.in.g.NumLinks())
	for e := range links {
		links[e] = graph.LinkID(e)
	}
	links = shuffled(links, d.r.o.seed)
	scReqs := make([]*http.Request, len(links))
	for i, e := range links {
		scReqs[i] = httptest.NewRequest("GET", fmt.Sprintf("/v1/scenario?links=%d", e), nil)
	}
	want := len(d.srv.Active().Bytes)
	bad := 0
	us, chunks := batchUS(n, func(i int) {
		d.do(planReq)
		if d.w.code != http.StatusOK || d.w.body.Len() != want {
			bad++
		}
		d.do(scReqs[i%len(scReqs)])
		if d.w.code != http.StatusOK {
			bad++
		}
	})
	us /= 2 // each op of the batch is two requests
	d.r.batch(2*n, bad, "GET requests")
	d.r.check(strings.Contains(d.w.body.String(), `"mlu"`), "scenario response lacks an mlu: %s", d.w.body.String())
	d.r.detail["serve_us"] = fmt.Sprintf("%d GET /v1/plan + %d GET /v1/scenario; sub-batches of request pairs %s", n, n, chunks)
	return us
}

var daemonServe = count{60000, 40000, 20}

func runDaemon(r *run) {
	t0 := time.Now()
	in := newDaemonInputs(r)
	d := bootDaemon(r, in, nil)
	defer d.srv.Close()
	r.check(d.update(nil, 1) == nil, "warm-up update failed")
	d.rollback(nil)
	r.m["setup_s"] = time.Since(t0).Seconds()

	r.reportWait(d.wait(nil, in.hours), false)
	r.m["serve_us"] = d.serve(r.n(daemonServe))
	r.m["mlu"] = d.worst
}

// traceDaemon boots two daemons on the same inputs: one bare, one with an
// obs.Registry and spans. Both post the same k hours (the difference is
// the tracing overhead); the traced one then takes a repeated matrix (a
// plan-cache hit) and the read requests, and the layers under an update
// are called directly on the same consecutive matrices, since spans
// inside Server.build are a later issue.
func traceDaemon(r *run) {
	tr := r.tr
	in := newDaemonInputs(r)
	hours := in.hours[:min(len(in.hours), r.n(count{2, 2, 1}))]

	bare := bootDaemon(r, in, nil)
	r.check(bare.update(nil, 1) == nil, "warm-up update failed")
	bare.rollback(nil)
	plain := bare.wait(nil, hours)
	bare.srv.Close()

	reg := obs.NewRegistry()
	var d *daemon
	boot := timeOp(func() { d = bootDaemon(r, in, reg) })
	defer d.srv.Close()
	r.m["controlplane.boot_ms"] = boot.ms
	mark := tr.mark()
	traced := d.wait(tr, hours)
	r.reportOverhead(plain, traced, mean)
	r.m["controlplane.post_ack_us"] = 1e3 * tr.meanMS("controlplane.POST /v1/traffic", mark)
	r.m["controlplane.rollback_us"] = 1e3 * tr.meanMS("controlplane.POST /v1/rollback", mark)

	// Counters of the daemon's own updates, before anything else shares
	// the registry.
	counters := reg.Snapshot().Counters
	lpCounters(r, counters, false)
	for _, name := range []string{"transition.rounds", "transition.lp_solves", "transition.best_effort"} {
		r.m[name] = float64(counters[name])
		r.exact[name] = fmt.Sprint(counters[name])
	}

	// The same matrix again: the plan comes from the cache, the rollout
	// is still scheduled and certified.
	hit := timeOp(func() { r.check(d.update(tr, hours[0]) == nil, "cache-hit update failed") })
	d.checkActive(hours[0])
	d.rollback(tr)
	r.m["controlplane.cache_hit_update_ms"] = hit.ms
	counters = reg.Snapshot().Counters
	for name, src := range map[string]string{
		"controlplane.precomputes": "cp.precomputes", "controlplane.cache_hits": "cp.cache.hits",
		"controlplane.cache_misses": "cp.cache.misses", "controlplane.swaps": "cp.swaps",
	} {
		r.m[name] = float64(counters[src])
		r.exact[name] = fmt.Sprint(counters[src])
	}

	// Reads: batch means, and the one percentile a user would quote, from
	// individually timed calls with its sample count beside it.
	planReq := httptest.NewRequest("GET", "/v1/plan", nil)
	scReq := httptest.NewRequest("GET", "/v1/scenario?links=0", nil)
	nGet := r.n(count{20000, 20000, 20})
	r.m["controlplane.plan_get_us"] = perOpUS(nGet, func(int) { d.do(planReq) })
	r.m["controlplane.scenario_get_us"] = perOpUS(nGet, func(int) { d.do(scReq) })
	each := make([]float64, r.n(count{5000, 5000, 20}))
	for i := range each {
		t0 := time.Now()
		d.do(planReq)
		each[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
	}
	r.m["controlplane.plan_get_p99_us"] = percentile(each, 99)
	r.detail["controlplane.plan_get_p99_us"] = fmt.Sprintf("n=%d individually timed", len(each))
	r.detail["daemon hours"] = fmt.Sprint(hours)

	updateLayers(r, in, hours[0])
	daemonProbes(r, in)
}

// updateLayers calls the layers under one update directly: hour 0's plan
// to the given hour's, as Server.build does.
func updateLayers(r *run, in *daemonInputs, hour int) {
	tr := r.tr
	defer tr.op("update.layers")()
	reg := obs.NewRegistry()
	cfg := core.Config{Model: core.ArbitraryFailures{F: 1}, Iterations: in.effort, PenaltyEnvelope: 1.1, Workers: 1, Obs: reg}
	mark := tr.mark()
	var old, next *core.Plan
	var err error
	tr.do("core.Precompute", func() { old, err = core.Precompute(in.g, in.series[0], cfg) })
	if !r.check(err == nil, "layers: precompute hour 0: %v", err) {
		return
	}
	tr.do("core.Precompute", func() { next, err = core.Precompute(in.g, in.series[hour], cfg) })
	if !r.check(err == nil, "layers: precompute hour %d: %v", hour, err) {
		return
	}
	var wire []byte
	tr.do("core.EncodeBytes", func() { wire, err = next.EncodeBytes() })
	r.check(err == nil, "layers: encode: %v", err)
	r.m["core.precompute_ms"] = tr.meanMS("core.Precompute", mark)
	r.m["core.encode_ms"] = tr.meanMS("core.EncodeBytes", mark)
	r.m["core.encode_bytes"] = float64(len(wire))
	r.m["core.fw_epochs"] = float64(reg.Counter("fw.epochs").Value()) / 2
	r.m["core.fw_spf_calls"] = float64(reg.Counter("fw.spf").Value()) / 2

	// The swap with and without its exact-LP certificate: the difference
	// is the certificate's share of an update.
	lpReg := obs.NewRegistry()
	var seq, bare *transition.Sequence
	cert := timeOp(func() {
		tr.do("transition.SchedulePlanSwap", func() { seq, err = transition.SchedulePlanSwap(old, next, transition.Options{Obs: lpReg}) })
	})
	r.check(err == nil && seq != nil, "layers: certified swap: %v", err)
	nocert := timeOp(func() {
		tr.do("transition.SchedulePlanSwap nocert", func() {
			bare, err = transition.SchedulePlanSwap(old, next, transition.Options{SkipCertify: true})
		})
	})
	r.check(err == nil && bare != nil, "layers: uncertified swap: %v", err)
	r.m["transition.swap_ms"] = cert.ms
	r.m["transition.swap_nocert_ms"] = nocert.ms
	if p := lpReg.Counter("lp.pivots").Value(); p > 0 {
		r.m["lp.us_per_pivot"] = (cert.ms - nocert.ms) * 1e3 / float64(p)
	}

	// The forwarding tables the rollout ships.
	var oldNet, nextNet *mplsff.Network
	build := timeOp(func() {
		tr.do("mplsff.Build", func() { oldNet = mplsff.Build(old) })
		tr.do("mplsff.Build", func() { nextNet = mplsff.Build(next) })
	})
	r.m["mplsff.build_ms"] = build.ms / 2
	var delta *mplsff.Delta
	nDiff := r.n(count{20, 20, 1})
	tr.do("mplsff.Diff", func() {
		r.m["mplsff.diff_ms"] = perOpUS(nDiff, func(int) { delta = mplsff.Diff(oldNet, nextNet) }) / 1e3
	})
	r.m["mplsff.delta_wire_bytes"] = float64(delta.WireSize())
	r.exact["mplsff.delta_wire_bytes"] = fmt.Sprint(delta.WireSize())
	nClone := r.n(count{50, 50, 2})
	clones := make([]*mplsff.Network, nClone)
	tr.do("mplsff.Clone", func() {
		r.m["mplsff.clone_ms"] = perOpUS(nClone, func(i int) { clones[i] = oldNet.Clone() }) / 1e3
	})
	tr.do("mplsff.ApplyRound", func() {
		r.m["mplsff.apply_round_us"] = perOpUS(nClone, func(i int) { clones[i].ApplyRound(1, delta) })
	})
	r.check(clones[0].Fingerprint() == nextNet.Fingerprint(), "a network with the delta applied differs from the one built from the next plan")
	failed := 0
	tr.do("mplsff.OnFailure", func() {
		r.m["mplsff.onfailure_us"] = perOpUS(nClone, func(i int) {
			if clones[i].OnFailure(graph.LinkID(i%in.g.NumLinks())) != nil {
				failed++
			}
		})
	})
	r.check(failed == 0, "mplsff.OnFailure failed on %d of %d networks", failed, nClone)
}

// daemonProbes are the stand-alone probes whose layers an update leans
// on: the exact min-MLU solve cold and warm, the failure-activation
// scheduler, and the parsers on the update's path.
func daemonProbes(r *run, in *daemonInputs) {
	tr := r.tr
	defer tr.op("probes")()
	g, d := in.g, in.series[0]
	comms := routing.ODCommodities(g.NumNodes(), d.At)
	var cold, warm *mcf.Result
	var err error
	coldT := timeOp(func() { tr.do("mcf.MinMLUExact cold", func() { cold, err = mcf.MinMLUExact(g, comms, mcf.Options{}) }) })
	if r.check(err == nil, "mcf exact cold: %v", err) {
		down := graph.NewLinkSet(0)
		warmT := timeOp(func() {
			tr.do("mcf.MinMLUExact warm", func() {
				warm, err = mcf.MinMLUExact(g, comms, mcf.Options{Alive: down.Alive(), Warm: cold.Basis})
			})
		})
		r.check(err == nil && warm.MLU >= cold.MLU-1e-9, "mcf exact warm: err=%v", err)
		r.m["mcf.exact_cold_ms"] = coldT.ms
		r.m["mcf.exact_warm_ms"] = warmT.ms
	}

	// The three duplex failures of the paper's testbed run, staged on the
	// F=3 plan that run uses.
	var failures []graph.LinkID
	for _, e := range testbedLinks(g) {
		failures = append(failures, e, g.Link(e).Reverse)
	}
	if len(failures) > 0 {
		plan, err := core.Precompute(g, d, core.Config{Model: core.ArbitraryFailures{F: 3}, Iterations: in.effort, PenaltyEnvelope: 1.1, Workers: 1})
		if r.check(err == nil, "schedule probe plan: %v", err) {
			var seq *transition.Sequence
			t := timeOp(func() {
				tr.do("transition.Schedule", func() { seq, err = transition.Schedule(plan, failures, transition.Options{}) })
			})
			if r.check(err == nil, "transition.Schedule: %v", err) {
				r.m["transition.schedule_ms"] = t.ms
				r.exact["transition.schedule"] = fmt.Sprintf("rounds=%d congestion_free=%v lp_solves=%d", len(seq.Rounds), seq.CongestionFree, seq.LPSolves)
			}
		}
	}

	body := in.bodies[1]
	n := r.n(count{2000, 2000, 5})
	r.m["traffic.parse_us"] = perOpUS(n, func(int) {
		if _, err := traffic.ParseMatrix(bytes.NewReader(body), g.NumNodes(), g.NodeByName); err != nil {
			r.fail("traffic.ParseMatrix: %v", err)
		}
	})
	var buf bytes.Buffer
	r.m["traffic.format_us"] = perOpUS(n, func(int) {
		buf.Reset()
		_ = traffic.FormatMatrix(&buf, in.series[1], g.Node)
	})
	r.m["traffic.gravity_ms"] = perOpUS(n, func(int) { traffic.Gravity(g, 1000, 1) }) / 1e3
	var topoText bytes.Buffer
	if r.check(topo.Format(&topoText, g) == nil, "topo.Format failed") {
		r.m["topo.parse_us"] = perOpUS(n, func(int) {
			if _, err := topo.Parse(bytes.NewReader(topoText.Bytes())); err != nil {
				r.fail("topo.Parse: %v", err)
			}
		})
	}
}

// testbedLinks returns the three Abilene links the paper's testbed run
// fails, one direction each; empty on any other topology.
func testbedLinks(g *graph.Graph) []graph.LinkID {
	var out []graph.LinkID
	for _, p := range [][2]string{{"Houston", "KansasCity"}, {"Chicago", "Indianapolis"}, {"Sunnyvale", "Denver"}} {
		a, okA := g.NodeByName(p[0])
		b, okB := g.NodeByName(p[1])
		if !okA || !okB {
			return nil
		}
		e, ok := g.FindLink(a, b)
		if !ok {
			return nil
		}
		out = append(out, e)
	}
	return out
}
