package netem

import (
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mplsff"
	"repro/internal/routing"
	"repro/internal/traffic"
	"repro/internal/transition"
)

// The tests in this file close the loop between the plan-swap scheduler
// and the emulator: a multi-round plan migration delivered through the
// staged-round flood must leave every router's view byte-identical to a
// one-shot install of the target plan — on clean channels and under
// chaos with the reliable re-flood — with zero invariant violations.

// swapPlanPair builds the crossing-commodities fixture from the swap
// scheduler's tests: four commodities trade places across a narrow
// two-path core, so both endpoint plans are feasible but the one-shot
// mixing envelope is over capacity and the scheduler must emit >= 2
// rounds.
func swapPlanPair(t testing.TB) (*core.Plan, *core.Plan) {
	t.Helper()
	g := graph.New("swaphub")
	ids := map[string]graph.NodeID{}
	for _, s := range []string{"a", "b", "c", "d", "u", "v", "x", "y"} {
		ids[s] = g.AddNode(s)
	}
	duplex := func(p, q string, c float64) { g.AddDuplex(ids[p], ids[q], c, 1, 1) }
	duplex("a", "u", 1000)
	duplex("b", "u", 1000)
	duplex("v", "c", 1000)
	duplex("v", "d", 1000)
	duplex("a", "b", 1000)
	duplex("c", "d", 1000)
	duplex("u", "x", 100)
	duplex("x", "v", 100)
	duplex("u", "y", 100)
	duplex("y", "v", 100)

	plan := func(via map[[2]string]string) *core.Plan {
		const dem = 30.0
		d := traffic.NewMatrix(g.NumNodes())
		var comms []routing.Commodity
		var paths [][]graph.NodeID
		for od, mid := range via {
			src, dst := ids[od[0]], ids[od[1]]
			d.Set(src, dst, dem)
			comms = append(comms, routing.Commodity{Src: src, Dst: dst, Demand: dem})
			paths = append(paths, []graph.NodeID{src, ids["u"], ids[mid], ids["v"], dst})
		}
		base := routing.NewFlow(g, comms)
		for k, p := range paths {
			for i := 0; i+1 < len(p); i++ {
				e, ok := g.FindLink(p[i], p[i+1])
				if !ok {
					t.Fatalf("no link %v->%v", p[i], p[i+1])
				}
				base.Frac[k][e] = 1
			}
		}
		pl, err := core.Precompute(g, d, core.Config{
			Model: core.ArbitraryFailures{F: 1}, BaseRouting: base, Iterations: 30,
		})
		if err != nil {
			t.Fatal(err)
		}
		return pl
	}
	crossing := func(first, second string) map[[2]string]string {
		return map[[2]string]string{
			{"a", "c"}: first, {"a", "d"}: first,
			{"b", "c"}: second, {"b", "d"}: second,
		}
	}
	return plan(crossing("x", "y")), plan(crossing("y", "x"))
}

// runSwapStaged drives one staged plan swap: the forwarder starts on the
// old plan and the sequence's rounds are injected at router 0.
func runSwapStaged(t *testing.T, old *core.Plan, seq *transition.Sequence, chaos ChaosConfig, seed int64, withTraffic bool) (*Emulator, *R3DistributedForwarder) {
	t.Helper()
	em, fw, end := swapEmulator(old, seq, Config{Seed: seed, Chaos: chaos}, withTraffic)
	em.Run(end)
	return em, fw
}

// swapEmulator sets runSwapStaged's swap up on cfg and returns it unrun,
// with the time it runs to.
func swapEmulator(old *core.Plan, seq *transition.Sequence, cfg Config, withTraffic bool) (*Emulator, *R3DistributedForwarder, float64) {
	g := old.G
	fw := NewR3Distributed(old)
	cfg.G, cfg.Forwarder = g, fw
	em := New(cfg)
	if withTraffic {
		addTM(em, traffic.Gravity(g, 100, 42), 1.5)
	}
	const t0, spacing = 0.3, 0.3
	for i, r := range seq.Rounds {
		em.StageRoundAt(t0+float64(i)*spacing, 0, r.Seq, r.Delta)
	}
	return em, fw, t0 + float64(len(seq.Rounds))*spacing + 1.2
}

// assertSwapFinal checks the differential property: every router's view
// equals a one-shot build of the target plan.
func assertSwapFinal(t *testing.T, em *Emulator, fw *R3DistributedForwarder, next *core.Plan, seq *transition.Sequence) {
	t.Helper()
	if !em.StagesConverged() {
		t.Fatal("swap rounds did not reach every router")
	}
	if n := len(em.Violations()); n != 0 {
		t.Fatalf("%d invariant violations: %v", n, em.Violations())
	}
	want := mplsff.Build(next).Fingerprint()
	for u := 0; u < next.G.NumNodes(); u++ {
		if got := fw.views[u].Fingerprint(); got != want {
			t.Fatalf("router %d view fingerprint %#x != one-shot target build %#x", u, got, want)
		}
	}
}

// TestSwapStagedMatchesOneShot is the clean-channel differential: a
// multi-round plan swap delivered round-by-round through the emulator,
// with data traffic flowing throughout, ends byte-identical to
// installing the target plan in one shot.
func TestSwapStagedMatchesOneShot(t *testing.T) {
	old, next := swapPlanPair(t)
	seq, err := transition.SchedulePlanSwap(old, next, transition.Options{SkipCertify: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Rounds) < 2 {
		t.Fatalf("swap schedule produced %d rounds, want >= 2", len(seq.Rounds))
	}
	em, fw := runSwapStaged(t, old, seq, ChaosConfig{}, 1, true)
	assertSwapFinal(t, em, fw, next, seq)
	// Each round opens a measurement phase: initial + one per round.
	if got, want := len(em.Phases()), 1+len(seq.Rounds); got != want {
		t.Fatalf("phases = %d, want %d", got, want)
	}
	if got := len(em.ReconfigTimes()); got != len(seq.Rounds) {
		t.Fatalf("round convergences = %d, want %d", got, len(seq.Rounds))
	}
	if em.CtrlBytes == 0 {
		t.Fatal("swap rounds consumed no control-plane bytes")
	}
}

// TestSwapStagedUnderChaos is the chaos differential: with 30% control
// loss plus duplication and reordering jitter, the sequence-numbered
// staged-round re-flood still brings every router to the one-shot target
// state in each of 8 seeded runs.
func TestSwapStagedUnderChaos(t *testing.T) {
	old, next := swapPlanPair(t)
	seq, err := transition.SchedulePlanSwap(old, next, transition.Options{SkipCertify: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Rounds) < 2 {
		t.Fatalf("swap schedule produced %d rounds, want >= 2", len(seq.Rounds))
	}
	for seed := int64(1); seed <= 8; seed++ {
		em, fw := runSwapStaged(t, old, seq, ChaosConfig{
			Enabled: true, Seed: seed,
			CtrlDrop: 0.30, CtrlDup: 0.15, CtrlJitter: 0.002,
		}, 1, false)
		if em.RefloodRoundsFired() == 0 {
			t.Fatalf("seed %d: staged flood never retransmitted under loss", seed)
		}
		assertSwapFinal(t, em, fw, next, seq)
	}
}
