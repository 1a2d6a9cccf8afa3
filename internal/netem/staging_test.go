package netem

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mplsff"
	"repro/internal/topo"
	"repro/internal/traffic"
	"repro/internal/transition"
)

// The tests in this file close the loop between the transition scheduler
// and the emulator: scheduler rounds delivered through the staged-round
// flood must leave every router's view byte-identical to one-shot
// activation — on clean channels, under chaos with the reliable re-flood,
// and under out-of-order injection — with zero invariant violations.

func stagedDuplex(t testing.TB, g *graph.Graph, a, b string) []graph.LinkID {
	t.Helper()
	na, ok := g.NodeByName(a)
	if !ok {
		t.Fatalf("no node %s", a)
	}
	nb, ok := g.NodeByName(b)
	if !ok {
		t.Fatalf("no node %s", b)
	}
	id, ok := g.FindLink(na, nb)
	if !ok {
		t.Fatalf("no link %s-%s", a, b)
	}
	return []graph.LinkID{id, g.Link(id).Reverse}
}

// canonicalDirs keeps one direction per duplex pair (FailAtSilent takes
// the reverse down too).
func canonicalDirs(g *graph.Graph, fails []graph.LinkID) []graph.LinkID {
	var out []graph.LinkID
	for _, e := range fails {
		if rev := g.Link(e).Reverse; rev >= 0 && rev < e {
			continue
		}
		out = append(out, e)
	}
	return out
}

// oneShotRef activates the failures on a fresh network in sorted order —
// the canonical order the scheduler's staged end state reconciles to.
func oneShotRef(t testing.TB, plan *core.Plan, fails []graph.LinkID) *mplsff.Network {
	t.Helper()
	sorted := append([]graph.LinkID(nil), fails...)
	for i := range sorted {
		for j := i + 1; j < len(sorted); j++ {
			if sorted[j] < sorted[i] {
				sorted[i], sorted[j] = sorted[j], sorted[i]
			}
		}
	}
	n := mplsff.Build(plan)
	for _, e := range sorted {
		if err := n.OnFailure(e); err != nil {
			t.Fatal(err)
		}
	}
	return n
}

// runStaged drives one staged rollout: silent duplex failures at t0, the
// sequence's rounds injected at router 0 with the given spacing, then a
// settling period for the flood.
func runStaged(t *testing.T, plan *core.Plan, seq *transition.Sequence, fails []graph.LinkID, chaos ChaosConfig, seed int64, withTraffic bool) (*Emulator, *R3DistributedForwarder) {
	t.Helper()
	em, fw, end := stagedEmulator(plan, seq, fails, Config{Seed: seed, Chaos: chaos}, withTraffic)
	em.Run(end)
	return em, fw
}

// stagedEmulator sets runStaged's rollout up on cfg and returns it unrun,
// with the time it runs to.
func stagedEmulator(plan *core.Plan, seq *transition.Sequence, fails []graph.LinkID, cfg Config, withTraffic bool) (*Emulator, *R3DistributedForwarder, float64) {
	g := plan.G
	fw := NewR3Distributed(plan)
	cfg.G, cfg.Forwarder = g, fw
	em := New(cfg)
	if withTraffic {
		addTM(em, traffic.Gravity(g, 100, 42), 1.5)
	}
	const t0 = 0.3
	em.FailAtSilent(t0, canonicalDirs(g, fails)...)
	const spacing = 0.3
	for i, r := range seq.Rounds {
		em.StageRoundAt(t0+0.02+float64(i)*spacing, 0, r.Seq, r.Delta)
	}
	return em, fw, t0 + 0.02 + float64(len(seq.Rounds))*spacing + 1.2
}

// assertStagedFinal checks the differential property: every router's view
// equals the scheduler's materialized end state, which equals one-shot
// activation, with the rollout converged and zero invariant violations.
func assertStagedFinal(t *testing.T, em *Emulator, fw *R3DistributedForwarder, plan *core.Plan, seq *transition.Sequence, fails []graph.LinkID) {
	t.Helper()
	if !em.StagesConverged() {
		t.Fatal("staged rounds did not reach every router")
	}
	if n := len(em.Violations()); n != 0 {
		t.Fatalf("%d invariant violations: %v", n, em.Violations())
	}
	// The scheduler's end state: its rounds applied in order.
	end := mplsff.Build(plan)
	for _, r := range seq.Rounds {
		end.ApplyRound(r.Seq, r.Delta)
	}
	want := end.Fingerprint()
	for u := 0; u < plan.G.NumNodes(); u++ {
		if got := fw.views[u].Fingerprint(); got != want {
			t.Fatalf("router %d view fingerprint %#x != scheduler end state %#x", u, got, want)
		}
	}
	if ref := oneShotRef(t, plan, fails).Fingerprint(); ref != want {
		t.Fatalf("staged end state %#x != one-shot activation %#x", want, ref)
	}
	for u := 0; u < plan.G.NumNodes(); u++ {
		for _, e := range fails {
			if !fw.views[u].KnowsFailed(e) {
				t.Fatalf("router %d never learned link %d from the staged rounds", u, e)
			}
		}
	}
}

// stagedCases pairs each test topology with a connectivity-preserving
// two-duplex failure set.
func stagedCases(t testing.TB) []struct {
	name  string
	plan  *core.Plan
	fails []graph.LinkID
} {
	abilene := planForAbilene(t, 150)
	ring5 := planForRing5(t)
	return []struct {
		name  string
		plan  *core.Plan
		fails []graph.LinkID
	}{
		{"ring5", ring5, append(stagedDuplex(t, ring5.G, "a", "b"), stagedDuplex(t, ring5.G, "c", "d")...)},
		{"abilene", abilene, append(stagedDuplex(t, abilene.G, "Houston", "KansasCity"),
			stagedDuplex(t, abilene.G, "Chicago", "Indianapolis")...)},
	}
}

// TestStagedActivationMatchesOneShot is the differential satellite on
// clean channels: a scheduled transition delivered round-by-round through
// the emulator ends byte-identical to one-shot activation, on ring5 and
// Abilene, with data traffic flowing throughout.
func TestStagedActivationMatchesOneShot(t *testing.T) {
	for _, tc := range stagedCases(t) {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			seq, err := transition.Schedule(tc.plan, tc.fails, transition.Options{SkipCertify: true})
			if err != nil {
				t.Fatal(err)
			}
			em, fw := runStaged(t, tc.plan, seq, tc.fails, ChaosConfig{}, 1, true)
			assertStagedFinal(t, em, fw, tc.plan, seq, tc.fails)
			// Each round opens a phase and completes a reconfiguration:
			// initial + failure + one per round.
			if got, want := len(em.Phases()), 2+len(seq.Rounds); got != want {
				t.Fatalf("phases = %d, want %d", got, want)
			}
			if got := len(em.ReconfigTimes()); got != len(seq.Rounds) {
				t.Fatalf("round convergences = %d, want %d", got, len(seq.Rounds))
			}
			if em.CtrlBytes == 0 {
				t.Fatal("staged rounds consumed no control-plane bytes")
			}
		})
	}
}

// TestStagedActivationUnderChaos is the differential satellite under
// chaos: with 30% control loss and duplication plus reordering jitter,
// the sequence-numbered staged-round re-flood still brings every router
// to the one-shot end state in each of 16 seeded runs per topology.
func TestStagedActivationUnderChaos(t *testing.T) {
	for _, tc := range stagedCases(t) {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			seq, err := transition.Schedule(tc.plan, tc.fails, transition.Options{SkipCertify: true})
			if err != nil {
				t.Fatal(err)
			}
			for seed := int64(1); seed <= 16; seed++ {
				em, fw := runStaged(t, tc.plan, seq, tc.fails, ChaosConfig{
					Enabled: true, Seed: seed,
					CtrlDrop: 0.30, CtrlDup: 0.15, CtrlJitter: 0.002,
				}, 1, false)
				if em.RefloodRoundsFired() == 0 {
					t.Fatalf("seed %d: staged flood never retransmitted under loss", seed)
				}
				assertStagedFinal(t, em, fw, tc.plan, seq, tc.fails)
			}
		})
	}
}

// TestStagedOutOfOrderInjection forces a multi-round schedule and injects
// its rounds last to first (plus a duplicate injection of the last):
// views buffer the future rounds, apply them all when the gap fills, and
// end identical to in-order one-shot activation. Seven duplex failures on
// a six-node full mesh are more groups than the scheduler's exact search
// takes, so its greedy order activates one group per round.
func TestStagedOutOfOrderInjection(t *testing.T) {
	g := graph.New("k6")
	var n [6]graph.NodeID
	for i := range n {
		n[i] = g.AddNode(string(rune('a' + i)))
	}
	var fails []graph.LinkID
	for i := 0; i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			ab, ba := g.AddDuplex(n[i], n[j], 100, 1, 1)
			// Fail seven of the nine chords; the hexagon a..f and two
			// chords keep the mesh connected.
			if j != i+1 && (i != 0 || j != 5) && len(fails) < 14 {
				fails = append(fails, ab, ba)
			}
		}
	}
	plan, err := core.Precompute(g, traffic.Gravity(g, 30, 11), core.Config{
		Model: core.ArbitraryFailures{F: 1}, Iterations: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := transition.Schedule(plan, fails, transition.Options{SkipCertify: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Rounds) != len(fails)/2 {
		t.Fatalf("greedy schedule produced %d rounds, want one per duplex group (%d)", len(seq.Rounds), len(fails)/2)
	}
	fw := NewR3Distributed(plan)
	em := New(Config{G: g, Forwarder: fw, Seed: 1})
	em.FailAtSilent(0.2, canonicalDirs(g, fails)...)
	// Later rounds first; round 1 arrives last. Re-inject round 2 too.
	last := len(seq.Rounds) - 1
	for i := last; i >= 0; i-- {
		r := seq.Rounds[i]
		em.StageRoundAt(0.25+float64(last-i)*0.2, 0, r.Seq, r.Delta)
	}
	em.StageRoundAt(0.3, 2, seq.Rounds[last].Seq, seq.Rounds[last].Delta) // duplicate injection: no-op
	em.Run(0.25 + float64(len(seq.Rounds))*0.2 + 1.0)
	if got := len(em.stagedDeltas); got != len(seq.Rounds) {
		t.Fatalf("rounds injected = %d, want %d (duplicate must be ignored)", got, len(seq.Rounds))
	}
	assertStagedFinal(t, em, fw, plan, seq, fails)
}

// TestFailAtSilentStaysSilent pins down the silent failure path: the data
// plane drops the link but no notification flood fires, no view learns of
// the failure, and the flood-convergence bookkeeping stays clean.
func TestFailAtSilentStaysSilent(t *testing.T) {
	plan := planForRing5(t)
	g := plan.G
	fw := NewR3Distributed(plan)
	em := New(Config{G: g, Forwarder: fw, Seed: 1})
	em.FailAtSilent(0.2, 0)
	em.Run(1.0)
	if !em.FloodConverged() {
		t.Fatal("silent failure left flood bookkeeping outstanding")
	}
	if em.CtrlBytes != 0 {
		t.Fatalf("silent failure generated %d control bytes", em.CtrlBytes)
	}
	for u := 0; u < g.NumNodes(); u++ {
		if fw.views[u].KnowsFailed(0) {
			t.Fatalf("router %d learned of a silent failure", u)
		}
	}
	if len(em.Phases()) != 2 {
		t.Fatalf("phases = %d, want 2 (failure still bounds a phase)", len(em.Phases()))
	}
}

// TestStagedPropertyEmulated is the emulator half of the property
// satellite: across 16 randomized (topology, traffic, failure-set)
// instances, delivering the scheduler's rounds through a chaotic network
// never trips the always-on invariant checker and always converges to the
// scheduler's end state.
func TestStagedPropertyEmulated(t *testing.T) {
	if testing.Short() {
		t.Skip("16 randomized emulated rollouts")
	}
	for seed := int64(1); seed <= 16; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%02d", seed), func(t *testing.T) {
			t.Parallel()
			g := topo.Mesh(fmt.Sprintf("stage%d", seed), 6, 18, seed, 120)
			d := traffic.Gravity(g, 60+20*float64(seed%4), 3)
			plan, err := core.Precompute(g, d, core.Config{
				Model: core.ArbitraryFailures{F: 1}, Iterations: 40,
			})
			if err != nil {
				t.Fatal(err)
			}
			fails := pickStagedFailures(t, g, seed)
			seq, err := transition.Schedule(plan, fails, transition.Options{SkipCertify: true})
			if err != nil {
				t.Fatal(err)
			}
			em, fw := runStaged(t, plan, seq, fails, ChaosConfig{
				Enabled: true, Seed: seed,
				CtrlDrop: 0.20, CtrlDup: 0.10, CtrlJitter: 0.002,
				dataDrop: 0.01,
			}, seed, true)
			assertStagedFinal(t, em, fw, plan, seq, fails)
		})
	}
}

// pickStagedFailures selects two seed-dependent duplex groups whose
// removal keeps the mesh connected.
func pickStagedFailures(t testing.TB, g *graph.Graph, seed int64) []graph.LinkID {
	t.Helper()
	var duplex []graph.LinkID
	for e := 0; e < g.NumLinks(); e++ {
		if rev := g.Link(graph.LinkID(e)).Reverse; rev > graph.LinkID(e) {
			duplex = append(duplex, graph.LinkID(e))
		}
	}
	n := int64(len(duplex))
	for off := int64(0); off < n*n; off++ {
		a := duplex[(seed+off)%n]
		b := duplex[(seed*3+off/n+off+1)%n]
		if a == b {
			continue
		}
		var dead graph.LinkSet
		for _, e := range []graph.LinkID{a, g.Link(a).Reverse, b, g.Link(b).Reverse} {
			dead.Add(e)
		}
		if g.Connected(&dead) {
			return dead.IDs()
		}
	}
	t.Fatal("no connected 2-duplex failure set found")
	return nil
}
