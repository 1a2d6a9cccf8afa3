package transition

import (
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mcf"
	"repro/internal/mplsff"
	"repro/internal/obs"
	"repro/internal/topo"
	"repro/internal/traffic"
)

var (
	abileneOnce sync.Once
	abilenePlan *core.Plan
	abileneHot  *core.Plan
)

// abilenePlans builds the two Abilene plans the tests share: a
// moderate-load plan (congestion-free, F=1) and an overloaded one that
// forces the fallback paths.
func abilenePlans(t testing.TB) (moderate, hot *core.Plan) {
	t.Helper()
	abileneOnce.Do(func() {
		g := topo.Abilene()
		cfg := core.Config{Model: core.ArbitraryFailures{F: 1}, Iterations: 80}
		var err error
		abilenePlan, err = core.Precompute(g, traffic.Gravity(g, 250, 3), cfg)
		if err != nil {
			t.Fatal(err)
		}
		abileneHot, err = core.Precompute(g, traffic.Gravity(g, 1000, 3), cfg)
		if err != nil {
			t.Fatal(err)
		}
	})
	if abilenePlan == nil || abileneHot == nil {
		t.Fatal("plan precompute failed in an earlier test")
	}
	return abilenePlan, abileneHot
}

// duplexPair returns both directions of the duplex link a–b.
func duplexPair(t testing.TB, g *graph.Graph, a, b string) []graph.LinkID {
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

// oneShot activates the failures on a fresh network in sorted order (the
// canonical order the scheduler reconciles to).
func oneShot(t testing.TB, plan *core.Plan, fails []graph.LinkID) *mplsff.Network {
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

// applyRounds replays a sequence onto a fresh network via the versioned
// delta path and returns the resulting view.
func applyRounds(t testing.TB, plan *core.Plan, seq *Sequence) *mplsff.Network {
	t.Helper()
	view := mplsff.Build(plan)
	for _, r := range seq.Rounds {
		if got := view.ApplyRound(r.Seq, r.Delta); got != 1 {
			t.Fatalf("round %d applied %d rounds, want 1", r.Seq, got)
		}
	}
	return view
}

// TestScheduleAbileneTwoLinkDelta is the acceptance scenario: a plan
// delta induced by a 2-link (duplex) failure set on Abilene must yield
// k ≤ 4 rounds, each LP-certified congestion-free, with the staged end
// state byte-identical to one-shot activation.
func TestScheduleAbileneTwoLinkDelta(t *testing.T) {
	plan, _ := abilenePlans(t)
	g := plan.G
	fails := append(duplexPair(t, g, "Houston", "KansasCity"),
		duplexPair(t, g, "Chicago", "Indianapolis")...)

	reg := obs.NewRegistry()
	seq, err := Schedule(plan, fails, Options{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	if k := len(seq.Rounds); k < 1 || k > 4 {
		t.Fatalf("k = %d rounds, want 1..4", k)
	}
	if !seq.CongestionFree {
		t.Fatalf("sequence not congestion-free: transient MLU %v", seq.TransientMLU)
	}
	for _, r := range seq.Rounds {
		if !r.CongestionFree {
			t.Fatalf("round %d not congestion-free (state %v envelope %v)", r.Seq, r.StateMLU, r.EnvelopeMLU)
		}
		if math.IsNaN(r.LPMLU) || r.LPMLU > 1+1e-6 {
			t.Fatalf("round %d LP certificate %v, want ≤ 1", r.Seq, r.LPMLU)
		}
		if r.LPMLU > r.StateMLU+1e-6 {
			t.Fatalf("round %d: LP optimum %v exceeds the round's own MLU %v", r.Seq, r.LPMLU, r.StateMLU)
		}
	}
	if seq.TransientMLU > 1+1e-6 {
		t.Fatalf("transient MLU %v > 1", seq.TransientMLU)
	}

	ref := oneShot(t, plan, fails)
	if seq.Final.Fingerprint() != ref.Fingerprint() {
		t.Fatal("staged end-state fingerprint differs from one-shot activation")
	}
	view := applyRounds(t, plan, seq)
	if view.Fingerprint() != seq.Final.Fingerprint() {
		t.Fatal("delta-applied view differs from the scheduler's reference network")
	}
	if reg.Counter("transition.rounds").Value() != int64(len(seq.Rounds)) {
		t.Fatal("transition.rounds counter does not match the emitted rounds")
	}
	if reg.Counter("transition.lp_solves").Value() != int64(seq.LPSolves) || seq.LPSolves == 0 {
		t.Fatalf("lp_solves counter %d vs sequence %d", reg.Counter("transition.lp_solves").Value(), seq.LPSolves)
	}
}

// TestScheduleFallbackSwapReconciles drives the overloaded plan through
// the greedy + interim-detour + swap path and checks the end state still
// reconciles byte-identically to one-shot activation.
func TestScheduleFallbackSwapReconciles(t *testing.T) {
	_, hot := abilenePlans(t)
	fails := []graph.LinkID{12, 13, 14, 15}
	seq, err := Schedule(hot, fails, Options{SkipCertify: true})
	if err != nil {
		t.Fatal(err)
	}
	if seq.CongestionFree {
		t.Fatal("overloaded transition reported congestion-free")
	}
	if seq.Fallbacks == 0 {
		t.Fatal("expected LP interim-detour fallbacks on the overloaded plan")
	}
	if seq.Swaps != 1 {
		t.Fatalf("swaps = %d, want exactly 1 reconciliation round", seq.Swaps)
	}
	last := seq.Rounds[len(seq.Rounds)-1]
	if last.Kind != Swap || last.Links != nil {
		t.Fatalf("last round kind %v links %v, want a pure swap", last.Kind, last.Links)
	}
	if seq.TransientMLU < seq.FinalMLU-1e-9 {
		t.Fatalf("transient MLU %v below final MLU %v", seq.TransientMLU, seq.FinalMLU)
	}
	for _, r := range seq.Rounds {
		if !math.IsNaN(r.LPMLU) {
			t.Fatalf("round %d has LPMLU %v with certification disabled", r.Seq, r.LPMLU)
		}
	}

	ref := oneShot(t, hot, fails)
	if seq.Final.Fingerprint() != ref.Fingerprint() {
		t.Fatal("swap round did not reconcile to the one-shot end state")
	}
	view := applyRounds(t, hot, seq)
	if view.Fingerprint() != seq.Final.Fingerprint() {
		t.Fatal("delta-applied view differs from the reference after the swap round")
	}
}

func TestScheduleEmptyAndInvalid(t *testing.T) {
	plan, _ := abilenePlans(t)
	seq, err := Schedule(plan, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Rounds) != 0 || !seq.CongestionFree {
		t.Fatalf("empty failure set: %d rounds, cf=%v", len(seq.Rounds), seq.CongestionFree)
	}
	if seq.Final.Fingerprint() != mplsff.Build(plan).Fingerprint() {
		t.Fatal("empty transition changed the network")
	}
	if _, err := Schedule(plan, []graph.LinkID{99}, Options{}); err == nil {
		t.Fatal("out-of-range link accepted")
	}
	if _, err := Schedule(plan, []graph.LinkID{1, 1}, Options{}); err == nil {
		t.Fatal("duplicate link accepted")
	}
}

// TestSchedulePropertyRandomInstances is the property harness: across
// ≥16 randomized (topology, traffic, failure-pair) instances, every
// round the scheduler emits respects its own feasibility claims, the
// certificate matches an independently computed cold LP solve, and the
// staged end state always reconciles with one-shot activation.
func TestSchedulePropertyRandomInstances(t *testing.T) {
	const seeds = 16
	for seed := int64(1); seed <= seeds; seed++ {
		seed := seed
		t.Run(fmtSeed(seed), func(t *testing.T) {
			t.Parallel()
			g := topo.Mesh("prop", 6, 18, seed, 120)
			// Vary the load regime so both the feasible and the
			// best-effort paths are exercised across the seed set.
			scale := 60 + 25*float64(seed%5)
			d := traffic.Gravity(g, scale, seed)
			plan, err := core.Precompute(g, d, core.Config{Model: core.ArbitraryFailures{F: 1}, Iterations: 40})
			if err != nil {
				t.Fatal(err)
			}
			// Two duplex failure groups chosen by seed, kept connected.
			fails := pickFailures(t, g, seed)
			seq, err := Schedule(plan, fails, Options{})
			if err != nil {
				t.Fatal(err)
			}

			if len(seq.Rounds) == 0 {
				t.Fatal("no rounds for a nonempty failure set")
			}
			tol := 1e-6
			transient := 0.0
			for i, r := range seq.Rounds {
				if r.Seq != i+1 {
					t.Fatalf("round %d has Seq %d", i+1, r.Seq)
				}
				if r.CongestionFree != (r.StateMLU <= 1+tol && r.EnvelopeMLU <= 1+tol) {
					t.Fatalf("round %d congestion-free claim inconsistent with its MLUs", r.Seq)
				}
				if r.EnvelopeMLU < r.StateMLU-1e-9 {
					t.Fatalf("round %d envelope %v below its own end state %v", r.Seq, r.EnvelopeMLU, r.StateMLU)
				}
				if r.EnvelopeMLU > transient {
					transient = r.EnvelopeMLU
				}
				// Differential certificate check: an independent cold LP
				// solve of the post-round scenario must agree with the
				// warm-started certificate chain.
				failed := failedAfter(seq, i)
				cold, err := mcf.MinMLUExact(g, plan.Comms, mcf.Options{Alive: failed.Alive()})
				if err != nil {
					t.Fatalf("round %d cold certificate: %v", r.Seq, err)
				}
				if math.Abs(cold.MLU-r.LPMLU) > 1e-6*(1+cold.MLU) {
					t.Fatalf("round %d: warm certificate %v != cold %v", r.Seq, r.LPMLU, cold.MLU)
				}
				if r.CongestionFree && r.LPMLU > 1+tol {
					t.Fatalf("round %d claimed feasible but the LP optimum is %v", r.Seq, r.LPMLU)
				}
			}
			if seq.CongestionFree && transient > 1+tol {
				t.Fatalf("congestion-free sequence with transient MLU %v", transient)
			}

			if seq.Final.Fingerprint() != oneShot(t, plan, fails).Fingerprint() {
				t.Fatal("staged end state differs from one-shot activation")
			}
			if applyRounds(t, plan, seq).Fingerprint() != seq.Final.Fingerprint() {
				t.Fatal("delta application does not reproduce the reference network")
			}
		})
	}
}

// failedAfter reconstructs the failure set in effect after round index i
// from the emitted deltas alone (not the scheduler's internal state).
func failedAfter(seq *Sequence, i int) graph.LinkSet {
	var s graph.LinkSet
	for _, r := range seq.Rounds[:i+1] {
		for _, e := range r.Delta.Failed {
			s.Add(e)
		}
	}
	return s
}

// pickFailures selects two seed-dependent duplex groups whose removal
// keeps the mesh connected.
func pickFailures(t testing.TB, g *graph.Graph, seed int64) []graph.LinkID {
	t.Helper()
	nL := g.NumLinks()
	var duplex []graph.LinkID // the lower ID of each duplex pair
	for e := 0; e < nL; e++ {
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

func fmtSeed(seed int64) string {
	return "seed" + string(rune('0'+seed/10)) + string(rune('0'+seed%10))
}

// TestScheduleGroupLimit: group subsets are 64-bit masks, so 64 failure
// groups still schedule and 65 are refused with an error — promptly: the
// 65th group's bit used to shift out to zero and the greedy order picked
// it forever.
func TestScheduleGroupLimit(t *testing.T) {
	g := graph.New("ring70")
	for i := 0; i < 70; i++ {
		g.AddNode(fmtSeed(int64(i)))
	}
	for i := 0; i < 70; i++ {
		g.AddDuplex(graph.NodeID(i), graph.NodeID((i+1)%70), 100, 1, 1)
	}
	d := traffic.NewMatrix(70)
	d.Set(0, 35, 10)
	d.Set(20, 50, 10)
	plan, err := core.Precompute(g, d, core.Config{Model: core.ArbitraryFailures{F: 1}, Iterations: 5})
	if err != nil {
		t.Fatal(err)
	}
	fails := make([]graph.LinkID, 2*65)
	for i := range fails {
		fails[i] = graph.LinkID(i)
	}

	seq, err := Schedule(plan, fails[:2*64], Options{SkipCertify: true})
	if err != nil {
		t.Fatalf("64 groups: %v", err)
	}
	if len(seq.Rounds) == 0 || seq.Final.Fingerprint() != oneShot(t, plan, fails[:2*64]).Fingerprint() {
		t.Fatalf("64 groups: %d rounds, or an end state that differs from one-shot activation", len(seq.Rounds))
	}

	refused := make(chan error, 1)
	go func() {
		_, err := Schedule(plan, fails, Options{SkipCertify: true})
		refused <- err
	}()
	select {
	case err := <-refused:
		if err == nil {
			t.Fatal("65 groups scheduled: the subset masks cannot index them")
		}
	case <-time.After(20 * time.Second):
		t.Fatal("Schedule still running on 65 groups after 20 s")
	}
}
