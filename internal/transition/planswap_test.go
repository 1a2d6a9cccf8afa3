package transition

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/mplsff"
	"repro/internal/obs"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// planPair precomputes two Abilene plans over different traffic matrices
// — the daemon's "traffic shifted, re-precompute, swap" situation.
func planPair(t testing.TB) (old, next *core.Plan) {
	t.Helper()
	g := topo.Abilene()
	cfg := core.Config{Model: core.ArbitraryFailures{F: 1}, Iterations: 60}
	old, err := core.Precompute(g, traffic.Gravity(g, 250, 3), cfg)
	if err != nil {
		t.Fatal(err)
	}
	next, err = core.Precompute(g, traffic.Gravity(g, 300, 7), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return old, next
}

// TestSchedulePlanSwapAppliesToNextPlan checks the core contract: the
// single swap round's delta transforms the old plan's network into
// exactly the next plan's network (fingerprint identity), with the
// elementwise-max envelope and an LP certificate attached.
func TestSchedulePlanSwapAppliesToNextPlan(t *testing.T) {
	old, next := planPair(t)
	reg := obs.NewRegistry()
	seq, err := SchedulePlanSwap(old, next, Options{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Rounds) != 1 || seq.Swaps != 1 {
		t.Fatalf("want exactly one swap round, got %d rounds (%d swaps)", len(seq.Rounds), seq.Swaps)
	}
	round := seq.Rounds[0]
	if round.Kind != Swap || round.Seq != 1 || len(round.Links) != 0 {
		t.Fatalf("unexpected round shape: kind=%v seq=%d links=%v", round.Kind, round.Seq, round.Links)
	}

	// Applying the round to the old network must land exactly on the
	// next plan's network.
	n := mplsff.Build(old)
	if applied := n.ApplyRound(1, round.Delta); applied != 1 {
		t.Fatalf("ApplyRound applied %d rounds, want 1", applied)
	}
	if got, want := n.Fingerprint(), mplsff.Build(next).Fingerprint(); got != want {
		t.Fatalf("post-swap fingerprint %x != next plan fingerprint %x", got, want)
	}
	if got, want := n.Fingerprint(), seq.Final.Fingerprint(); got != want {
		t.Fatalf("post-swap fingerprint %x != Sequence.Final %x", got, want)
	}
	// The round is the whole plan-to-plan delta: non-empty, and applying
	// it unversioned reproduces the target network too.
	if round.Delta.Empty() {
		t.Fatal("diff of two different plans is empty")
	}
	raw := mplsff.Build(old)
	raw.ApplyDelta(round.Delta)
	if raw.Fingerprint() != mplsff.Build(next).Fingerprint() {
		t.Fatal("applying the plan delta does not reproduce the target plan's network")
	}

	// Envelope: at least both end states' MLUs (each commodity routes the
	// old or new way, so either pure state is one realizable extreme).
	oldMLU := old.NormalMLU
	if round.EnvelopeMLU+1e-12 < oldMLU || round.EnvelopeMLU+1e-12 < round.StateMLU {
		t.Fatalf("envelope %v below an endpoint (old %v, new %v)", round.EnvelopeMLU, oldMLU, round.StateMLU)
	}
	// Certificate: the exact LP lower-bounds the achieved no-failure MLU.
	if math.IsNaN(round.LPMLU) {
		t.Fatalf("LP certificate missing")
	}
	if round.LPMLU > round.StateMLU+1e-6 {
		t.Fatalf("LP optimum %v exceeds achieved MLU %v", round.LPMLU, round.StateMLU)
	}
	if seq.LPSolves != 1 || seq.Basis == nil {
		t.Fatalf("want 1 LP solve with a basis for warm-starting, got %d (basis %v)", seq.LPSolves, seq.Basis != nil)
	}
	if reg.Snapshot().Counters["transition.plan_swaps"] != 1 {
		t.Fatalf("plan_swaps counter not incremented")
	}
}

// TestSchedulePlanSwapIdentity: diffing a plan against itself is a
// zero-round sequence (nothing to distribute).
func TestSchedulePlanSwapIdentity(t *testing.T) {
	old, _ := planPair(t)
	seq, err := SchedulePlanSwap(old, old, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Rounds) != 0 || !seq.CongestionFree {
		t.Fatalf("self-swap produced %d rounds (congestion-free %v)", len(seq.Rounds), seq.CongestionFree)
	}
	if got, want := seq.Final.Fingerprint(), mplsff.Build(old).Fingerprint(); got != want {
		t.Fatalf("identity swap Final %x != plan network %x", got, want)
	}
}

// TestSchedulePlanSwapSkipCertify: rollbacks skip the LP; the delta and
// envelope still ship and no LP is solved.
func TestSchedulePlanSwapSkipCertify(t *testing.T) {
	old, next := planPair(t)
	seq, err := SchedulePlanSwap(old, next, Options{SkipCertify: true})
	if err != nil {
		t.Fatal(err)
	}
	if seq.LPSolves != 0 {
		t.Fatalf("SkipCertify still solved %d LPs", seq.LPSolves)
	}
	if len(seq.Rounds) != 1 || !math.IsNaN(seq.Rounds[0].LPMLU) {
		t.Fatalf("want one uncertified round, got %+v", seq.Rounds)
	}
}

// TestSchedulePlanSwapTopologyMismatch rejects plans over different
// topologies — a row-level delta across changed link identities would be
// garbage.
func TestSchedulePlanSwapTopologyMismatch(t *testing.T) {
	old, _ := planPair(t)
	g2 := topo.SBC()
	other, err := core.Precompute(g2, traffic.Gravity(g2, 100, 1), core.Config{Iterations: 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SchedulePlanSwap(old, other, Options{}); err == nil {
		t.Fatal("plan swap across topologies did not error")
	}
}
