package mplsff

import (
	"testing"

	"repro/internal/graph"
)

// deltaSequence builds the per-failure round deltas for a failure list:
// round i carries the row-level difference caused by failure i.
func deltaSequence(t *testing.T, failures []graph.LinkID) (rounds []*Delta, final *Network) {
	t.Helper()
	plan, _ := buildAbilene(t)
	prev := Build(plan)
	next := Build(plan)
	for _, e := range failures {
		if err := next.OnFailure(e); err != nil {
			t.Fatal(err)
		}
		rounds = append(rounds, Diff(prev, next))
		if err := prev.OnFailure(e); err != nil {
			t.Fatal(err)
		}
	}
	return rounds, next
}

func TestDiffOfEqualNetworksIsEmpty(t *testing.T) {
	plan, n := buildAbilene(t)
	m := Build(plan)
	if d := Diff(n, m); !d.Empty() {
		t.Fatalf("diff of two identical builds is not empty: %d rows, failed %v",
			len(d.rows), d.Failed)
	}
	if (&Delta{}).WireSize() <= 0 {
		t.Fatal("empty delta has nonpositive wire size")
	}
}

func TestDiffApplyRoundTrip(t *testing.T) {
	failures := []graph.LinkID{0, 2, 5}
	rounds, want := deltaSequence(t, failures)
	plan, _ := buildAbilene(t)
	view := Build(plan)
	for i, d := range rounds {
		if d.Empty() {
			t.Fatalf("round %d delta is empty", i+1)
		}
		if d.WireSize() <= 8 {
			t.Fatalf("round %d wire size %d implausibly small", i+1, d.WireSize())
		}
		if got := view.ApplyRound(i+1, d); got != 1 {
			t.Fatalf("round %d: applied %d rounds, want 1", i+1, got)
		}
	}
	if view.Fingerprint() != want.Fingerprint() {
		t.Fatal("delta-driven view fingerprint differs from OnFailure-driven network")
	}
	for _, e := range failures {
		if !view.KnowsFailed(e) {
			t.Fatalf("view does not know link %d failed", e)
		}
	}
	if view.nextRound-1 != len(rounds) || len(view.pending) != 0 {
		t.Fatalf("rounds applied %d pending %d, want %d and 0",
			view.nextRound-1, len(view.pending), len(rounds))
	}
}

// TestApplyRoundIdempotentReorder is the satellite test: duplicated and
// reordered round deliveries leave the view identical to a single
// in-order delivery.
func TestApplyRoundIdempotentReorder(t *testing.T) {
	rounds, want := deltaSequence(t, []graph.LinkID{0, 2, 5})
	plan, _ := buildAbilene(t)

	// Reference: exactly once, in order.
	ref := Build(plan)
	for i, d := range rounds {
		ref.ApplyRound(i+1, d)
	}
	if ref.Fingerprint() != want.Fingerprint() {
		t.Fatal("in-order reference diverges from OnFailure network")
	}

	// Chaotic delivery: out of order with duplicates, including a
	// duplicate of an already-applied round.
	view := Build(plan)
	if got := view.ApplyRound(3, rounds[2]); got != 0 {
		t.Fatalf("future round applied %d rounds, want 0 (buffered)", got)
	}
	if len(view.pending) != 1 {
		t.Fatalf("pending = %d, want 1", len(view.pending))
	}
	if got := view.ApplyRound(3, rounds[2]); got != 0 {
		t.Fatal("duplicate future round applied something")
	}
	if got := view.ApplyRound(1, rounds[0]); got != 1 {
		t.Fatalf("round 1 applied %d rounds, want 1", got)
	}
	if got := view.ApplyRound(1, rounds[0]); got != 0 {
		t.Fatal("duplicate of applied round re-applied")
	}
	if got := view.ApplyRound(2, rounds[1]); got != 2 {
		t.Fatalf("gap fill applied %d rounds, want 2 (round 2 + buffered 3)", got)
	}
	if got := view.ApplyRound(2, rounds[1]); got != 0 {
		t.Fatal("late duplicate re-applied")
	}
	if view.Fingerprint() != ref.Fingerprint() {
		t.Fatal("chaotic delivery fingerprint differs from in-order delivery")
	}
	if view.nextRound-1 != 3 || len(view.pending) != 0 {
		t.Fatalf("rounds applied %d pending %d, want 3 and 0",
			view.nextRound-1, len(view.pending))
	}
}

// TestApplyDeltaCopies: one Delta applied to two views leaves them
// independent. The views share the delta's rows, so reprogramming one
// must change neither the other nor the delta.
func TestApplyDeltaCopies(t *testing.T) {
	rounds, _ := deltaSequence(t, []graph.LinkID{0})
	plan, _ := buildAbilene(t)
	a, b := Build(plan), Build(plan)
	a.ApplyRound(1, rounds[0])
	b.ApplyRound(1, rounds[0])
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("same delta produced different views")
	}
	fp := b.Fingerprint()
	if err := a.OnFailure(8); err != nil {
		t.Fatal(err)
	}
	c := plan.Comms[0]
	a.SetFIBRow([2]graph.NodeID{c.Src, c.Dst}, nil)
	if b.Fingerprint() != fp {
		t.Fatal("reprogramming one view leaked into another")
	}
	d := Build(plan)
	d.ApplyRound(1, rounds[0])
	if fp != d.Fingerprint() {
		t.Fatal("reprogramming one view leaked into the shared delta")
	}
}
