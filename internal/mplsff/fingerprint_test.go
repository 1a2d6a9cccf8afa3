package mplsff

import (
	"testing"

	"repro/internal/graph"
)

// TestFingerprintStableAcrossBuilds: two independent Builds of the same
// plan program identical forwarding state, so their canonical digests
// must agree (router salts are deterministic per node).
func TestFingerprintStableAcrossBuilds(t *testing.T) {
	plan, a := buildAbilene(t)
	b := Build(plan)
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("same plan, different fingerprints: %#x vs %#x", a.Fingerprint(), b.Fingerprint())
	}
}

// TestFingerprintChangesOnFailure: reconfiguring for a failure rewrites
// the FIB and the failed-set, so the digest must move.
func TestFingerprintChangesOnFailure(t *testing.T) {
	_, n := buildAbilene(t)
	before := n.Fingerprint()
	if err := n.OnFailure(0); err != nil {
		t.Fatal(err)
	}
	if n.Fingerprint() == before {
		t.Fatal("fingerprint unchanged by a failure reconfiguration")
	}
}

// TestFingerprintOrderIndependent is the property the emulator's
// view-divergence invariant rests on: applying the same failure set in
// different orders yields the same digest. The ILM rows of failed links
// (frozen detours, legitimately order-dependent — see State.ProtEquals)
// are excluded from the digest, and this test is the proof that the
// exclusion makes the rest order-independent.
func TestFingerprintOrderIndependent(t *testing.T) {
	plan, _ := buildAbilene(t)
	fails := [][]graph.LinkID{{0, 8}, {8, 0}}
	var prints []uint64
	for _, order := range fails {
		n := Build(plan)
		for _, e := range order {
			if err := n.OnFailure(e); err != nil {
				t.Fatal(err)
			}
		}
		prints = append(prints, n.Fingerprint())
	}
	if prints[0] != prints[1] {
		t.Fatalf("failure order leaked into the fingerprint: %#x vs %#x", prints[0], prints[1])
	}
}

// TestFingerprintSeesDivergence: a view that knows of an extra failure
// digests differently — the signal the view-divergence invariant keys on.
func TestFingerprintSeesDivergence(t *testing.T) {
	plan, a := buildAbilene(t)
	b := Build(plan)
	if err := a.OnFailure(0); err != nil {
		t.Fatal(err)
	}
	if err := b.OnFailure(0); err != nil {
		t.Fatal(err)
	}
	if err := b.OnFailure(8); err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("views with different failure knowledge share a fingerprint")
	}
}

// TestStateSharedByClonedNetworks: Build and Clone share the plan's rows
// through the copy-on-write core.State, so a failure applied to one view
// must stay invisible to its clones, to the view it was cloned from and
// to the plan itself.
func TestStateSharedByClonedNetworks(t *testing.T) {
	plan, a := buildAbilene(t)
	wire, err := plan.WireFingerprint()
	if err != nil {
		t.Fatal(err)
	}
	pristine := a.Fingerprint()

	b := a.Clone()
	if err := b.OnFailure(0); err != nil {
		t.Fatal(err)
	}
	c := b.Clone()
	if err := c.OnFailure(8); err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() != pristine {
		t.Fatal("a failure on a clone reprogrammed the network it was cloned from")
	}

	ref := Build(plan)
	if ref.Fingerprint() != pristine {
		t.Fatal("a fresh Build of the plan differs after its clones failed links")
	}
	if err := ref.OnFailure(0); err != nil {
		t.Fatal(err)
	}
	if b.Fingerprint() != ref.Fingerprint() {
		t.Fatal("a failure on a clone of the clone leaked back into it")
	}
	if err := ref.OnFailure(8); err != nil {
		t.Fatal(err)
	}
	if c.Fingerprint() != ref.Fingerprint() {
		t.Fatal("clone of a failed view does not match an independent replay")
	}

	if got, err := plan.WireFingerprint(); err != nil || got != wire {
		t.Fatalf("plan changed under its networks: %016x -> %016x (%v)", wire, got, err)
	}
}
