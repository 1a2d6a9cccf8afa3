package netem

import (
	"testing"

	"repro/internal/graph"
)

// TestOverlappingFailuresDuringFlood fails a second link while the first
// failure's notification flood is still propagating: routers learn the
// two failures in different orders, and Theorem 3's order independence
// must still converge every view to the same state.
func TestOverlappingFailuresDuringFlood(t *testing.T) {
	g, d, _ := abileneSetup(t, 150)
	plan := planForAbilene(t, 150)
	fw := NewR3Distributed(plan)
	em := New(Config{G: g, Forwarder: fw, Seed: 4})
	addTM(em, d, 3.0)
	// Two failures 12 ms apart: detection of the first happens at
	// t+10 ms, so its flood overlaps the second failure.
	em.FailAt(1.000, 0)
	em.FailAt(1.012, 12)
	em.Run(3.0)

	assertViewsAgree(t, fw, 4)
	// Traffic still flows: the final phase delivers the vast majority.
	last := em.Phases()[len(em.Phases())-1]
	if float64(totalDelivered(last)) < 0.9*float64(totalOffered(last)) {
		t.Fatalf("final phase delivered %d of %d", totalDelivered(last), totalOffered(last))
	}
}

// TestStackedLabelsUnderOverlap drives a packet path through two
// overlapping failures whose detours nest, exercising label stacking
// depth > 1 end to end.
func TestStackedLabelsUnderOverlap(t *testing.T) {
	g, d, _ := abileneSetup(t, 150)
	plan := planForAbilene(t, 150)
	fw := NewR3Distributed(plan)
	em := New(Config{G: g, Forwarder: fw, Seed: 5})
	addTM(em, d, 4.0)
	// Fail two links that share detour geography (Sunnyvale-Denver and
	// Denver-KansasCity): detours around one often cross the other.
	s, _ := g.NodeByName("Sunnyvale")
	dn, _ := g.NodeByName("Denver")
	kc, _ := g.NodeByName("KansasCity")
	sd, _ := g.FindLink(s, dn)
	dk, _ := g.FindLink(dn, kc)
	em.FailAt(1.0, sd)
	em.FailAt(1.5, dk)
	em.Run(4.0)

	last := em.Phases()[len(em.Phases())-1]
	loss := float64(totalDrops(last)) / float64(totalOffered(last))
	if loss > 0.02 {
		t.Fatalf("steady-state loss %v after overlapping failures", loss)
	}
	for _, id := range []graph.LinkID{sd, dk} {
		if last.LinkBytes[id] != 0 {
			t.Fatalf("failed link %d carried bytes", id)
		}
		rev := g.Link(id).Reverse
		if last.LinkBytes[rev] != 0 {
			t.Fatalf("failed link %d (reverse) carried bytes", rev)
		}
	}
}
