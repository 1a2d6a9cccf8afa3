package netem

import (
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/mplsff"
)

// overflowForwarder violates the stack-depth invariant on purpose: every
// decision grows the label stack past the bound yet claims success.
type overflowForwarder struct {
	g *graph.Graph
}

func (f *overflowForwarder) Name() string                { return "overflow" }
func (f *overflowForwarder) ApplyFailure(e graph.LinkID) {}
func (f *overflowForwarder) Forward(u graph.NodeID, pk *Packet) (graph.LinkID, bool) {
	for len(pk.Stack) <= mplsff.MaxStackDepth {
		pk.Stack = append(pk.Stack, mplsff.ProtLabelBase)
	}
	return f.g.Out(u)[0], true
}

func TestInvariantStackDepth(t *testing.T) {
	plan := planForRing5(t)
	g := plan.G
	var got []Violation
	em := New(Config{G: g, Forwarder: &overflowForwarder{g: g}, Seed: 1,
		OnViolation: func(v Violation) { got = append(got, v) }})
	em.AddPing(0, 1, 0.1, 0.3)
	em.Run(0.3)
	if len(got) == 0 {
		t.Fatal("stack overflow past the bound went undetected")
	}
	if got[0].Kind != "stack-depth" {
		t.Fatalf("violation kind = %q, want stack-depth", got[0].Kind)
	}
	if len(em.Violations()) != len(got) {
		t.Fatalf("Violations() kept %d records, callback saw %d", len(em.Violations()), len(got))
	}
}

func TestInvariantViewDivergence(t *testing.T) {
	plan := planForRing5(t)
	g := plan.G
	fw := NewR3Distributed(plan)
	var got []Violation
	em := New(Config{G: g, Forwarder: fw, Seed: 1,
		OnViolation: func(v Violation) { got = append(got, v) }})
	// Poison one router's view with a failure the flood will never
	// announce: when the real failure's flood completes, router 3's
	// fingerprint cannot match the others.
	fw.OnNotification(3, 2)
	em.FailAt(0.1, 0)
	em.Run(1.0)
	found := false
	for _, v := range got {
		if v.Kind == "view-divergence" {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("poisoned view not caught at convergence; violations: %v", got)
	}
}

func TestInvariantPhaseCapacity(t *testing.T) {
	plan := planForRing5(t)
	g := plan.G
	var got []Violation
	em := New(Config{G: g, Forwarder: NewR3Distributed(plan), Seed: 1,
		OnViolation: func(v Violation) { got = append(got, v) }})
	// Craft a phase whose counters claim a 100 Mbps link carried 10x its
	// capacity for a second; Theorem 2's checker must reject it.
	p := &PhaseStats{Start: 0, End: 1, LinkBytes: make([]int64, g.NumLinks())}
	p.LinkBytes[0] = int64(10 * g.Link(0).Capacity * 1e6 / 8)
	em.inv.checkPhaseCapacity(p)
	if len(got) != 1 || got[0].Kind != "capacity" {
		t.Fatalf("overdriven link not caught: %v", got)
	}
	// Exactly at capacity (plus nothing) must pass.
	got = nil
	p.LinkBytes[0] = int64(g.Link(0).Capacity * 1e6 / 8)
	em.inv.checkPhaseCapacity(p)
	if len(got) != 0 {
		t.Fatalf("at-capacity phase falsely flagged: %v", got)
	}
}

func TestInvariantDeadLinkTx(t *testing.T) {
	plan := planForRing5(t)
	g := plan.G
	var got []Violation
	em := New(Config{G: g, Forwarder: NewR3Distributed(plan), Seed: 1,
		OnViolation: func(v Violation) { got = append(got, v) }})
	em.linkUp[0] = false
	em.inv.checkTx(0)
	if len(got) != 1 || got[0].Kind != "dead-link-tx" {
		t.Fatalf("transmit onto a dead link not caught: %v", got)
	}
}

// TestInvariantPanicIncludesSeeds: without an OnViolation handler a breach
// panics, and the message carries the seeds and event trace needed to
// reproduce the run.
func TestInvariantPanicIncludesSeeds(t *testing.T) {
	plan := planForRing5(t)
	g := plan.G
	em := New(Config{G: g, Forwarder: NewR3Distributed(plan), Seed: 41,
		Chaos: ChaosConfig{Enabled: true, Seed: 17}})
	em.linkUp[0] = false
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("violation without OnViolation did not panic")
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("panic payload %T, want string", r)
		}
		for _, want := range []string{"dead-link-tx", "seed=41", "chaos.seed=17", "recent events"} {
			if !strings.Contains(msg, want) {
				t.Errorf("panic message missing %q:\n%s", want, msg)
			}
		}
	}()
	em.inv.checkTx(0)
}

// TestInvariantCleanRunsStayQuiet: the checker is always on, so the
// standard healthy scenarios must record nothing — with and without
// chaos (this is asserted per-test elsewhere too; here it is the
// explicit contract of the invariant layer).
func TestInvariantCleanRunsStayQuiet(t *testing.T) {
	for _, cfg := range []Config{
		{},
		{Chaos: ChaosConfig{Enabled: true, Seed: 11, CtrlDrop: 0.2, dataDrop: 0.02}},
	} {
		em := goldenScenario(t, cfg)
		if n := len(em.Violations()); n != 0 {
			t.Fatalf("healthy run (chaos=%v) recorded %d violations: %v",
				cfg.Chaos.Enabled, n, em.Violations())
		}
	}
}

var _ ViewInspector = (*R3DistributedForwarder)(nil)
