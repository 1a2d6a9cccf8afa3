package netem

import (
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/traffic"
)

// ring5Netem builds the 5-node ring with two chords used throughout the
// core tests, plus a cheap F=1 plan (memoized).
var ring5Plan *core.Plan

func planForRing5(t testing.TB) *core.Plan {
	t.Helper()
	if ring5Plan != nil {
		return ring5Plan
	}
	g := graph.New("ring5")
	n := make([]graph.NodeID, 5)
	for i, s := range []string{"a", "b", "c", "d", "e"} {
		n[i] = g.AddNode(s)
	}
	for i := 0; i < 5; i++ {
		g.AddDuplex(n[i], n[(i+1)%5], 100, 1, 1)
	}
	g.AddDuplex(n[0], n[2], 100, 1, 1)
	g.AddDuplex(n[1], n[3], 100, 1, 1)
	d := traffic.Gravity(g, 110, 11)
	plan, err := core.Precompute(g, d, core.Config{
		Model: core.ArbitraryFailures{F: 1}, Iterations: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	ring5Plan = plan
	return plan
}

// TestReliableFloodConverges30PctLoss is the acceptance criterion: with
// chaos dropping 30% of control packets on every link (plus reordering
// jitter), the sequence-numbered re-flood must bring every router of
// R3DistributedForwarder to the identical global view in each of 32
// seeded runs per topology, with zero invariant violations.
func TestReliableFloodConverges30PctLoss(t *testing.T) {
	cases := []struct {
		name  string
		plan  *core.Plan
		fails [2]graph.LinkID
	}{
		{"ring5", planForRing5(t), [2]graph.LinkID{0, 4}},
		{"abilene", planForAbilene(t, 150), [2]graph.LinkID{0, 8}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			g := tc.plan.G
			for seed := int64(1); seed <= 32; seed++ {
				fw := NewR3Distributed(tc.plan)
				em := New(Config{G: g, Forwarder: fw, Seed: 1, Chaos: ChaosConfig{
					Enabled: true, Seed: seed,
					CtrlDrop: 0.30, CtrlJitter: 0.002,
				}})
				em.FailAt(0.2, tc.fails[0])
				em.FailAt(0.35, tc.fails[1])
				em.Run(1.5)

				if !em.FloodConverged() {
					t.Fatalf("seed %d: flood did not converge within 1.15s at 30%% loss", seed)
				}
				want := fw.ViewFingerprint(0)
				for v := 1; v < g.NumNodes(); v++ {
					if got := fw.ViewFingerprint(graph.NodeID(v)); got != want {
						t.Fatalf("seed %d: router %d fingerprint %#x != %#x", seed, v, got, want)
					}
				}
				if n := len(em.Violations()); n != 0 {
					t.Fatalf("seed %d: %d invariant violations: %v", seed, n, em.Violations())
				}
				if em.RefloodRoundsFired() == 0 {
					t.Fatalf("seed %d: reliable flood never retransmitted", seed)
				}
			}
		})
	}
}

// TestFireOnceFloodFailsUnderLoss documents why the reliable flood
// exists: with retransmissions forced off, heavy control loss strands at
// least one run short of full convergence — exactly the failure mode the
// re-flood closes.
func TestFireOnceFloodFailsUnderLoss(t *testing.T) {
	plan := planForRing5(t)
	g := plan.G
	stranded := 0
	for seed := int64(1); seed <= 16; seed++ {
		fw := NewR3Distributed(plan)
		em := New(Config{G: g, Forwarder: fw, Seed: 1,
			refloodRounds: -1, // force the classic fire-once flood
			Chaos:         ChaosConfig{Enabled: true, Seed: seed, CtrlDrop: 0.45},
		})
		em.FailAt(0.2, 0)
		em.Run(1.5)
		if !em.FloodConverged() {
			stranded++
		}
	}
	if stranded == 0 {
		t.Fatal("fire-once flood survived 45% control loss in all 16 runs; the reliable flood would be untestable")
	}
}

// TestRefloodBoundedOverhead: the retransmission schedule is finite —
// after the configured rounds have fired, control traffic stops.
func TestRefloodBoundedOverhead(t *testing.T) {
	plan := planForRing5(t)
	g := plan.G
	fw := NewR3Distributed(plan)
	em := New(Config{G: g, Forwarder: fw, Seed: 1, Chaos: ChaosConfig{
		Enabled: true, Seed: 2, CtrlDrop: 0.30,
	}})
	em.FailAt(0.2, 0)
	// Learn instants are all within ~0.5s; 8 rounds at 50 ms end well
	// before 1.5s.
	em.Run(1.5)
	settled := em.CtrlBytes
	rounds := em.RefloodRoundsFired()
	em.Run(3.0)
	if em.CtrlBytes != settled {
		t.Fatalf("control traffic kept flowing after the re-flood rounds: %d -> %d bytes", settled, em.CtrlBytes)
	}
	if em.RefloodRoundsFired() != rounds {
		t.Fatalf("re-flood rounds kept firing: %d -> %d", rounds, em.RefloodRoundsFired())
	}
	// Upper bound: both directions of the duplex failure, every router,
	// every round (initial relay + 8 retransmissions), every out-link.
	maxMsgs := int64(2 * g.NumNodes() * 9 * 4)
	if em.CtrlBytes > maxMsgs*64 {
		t.Fatalf("flood bytes %d exceed the bounded-overhead ceiling %d", em.CtrlBytes, maxMsgs*64)
	}
}

// TestRefloodSequenceDedup: a router receiving the same (failure, origin,
// seq) twice — chaos duplication — processes it once; sequence numbers
// advance per round.
func TestRefloodSequenceDedup(t *testing.T) {
	plan := planForRing5(t)
	g := plan.G
	fw := NewR3Distributed(plan)
	em := New(Config{G: g, Forwarder: fw, Seed: 1, Chaos: ChaosConfig{
		Enabled: true, Seed: 9, CtrlDup: 0.5, // duplicate half of all control packets
	}})
	em.FailAt(0.2, 0)
	em.Run(1.5)
	if !em.FloodConverged() {
		t.Fatal("duplication broke convergence")
	}
	// Dedup means duplicated deliveries caused no extra reconfigurations:
	// each router reconfigured exactly once per failed direction.
	if got := len(em.ReconfigTimes()); got != 2 {
		t.Fatalf("reconfig completions = %d, want 2 (one per direction)", got)
	}
	for v := 0; v < g.NumNodes(); v++ {
		for key, seq := range em.ctrlSeen[v] {
			_ = key
			if seq > uint32(em.cfg.refloodRounds) {
				t.Fatalf("router %d saw sequence %d beyond the %d scheduled rounds", v, seq, em.cfg.refloodRounds)
			}
		}
	}
}
