package netem

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// TestTheorem3NotificationOrderIndependence is the property test for
// Theorem 3 at the emulation layer: whatever adversarial order the
// notification flood delivers failures to each router — reordered across
// routers, duplicated, partially delayed so some routers reconfigure
// long after others — all views must converge to the same fingerprint.
func TestTheorem3NotificationOrderIndependence(t *testing.T) {
	plan := planForAbilene(t, 150)
	g := plan.G
	fails := []graph.LinkID{0, 8}
	var ids []graph.LinkID
	for _, e := range fails {
		ids = append(ids, e)
		if rev := g.Link(e).Reverse; rev >= 0 {
			ids = append(ids, rev)
		}
	}

	// Reference: every router notified in canonical order.
	ref := NewR3Distributed(plan)
	for v := 0; v < g.NumNodes(); v++ {
		for _, e := range ids {
			ref.OnNotification(graph.NodeID(v), e)
		}
	}
	want := ref.ViewFingerprint(0)
	for v := 1; v < g.NumNodes(); v++ {
		if got := ref.ViewFingerprint(graph.NodeID(v)); got != want {
			t.Fatalf("reference views disagree: router %d", v)
		}
	}

	const permutations = 24
	for seed := int64(0); seed < permutations; seed++ {
		rng := rand.New(rand.NewSource(seed))
		fw := NewR3Distributed(plan)
		// Build one adversarial delivery schedule: for each router an
		// independent permutation of the failure set with 1–3 duplicate
		// deliveries of each notification, then interleave the routers'
		// schedules randomly (partial delay: a router may sit on a stale
		// view while every other router finishes reconfiguring).
		type delivery struct {
			u graph.NodeID
			e graph.LinkID
		}
		var schedule []delivery
		for v := 0; v < g.NumNodes(); v++ {
			perm := rng.Perm(len(ids))
			for _, pi := range perm {
				for c := 1 + rng.Intn(3); c > 0; c-- {
					schedule = append(schedule, delivery{graph.NodeID(v), ids[pi]})
				}
			}
		}
		rng.Shuffle(len(schedule), func(i, j int) {
			schedule[i], schedule[j] = schedule[j], schedule[i]
		})
		for _, d := range schedule {
			fw.OnNotification(d.u, d.e)
		}
		for v := 0; v < g.NumNodes(); v++ {
			if got := fw.ViewFingerprint(graph.NodeID(v)); got != want {
				t.Fatalf("permutation seed %d: router %d fingerprint %#x != reference %#x (order dependence!)",
					seed, v, got, want)
			}
		}
	}
}

// TestTheorem3UnderEmulatedChaos runs the same property end-to-end: the
// chaos layer reorders, duplicates and delays the actual notification
// flood, and the emulator's view-divergence invariant plus a final
// fingerprint sweep certify order independence.
func TestTheorem3UnderEmulatedChaos(t *testing.T) {
	plan := planForAbilene(t, 150)
	g := plan.G
	for seed := int64(1); seed <= 8; seed++ {
		fw := NewR3Distributed(plan)
		em := New(Config{G: g, Forwarder: fw, Seed: 1, Chaos: ChaosConfig{
			Enabled: true, Seed: seed,
			CtrlDrop: 0.2, CtrlDup: 0.3, CtrlJitter: 0.030, detectJitter: 0.020,
		}})
		em.FailAt(0.2, 0)
		em.FailAt(0.3, 8)
		em.Run(2.0)
		if !em.FloodConverged() {
			t.Fatalf("seed %d: not converged", seed)
		}
		want := fw.ViewFingerprint(0)
		for v := 1; v < g.NumNodes(); v++ {
			if got := fw.ViewFingerprint(graph.NodeID(v)); got != want {
				t.Fatalf("seed %d: router %d diverged under chaos flood", seed, v)
			}
		}
		if n := len(em.Violations()); n != 0 {
			t.Fatalf("seed %d: violations %v", seed, em.Violations())
		}
	}
}
