package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/traffic"
)

// randomConnectedGraph builds a random duplex graph with n nodes and
// extra chords, minimum degree 2.
func randomConnectedGraph(rng *rand.Rand, n, extra int) *graph.Graph {
	g := graph.New(fmt.Sprintf("rand%d", rng.Int63()))
	ids := make([]graph.NodeID, n)
	for i := 0; i < n; i++ {
		ids[i] = g.AddNode(fmt.Sprintf("n%d", i))
	}
	// Random spanning tree.
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		a := perm[i]
		b := perm[rng.Intn(i)]
		g.AddDuplex(ids[a], ids[b], 50+50*rng.Float64()*2, 1+rng.Float64()*5, 1)
	}
	// Extra chords.
	for k := 0; k < extra; k++ {
		a := rng.Intn(n)
		b := rng.Intn(n)
		if a == b {
			continue
		}
		if _, dup := g.FindLink(ids[a], ids[b]); dup {
			continue
		}
		g.AddDuplex(ids[a], ids[b], 50+100*rng.Float64(), 1+rng.Float64()*5, 1)
	}
	// Ensure degree >= 2 everywhere.
	for i := 0; i < n; i++ {
		for g.Degree(ids[i]) < 2 {
			j := rng.Intn(n)
			if j == i {
				continue
			}
			if _, dup := g.FindLink(ids[i], ids[j]); dup {
				continue
			}
			g.AddDuplex(ids[i], ids[j], 50+100*rng.Float64(), 1+rng.Float64()*5, 1)
		}
	}
	return g
}

// TestTheorem1RandomTopologies is the failure-injection property test:
// across random topologies and demands, any plan whose certificate holds
// (MLU <= 1) keeps every single-link failure within its bound.
func TestTheorem1RandomTopologies(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	verified := 0
	for trial := 0; trial < 12; trial++ {
		n := 5 + rng.Intn(4)
		g := randomConnectedGraph(rng, n, n)
		// Light demand so the certificate usually holds.
		d := traffic.Gravity(g, 0.04*g.TotalCapacity(), rng.Int63())
		plan, err := Precompute(g, d, Config{
			Model: ArbitraryFailures{F: 1}, Iterations: 80,
		})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := validFlow(denseBase(plan), 1e-6); err != nil {
			t.Fatalf("trial %d: base invalid: %v", trial, err)
		}
		if !plan.CongestionFree() {
			continue // no guarantee to check
		}
		verified++
		for e := 0; e < g.NumLinks(); e++ {
			st := NewState(plan)
			if err := st.Fail(graph.LinkID(e)); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if mlu := st.MLU(); mlu > plan.MLU+1e-6 {
				t.Fatalf("trial %d (%s): failing link %d gives MLU %v > plan %v",
					trial, g.Name, e, mlu, plan.MLU)
			}
		}
	}
	if verified < 6 {
		t.Fatalf("only %d/12 trials had a congestion-free plan; demands miscalibrated", verified)
	}
}

// TestOrderIndependenceRandom fuzzes Theorem 3 on random graphs and
// random failure sequences.
func TestOrderIndependenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 8; trial++ {
		g := randomConnectedGraph(rng, 6+rng.Intn(3), 6)
		d := traffic.Gravity(g, 0.05*g.TotalCapacity(), rng.Int63())
		plan, err := Precompute(g, d, Config{Model: ArbitraryFailures{F: 2}, Iterations: 40})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Pick 3 distinct random links whose union keeps the network
		// strongly connected: at a partition the ξ=0 drop convention makes
		// the final state depend on which demands were stranded first, a
		// regime Theorem 3's setting (congestion-free plans, no
		// reachability loss) excludes.
		var seq []graph.LinkID
		for tries := 0; tries < 50; tries++ {
			perm := rng.Perm(g.NumLinks())[:3]
			cand := []graph.LinkID{graph.LinkID(perm[0]), graph.LinkID(perm[1]), graph.LinkID(perm[2])}
			if down := graph.NewLinkSet(cand...); g.Connected(&down) {
				seq = cand
				break
			}
		}
		if seq == nil {
			continue
		}
		ref := NewState(plan)
		if err := ref.FailAll(seq...); err != nil {
			t.Fatal(err)
		}
		// Try two other orders.
		orders := [][]graph.LinkID{
			{seq[2], seq[0], seq[1]},
			{seq[1], seq[2], seq[0]},
		}
		for _, ord := range orders {
			st := NewState(plan)
			if err := st.FailAll(ord...); err != nil {
				t.Fatal(err)
			}
			if !st.ProtEquals(ref, 1e-9) || !st.BaseEquals(ref, 1e-9) {
				t.Fatalf("trial %d: order %v diverged from %v", trial, ord, seq)
			}
		}
	}
}

// TestRescalingConservesTraffic verifies that online reconfiguration
// never creates or destroys base traffic while the network stays
// connected: every commodity keeps delivering its full demand.
func TestRescalingConservesTraffic(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 8; trial++ {
		g := randomConnectedGraph(rng, 6, 8)
		d := traffic.Gravity(g, 0.05*g.TotalCapacity(), rng.Int63())
		plan, err := Precompute(g, d, Config{Model: ArbitraryFailures{F: 1}, Iterations: 40})
		if err != nil {
			t.Fatal(err)
		}
		for e := 0; e < g.NumLinks(); e++ {
			fail := graph.NewLinkSet(graph.LinkID(e))
			if !g.Connected(&fail) {
				continue
			}
			st := NewState(plan)
			if err := st.Fail(graph.LinkID(e)); err != nil {
				t.Fatal(err)
			}
			for k := range plan.Comms {
				if del := st.Delivered(k); del < 1-1e-6 {
					t.Fatalf("trial %d link %d: commodity %d delivers %v", trial, e, k, del)
				}
			}
		}
	}
}
