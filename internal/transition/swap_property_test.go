package transition

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mplsff"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// swapRing5 mirrors the core test fixture: a 5-node ring with two
// chords, generous capacities.
func swapRing5() *graph.Graph {
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
	return g
}

// TestSwapPropertyRandomPairs is the multi-round swap property harness:
// across 16 random plan pairs on ring5 and Abilene, (a) whenever the
// scheduler claims a congestion-free decomposition, every round's
// envelope and post-state are within tolerance; (b) the staged end state
// is byte-identical to one-shot mplsff.Build(next); and (c) delivering
// the rounds through any duplicated/reordered schedule leaves the view
// identical to in-order application.
func TestSwapPropertyRandomPairs(t *testing.T) {
	type instance struct {
		g        *graph.Graph
		totalOld float64
		totalNew float64
		effort   int
	}
	cases := make([]instance, 0, 16)
	for seed := 0; seed < 10; seed++ {
		g := swapRing5()
		cases = append(cases, instance{g, 350 + 45*float64(seed%4), 480 + 60*float64(seed%3), 40})
	}
	for seed := 0; seed < 6; seed++ {
		g := topo.Abilene()
		cap := g.TotalCapacity()
		cases = append(cases, instance{g, cap * (0.10 + 0.02*float64(seed%3)), cap * (0.13 + 0.03*float64(seed%2)), 30})
	}

	for seed, tc := range cases {
		seed, tc := seed, tc
		t.Run(fmtSeed(int64(seed)), func(t *testing.T) {
			t.Parallel()
			cfg := core.Config{Model: core.ArbitraryFailures{F: 1}, Iterations: tc.effort}
			old, err := core.Precompute(tc.g, traffic.Gravity(tc.g, tc.totalOld, int64(seed+1)), cfg)
			if err != nil {
				t.Fatal(err)
			}
			next, err := core.Precompute(tc.g, traffic.Gravity(tc.g, tc.totalNew, int64(seed+101)), cfg)
			if err != nil {
				t.Fatal(err)
			}
			seq, err := SchedulePlanSwap(old, next, Options{SkipCertify: true})
			if err != nil {
				t.Fatal(err)
			}
			if seq.CongestionFree {
				for _, r := range seq.Rounds {
					if r.EnvelopeMLU > 1+1e-6 || r.StateMLU > 1+1e-6 {
						t.Fatalf("claimed congestion-free, but round %d has envelope %v state %v",
							r.Seq, r.EnvelopeMLU, r.StateMLU)
					}
				}
			}

			want := mplsff.Build(next).Fingerprint()

			// In-order application.
			inOrder := mplsff.Build(old)
			for _, r := range seq.Rounds {
				inOrder.ApplyRound(r.Seq, r.Delta)
			}
			if got := inOrder.Fingerprint(); got != want {
				t.Fatalf("in-order staged end state %x != one-shot %x", got, want)
			}

			// Duplicated + reordered delivery: a random permutation, then
			// every round a second time, must be indistinguishable.
			chaos := mplsff.Build(old)
			rng := rand.New(rand.NewSource(int64(seed) * 7919))
			for _, i := range rng.Perm(len(seq.Rounds)) {
				r := seq.Rounds[i]
				chaos.ApplyRound(r.Seq, r.Delta)
			}
			for _, i := range rng.Perm(len(seq.Rounds)) {
				r := seq.Rounds[i]
				chaos.ApplyRound(r.Seq, r.Delta)
			}
			if got := chaos.Fingerprint(); got != want {
				t.Fatalf("dup/reorder delivery %x != in-order %x", got, want)
			}
		})
	}
}
