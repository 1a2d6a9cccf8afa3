package core

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// TestProtectionSweepPlanDigests pins the wire fingerprints of plans whose
// p block sweep runs through each of its per-model pieces outside the
// top-F and knapsack kernels' common cases: the K=1 group kernel, the
// generic path (GroupFailures with K > 1, per-link β, a knapsack walk over
// 32 steps, F > 32) and top-F at F equal to the link count, where the
// static worst load is the buffer-order sum and the reference's index-order
// one differs in the last ulp. The digests are those of the plans produced
// when two sweeps served these models; flat-SPF solves give the same.
func TestProtectionSweepPlanDigests(t *testing.T) {
	perLink := func(g *graph.Graph) []float64 {
		b := make([]float64, g.NumLinks())
		for i := range b {
			b[i] = 0.2 + 0.05*float64(i%7)
		}
		return b
	}
	groups := func(g *graph.Graph, k int) FailureModel {
		srlgs, mlgs := oracleGroups(g)
		return GroupFailures{SRLGs: srlgs, MLGs: mlgs, K: k}
	}
	cases := []struct {
		name     string
		g        func() *graph.Graph
		model    func(g *graph.Graph) FailureModel
		envelope float64
		digest   uint64
	}{
		{"abilene-grp1", topo.Abilene, func(g *graph.Graph) FailureModel { return groups(g, 1) }, 0, 0xc5b8b3da0523da45},
		{"abilene-grp2", topo.Abilene, func(g *graph.Graph) FailureModel { return groups(g, 2) }, 0, 0x5ecffb6a11d71f2a},
		{"abilene-grp2-pinned", topo.Abilene, func(g *graph.Graph) FailureModel { return groups(g, 2) }, 1.1, 0x559ad1e3c573dc6a},
		{"sbc-grp3", topo.SBC, func(g *graph.Graph) FailureModel { return groups(g, 3) }, 0, 0x5493664d8d346dcf},
		{"abilene-F=links", topo.Abilene, func(g *graph.Graph) FailureModel { return ArbitraryFailures{F: g.NumLinks()} }, 0, 0x6e8452a3627a3f61},
		{"ring5-F=links", func() *graph.Graph { return ring5(t) }, func(g *graph.Graph) FailureModel { return ArbitraryFailures{F: g.NumLinks()} }, 0, 0xbb2e43e5952f6246},
		{"sbc-F40", topo.SBC, func(*graph.Graph) FailureModel { return ArbitraryFailures{F: 40} }, 0, 0x9be2bae3eee22ce7},
		{"abilene-linkbeta", topo.Abilene, func(g *graph.Graph) FailureModel {
			return DegradationModel{Beta: 0.5, Budget: 2, LinkBeta: perLink(g)}
		}, 0, 0x7f0b80e0494d6ca5},
		{"abilene-walk50", topo.Abilene, func(*graph.Graph) FailureModel { return DegradationModel{Beta: 0.01, Budget: 0.5} }, 0, 0x13ac848737ba10cd},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.g()
			d := traffic.Gravity(g, 0.15*g.TotalCapacity(), 1)
			cfg := Config{Model: tc.model(g), Iterations: 60, Workers: 1, PenaltyEnvelope: tc.envelope, kernel: kernelIncremental}
			plan, err := Precompute(g, d, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := plan.WireFingerprint()
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.digest {
				t.Fatalf("digest %016x (MLU %v), pinned %016x", got, plan.MLU, tc.digest)
			}
		})
	}
}
