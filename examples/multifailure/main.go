// Multifailure: R3 on the Abilene backbone under the paper's Emulab
// failure sequence (Houston–KansasCity, Chicago–Indianapolis,
// Sunnyvale–Denver), compared against OSPF reconvergence and CSPF
// fast-reroute, with order-independence of the reconfiguration verified
// along the way.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/graph"
	"repro/internal/protect"
	"repro/internal/topo"
	"repro/internal/traffic"
)

func main() {
	g := topo.Abilene()
	d := traffic.AbileneMatrix(g, 220)

	plan, err := core.Precompute(g, d, core.Config{
		Model:      core.ArbitraryFailures{F: 3},
		Iterations: 250,
		// The paper's evaluations bound normal-case MLU to 1.1x optimal
		// (the penalty envelope of §3.5); without it the base routing is
		// distorted by worst cases that cannot occur.
		PenaltyEnvelope: 1.1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("R3 plan for up to 3 failures: MLU over d+X3 = %.3f\n", plan.MLU)

	// The Emulab failure sequence, both directions of each link.
	var seq []graph.LinkID
	for _, pair := range [][2]string{
		{"Houston", "KansasCity"},
		{"Chicago", "Indianapolis"},
		{"Sunnyvale", "Denver"},
	} {
		a, _ := g.NodeByName(pair[0])
		b, _ := g.NodeByName(pair[1])
		ab, _ := g.FindLink(a, b)
		seq = append(seq, ab, g.Link(ab).Reverse)
	}

	// Apply failures one at a time, reporting the bottleneck after each.
	schemes := []protect.Scheme{
		&eval.R3Scheme{Label: "MPLS-ff+R3", Plan: plan},
		&protect.OSPFRecon{G: g},
		&protect.CSPFDetour{G: g},
	}
	fmt.Println("\nbottleneck utilization as failures accumulate:")
	fmt.Printf("%-12s %-12s %-12s %-18s\n", "failures", "MPLS-ff+R3", "OSPF+recon", "OSPF+CSPF-detour")
	cum := graph.LinkSet{}
	for step := 0; step <= 3; step++ {
		if step > 0 {
			cum.Add(seq[2*step-2])
			cum.Add(seq[2*step-1])
		}
		fmt.Printf("%-12d", step)
		for _, s := range schemes {
			loads := s.Loads(cum, d)
			fmt.Printf(" %-12.3f", protect.Bottleneck(g, cum, loads))
		}
		fmt.Println()
	}

	// Theorem 3: apply the six links in two different orders and compare
	// the resulting routing state.
	st1 := core.NewState(plan)
	st2 := core.NewState(plan)
	if err := st1.FailAll(seq...); err != nil {
		log.Fatal(err)
	}
	rev := make([]graph.LinkID, len(seq))
	for i, e := range seq {
		rev[len(seq)-1-i] = e
	}
	if err := st2.FailAll(rev...); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\norder independence across 6 link failures: %v\n",
		st1.ProtEquals(st2, 1e-9) && st1.BaseEquals(st2, 1e-9))
}
