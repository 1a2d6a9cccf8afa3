package exp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mplsff"
	"repro/internal/netem"
	"repro/internal/routing"
	"repro/internal/traffic"
	"repro/internal/transition"
)

// swapHubPlans builds the crossing-commodities construct the swap
// scheduler's tests pin down: sources a,b and sinks c,d around a narrow
// two-path core u→{x,y}→v. The old plan routes a-sourced commodities via
// x and b-sourced via y; the new plan trades them. Both endpoints are
// feasible (60/100 per core link) but the asynchronous mixing envelope
// of a one-shot swap is 120/100, so the scheduler must decompose.
func swapHubPlans(effort int) (*core.Plan, *core.Plan, *traffic.Matrix) {
	g := graph.New("swaphub")
	ids := map[string]graph.NodeID{}
	for _, s := range []string{"a", "b", "c", "d", "u", "v", "x", "y"} {
		ids[s] = g.AddNode(s)
	}
	duplex := func(p, q string, c float64) { g.AddDuplex(ids[p], ids[q], c, 1, 1) }
	duplex("a", "u", 1000)
	duplex("b", "u", 1000)
	duplex("v", "c", 1000)
	duplex("v", "d", 1000)
	duplex("a", "b", 1000)
	duplex("c", "d", 1000)
	duplex("u", "x", 100)
	duplex("x", "v", 100)
	duplex("u", "y", 100)
	duplex("y", "v", 100)

	const dem = 30.0
	build := func(via map[[2]string]string) (*core.Plan, *traffic.Matrix) {
		d := traffic.NewMatrix(g.NumNodes())
		var comms []routing.Commodity
		var paths [][]graph.NodeID
		for od, mid := range via {
			src, dst := ids[od[0]], ids[od[1]]
			d.Set(src, dst, dem)
			comms = append(comms, routing.Commodity{Src: src, Dst: dst, Demand: dem})
			paths = append(paths, []graph.NodeID{src, ids["u"], ids[mid], ids["v"], dst})
		}
		base := routing.NewFlow(g, comms)
		for k, p := range paths {
			for i := 0; i+1 < len(p); i++ {
				e, ok := g.FindLink(p[i], p[i+1])
				if !ok {
					panic(fmt.Sprintf("no link %v->%v", p[i], p[i+1]))
				}
				base.Frac[k][e] = 1
			}
		}
		plan, err := core.Precompute(g, d, core.Config{
			Model: core.ArbitraryFailures{F: 1}, BaseRouting: base, Iterations: effort,
		})
		if err != nil {
			panic(err)
		}
		return plan, d
	}
	crossing := func(first, second string) map[[2]string]string {
		return map[[2]string]string{
			{"a", "c"}: first, {"a", "d"}: first,
			{"b", "c"}: second, {"b", "d"}: second,
		}
	}
	old, d := build(crossing("x", "y"))
	next, _ := build(crossing("y", "x"))
	return old, next, d
}

// SwapSweep compares a staged plan swap against one-shot installation of
// the target plan across seeded chaos runs, on the crossing-commodities
// construct. The staged run delivers the swap scheduler's rounds through
// the staged-round flood; the one-shot run floods the entire old→new
// delta as a single round, so routers cut over asynchronously as the
// flood reaches them — exactly the unsound mixing the scheduler's
// per-commodity envelope bounds.
func SwapSweep(cfg EmulationConfig, seeds int) *StagedSummary {
	cfg.defaults()
	old, next, d := swapHubPlans(cfg.Effort)
	seq, err := transition.SchedulePlanSwap(old, next, transition.Options{SkipCertify: true, Obs: cfg.Obs})
	if err != nil {
		panic(err)
	}
	oneShot := mplsff.Diff(mplsff.Build(old), mplsff.Build(next))
	sum := &StagedSummary{
		Title:      "Staged vs one-shot plan swap (crossing commodities over a two-path core)",
		OneShotMLU: transition.OneShotEnvelope(old, next),
	}
	return stagedSweep(cfg, seeds, sum, old, d, seq, func(em *netem.Emulator, staged bool) func() bool {
		if staged {
			stageRounds(em, seq, sweepWarmup)
		} else {
			em.StageRoundAt(sweepWarmup, 0, 1, oneShot)
		}
		return em.StagesConverged
	})
}
