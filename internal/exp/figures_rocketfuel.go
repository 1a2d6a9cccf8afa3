package exp

import (
	"fmt"

	"repro/internal/eval"
	"repro/internal/graph"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// RocketfuelFigure reproduces Figures 6 (SBC) and 7 (Level-3): sorted
// performance ratios under all two-link failures and sampled three-link
// failures, with a gravity-model traffic matrix. failures selects 2 or 3.
func RocketfuelFigure(network string, failures int, o Options) *MultiFailureResult {
	o = o.withDefaults()
	var g *graph.Graph
	switch network {
	case "SBC":
		g = topo.SBC()
	case "Level3":
		g = topo.Level3()
	case "UUNet":
		g = topo.UUNet()
	default:
		panic(fmt.Sprintf("exp: unknown Rocketfuel network %q", network))
	}
	// One random gravity matrix, scaled to a realistic operating point.
	d := traffic.Gravity(g, 1000, o.Seed+17)
	scaleToOptimalMLU(g, d, 0.5)

	// Failure events are bidirectional (a fiber cut takes both directed
	// links), so protecting against `failures` events means covering
	// 2×failures directed links.
	schemes := standardSchemes(g, d, 2*failures, o)
	events := eval.DuplexPairs(g)
	var scenarios []graph.LinkSet
	if failures == 2 {
		scenarios = eval.AllPairs(events)
		if len(scenarios) > o.MaxScenarios*2 {
			scenarios = eval.Sample(events, 2, o.MaxScenarios*2, o.Seed+44)
		}
	} else {
		scenarios = eval.Sample(events, failures, o.MaxScenarios, o.Seed+45)
	}
	scenarios = eval.FilterConnected(g, scenarios)
	title := fmt.Sprintf("sorted performance ratio, %d failures: %s", failures, network)
	return multiFailure(title, g, schemes, d, scenarios, o)
}
