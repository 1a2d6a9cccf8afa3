package exp

import (
	"io"
	"sort"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/graph"
	"repro/internal/mcf"
	"repro/internal/protect"
	"repro/internal/routing"
	"repro/internal/traffic"
)

// scaleToOptimalMLU rescales d in place so the optimal no-failure MLU on
// g equals target.
func scaleToOptimalMLU(g *graph.Graph, d *traffic.Matrix, target float64) {
	comms := routing.ODCommodities(g.NumNodes(), d.At)
	res := mcf.MinMLU(g, comms, mcf.Options{Iterations: 120})
	if res.MLU > 0 {
		d.Scale(target / res.MLU)
	}
}

// Figure8Result holds prioritized-R3 bottleneck intensities (paper
// Figure 8): for each scenario class (single failures, worst two-failure,
// worst four-failure), per traffic class and per plan (general vs
// prioritized), sorted ascending.
type Figure8Result struct {
	// Panels: "1-link", "2-link worst", "4-link worst".
	Panels []Figure8Panel
}

// Figure8Panel is one subplot.
type Figure8Panel struct {
	Title string
	// Series[label] is a sorted bottleneck intensity series; labels are
	// e.g. "TPRT (R3 with priority)".
	Labels []string
	Series [][]float64
}

// Figure8 evaluates prioritized R3 on the US-ISP-like workload with
// three traffic classes — TPRT (protect against 4 failures), TPP (2) and
// IP (1) — against general R3 that protects everything against one
// failure.
func Figure8(w *USISPWorkload, o Options) *Figure8Result {
	o = o.withDefaults()
	g := w.G
	peak := w.PeakInterval()
	total := w.Week[peak].Clone()
	classes := traffic.SplitClasses(total, 0.12, 0.22, o.Seed+23)

	// Protection levels follow the paper's example — TPRT tolerates four
	// failure events, TPP two, IP one — counted in directed links (each
	// bidirectional failure event takes two).
	prioritized, err := core.PrecomputePrioritized(g, []core.Priority{
		{Demand: classes[traffic.TPRT], F: 8},
		{Demand: classes[traffic.TPP], F: 4},
		{Demand: classes[traffic.IP], F: 2},
	}, core.Config{Iterations: o.Effort, PenaltyEnvelope: penaltyEnvelope, Workers: o.Workers})
	if err != nil {
		panic(err)
	}
	general, err := core.Precompute(g, total, core.Config{
		Model: core.ArbitraryFailures{F: 2}, Iterations: o.Effort,
		PenaltyEnvelope: penaltyEnvelope, Workers: o.Workers,
	})
	if err != nil {
		panic(err)
	}

	events := eval.SingleEvents(g)
	singles := events
	pairs := eval.AllPairs(events)
	if len(pairs) > o.MaxScenarios {
		pairs = eval.Sample(events, 2, o.MaxScenarios, o.Seed+51)
	}
	pairs = eval.FilterConnected(g, pairs)
	quads := eval.FilterConnected(g, eval.Sample(events, 4, o.MaxScenarios, o.Seed+52))

	// Worst scenarios ranked by the general plan's total bottleneck.
	top := func(scenarios []graph.LinkSet, n int) []graph.LinkSet {
		type sb struct {
			s graph.LinkSet
			b float64
		}
		ranked := make([]sb, len(scenarios))
		gs := &eval.R3Scheme{Label: "general", Plan: general}
		for i, sc := range scenarios {
			loads, _ := gs.Loads(sc, total)
			ranked[i] = sb{sc, protect.Bottleneck(g, sc, loads)}
		}
		sort.Slice(ranked, func(i, j int) bool { return ranked[i].b > ranked[j].b })
		if n > len(ranked) {
			n = len(ranked)
		}
		out := make([]graph.LinkSet, n)
		for i := 0; i < n; i++ {
			out[i] = ranked[i].s
		}
		return out
	}

	res := &Figure8Result{}
	panels := []struct {
		title     string
		scenarios []graph.LinkSet
	}{
		{"Figure 8a: 1-link failure events", singles},
		{"Figure 8b: worst-case 2-failure scenarios", top(pairs, 100)},
		{"Figure 8c: worst-case 4-failure scenarios", top(quads, 100)},
	}
	classOrder := []traffic.Class{traffic.IP, traffic.TPP, traffic.TPRT}
	for _, p := range panels {
		panel := Figure8Panel{Title: p.title}
		series := map[string][]float64{}
		for _, sc := range p.scenarios {
			gen := eval.ClassBottlenecks(general, classes, sc)
			pri := eval.ClassBottlenecks(prioritized, classes, sc)
			for _, cls := range classOrder {
				series[cls.String()+" (general R3)"] = append(series[cls.String()+" (general R3)"], gen[cls])
				series[cls.String()+" (R3 with priority)"] = append(series[cls.String()+" (R3 with priority)"], pri[cls])
			}
		}
		for _, cls := range classOrder {
			for _, variant := range []string{" (general R3)", " (R3 with priority)"} {
				label := cls.String() + variant
				vals := series[label]
				sort.Float64s(vals)
				panel.Labels = append(panel.Labels, label)
				panel.Series = append(panel.Series, vals)
			}
		}
		res.Panels = append(res.Panels, panel)
	}
	return res
}

// Print writes all three panels.
func (r *Figure8Result) Print(w io.Writer) {
	for _, p := range r.Panels {
		printSeries(w, p.Title+" (sorted bottleneck intensity)", p.Labels, transpose(p.Series))
	}
}
