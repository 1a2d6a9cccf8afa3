package exp

import (
	"sync"

	"repro/internal/graph"
	"repro/internal/mcf"
	"repro/internal/routing"
	"repro/internal/spf"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// USISPWorkload is the synthetic stand-in for the paper's proprietary
// US-ISP data: the 20-PoP topology with SRLG/MLG structure plus one week
// of hourly traffic matrices, scaled so the peak-hour optimal MLU sits in
// a realistic operating range (~0.55).
type USISPWorkload struct {
	G    *graph.Graph
	Week []*traffic.Matrix

	mu   sync.Mutex
	days map[dayKey]*singleFailureDay // Figures 3 and 4 share these
}

// NewUSISP builds the workload deterministically.
func NewUSISP(o Options) *USISPWorkload {
	o = o.withDefaults()
	g := topo.USISP()
	base := traffic.Gravity(g, 1000, o.Seed+31)
	week := traffic.DiurnalSeries(base, 7*24, o.Seed+32)
	// Scale so the envelope's optimal MLU is 0.55.
	env := envelopeTM(week)
	comms := routing.ODCommodities(g.NumNodes(), env.At)
	res := mcf.MinMLU(g, comms, mcf.Options{Iterations: 120})
	scale := 0.55 / res.MLU
	for _, m := range week {
		m.Scale(scale)
	}
	return &USISPWorkload{G: g, Week: week}
}

// Day returns the 24 matrices of day i (0-based).
func (w *USISPWorkload) Day(i int) []*traffic.Matrix {
	return w.Week[i*24 : (i+1)*24]
}

// PeakInterval returns the index of the busiest hour of the week.
func (w *USISPWorkload) PeakInterval() int {
	return traffic.PeakIndex(w.Week)
}

// optimizeDayWeights sets OSPF weights on g optimized for the day's 24
// matrices, as the paper does with the IGP weight optimization of [13].
func optimizeDayWeights(g *graph.Graph, day []*traffic.Matrix, o Options) {
	demands := make([]func(a, b graph.NodeID) float64, len(day))
	for i, m := range day {
		demands[i] = m.At
	}
	spf.OptimizeWeights(g, demands, spf.OptimizeOptions{
		Rounds: o.WeightOptRounds, Seed: o.Seed + 5,
	})
}
