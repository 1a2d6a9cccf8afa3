package exp

import (
	"io"
	"sort"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/graph"
	"repro/internal/protect"
	"repro/internal/traffic"
)

// usispSchemes builds the Fig 3/4/5 scheme lineup on the US-ISP-like
// workload: OSPF weights are optimized for the day, R3 plans cover the
// day's traffic envelope with the SRLG/MLG failure model.
func usispSchemes(w *USISPWorkload, day []*traffic.Matrix, k int, o Options) (*graph.Graph, []protect.Scheme) {
	g := w.G.Clone()
	optimizeDayWeights(g, day, o)
	env := envelopeTM(day)
	model := core.ModelFromGraph(g, k)

	mplsPlan, err := core.Precompute(g, env, core.Config{
		Model: model, Iterations: o.Effort, PenaltyEnvelope: penaltyEnvelope,
		Workers: o.Workers, Obs: o.Obs,
	})
	if err != nil {
		panic(err)
	}
	ospfPlan := ospfR3Plan(g, env, model, o)
	return g, lineup(g, ospfPlan, mplsPlan, o)
}

// singleFailureDay is one day's single-failure evaluation, the data of
// both Figure 3 and Figure 4: per hourly interval, each scheme's worst
// bottleneck over every SRLG/MLG event and the worst optimal bottleneck.
type singleFailureDay struct {
	g *graph.Graph // the workload graph with the day's optimized weights
	// worst[i][j] is interval i's worst bottleneck for SchemeOrder[j].
	worst [][]float64
	// opt[i] is interval i's worst optimal (per-event) bottleneck.
	opt []float64
}

// dayKey identifies a day's evaluation: the day and every option that
// moves a result (Obs, Workers and Shards never do).
type dayKey struct {
	day int
	o   Options
}

// singleFailures evaluates day i once per workload and option set, so
// Figure 4 reuses the day Figure 3 already evaluated in the same process
// (a repeated call records nothing in o.Obs).
func (w *USISPWorkload) singleFailures(i int, o Options) *singleFailureDay {
	key := dayKey{i, o}
	key.o.Obs, key.o.Workers, key.o.Shards = nil, 0, 0
	w.mu.Lock()
	defer w.mu.Unlock()
	if ev, ok := w.days[key]; ok {
		return ev
	}
	day := w.Day(i)
	g, schemes := usispSchemes(w, day, 1, o)
	events := eval.SingleEvents(g)
	en := newEngine(g, schemes, o)
	ev := &singleFailureDay{g: g}
	for _, d := range day {
		results := en.Evaluate(d, events)
		worst := eval.WorstCase(results)
		row := make([]float64, len(SchemeOrder))
		for j, name := range SchemeOrder {
			row[j] = worst[name]
		}
		wOpt := 0.0
		for _, r := range results {
			if r.Optimal > wOpt {
				wOpt = r.Optimal
			}
		}
		ev.worst = append(ev.worst, row)
		ev.opt = append(ev.opt, wOpt)
	}
	if w.days == nil {
		w.days = make(map[dayKey]*singleFailureDay)
	}
	w.days[key] = ev
	return ev
}

// Figure3Result is the normalized worst-case bottleneck per interval per
// scheme over one day (paper Figure 3).
type Figure3Result struct {
	Schemes []string
	// Rows[i][j] is interval i's normalized worst-case bottleneck for
	// scheme j; the last column is the optimal-with-failure line.
	Rows [][]float64
}

// Figure3 reproduces the single-failure time series for the US-ISP-like
// network: per hourly interval, the worst bottleneck over all single
// failure events (SRLGs and MLGs), normalized by the highest no-failure
// optimal bottleneck in the trace.
func Figure3(w *USISPWorkload, dayIdx int, o Options) *Figure3Result {
	o = o.withDefaults()
	ev := w.singleFailures(dayIdx, o)

	// Normalization constant: highest no-failure optimal bottleneck.
	norm := 0.0
	opt := &protect.Optimal{G: ev.g, Iterations: o.OptIter}
	for _, d := range w.Day(dayIdx) {
		loads, _ := opt.Loads(graph.LinkSet{}, d)
		if b := protect.Bottleneck(ev.g, graph.LinkSet{}, loads); b > norm {
			norm = b
		}
	}

	res := &Figure3Result{Schemes: append(append([]string(nil), SchemeOrder...), "optimal")}
	for i, worst := range ev.worst {
		row := make([]float64, 0, len(res.Schemes))
		for _, b := range worst {
			row = append(row, b/norm)
		}
		// Optimal-with-failure line: worst over events of the optimal
		// bottleneck.
		row = append(row, ev.opt[i]/norm)
		res.Rows = append(res.Rows, row)
	}
	return res
}

// Print writes the series.
func (r *Figure3Result) Print(w io.Writer) {
	printSeries(w, "Figure 3: normalized worst-case bottleneck, single failure events, one day (US-ISP-like)", r.Schemes, r.Rows)
}

// Figure4Result is the sorted per-interval performance ratio over a week
// (paper Figure 4).
type Figure4Result struct {
	Schemes []string
	// Sorted[j] is scheme j's ascending per-interval ratio series.
	Sorted [][]float64
}

// Figure4 reproduces the week-long single-failure summary: for every
// hourly interval, each scheme's worst-case bottleneck over single
// failure events is divided by the worst-case optimal bottleneck, and the
// 168 ratios are reported sorted.
func Figure4(w *USISPWorkload, o Options) *Figure4Result {
	o = o.withDefaults()
	res := &Figure4Result{Schemes: append([]string(nil), SchemeOrder...)}
	perScheme := make([][]float64, len(SchemeOrder))
	for day := 0; day < o.Days; day++ {
		ev := w.singleFailures(day, o)
		for i, worst := range ev.worst {
			wOpt := ev.opt[i]
			for j, b := range worst {
				ratio := 1.0
				if wOpt > 0 {
					ratio = b / wOpt
					if ratio < 1 {
						ratio = 1
					}
				}
				perScheme[j] = append(perScheme[j], ratio)
			}
		}
	}
	for _, s := range perScheme {
		sort.Float64s(s)
		res.Sorted = append(res.Sorted, s)
	}
	return res
}

// Print writes the sorted ratio series, one x per interval rank.
func (r *Figure4Result) Print(w io.Writer) {
	printSeries(w, "Figure 4: sorted performance ratio, single failure events, one week (US-ISP-like)", r.Schemes, transpose(r.Sorted))
}

// MultiFailureResult is the sorted performance ratio across multi-failure
// scenarios (Figures 5, 6 and 7).
type MultiFailureResult struct {
	Title   string
	Schemes []string
	Sorted  [][]float64
}

// Print writes the sorted series.
func (r *MultiFailureResult) Print(w io.Writer) {
	printSeries(w, r.Title, r.Schemes, transpose(r.Sorted))
}

// multiFailure evaluates sorted performance ratios for scenarios built
// from base events.
func multiFailure(title string, g *graph.Graph, schemes []protect.Scheme, d *traffic.Matrix, scenarios []graph.LinkSet, o Options) *MultiFailureResult {
	results := newEngine(g, schemes, o).Evaluate(d, scenarios)
	res := &MultiFailureResult{Title: title, Schemes: schemeNames(schemes)}
	for _, name := range res.Schemes {
		res.Sorted = append(res.Sorted, eval.SortedRatios(results, name))
	}
	return res
}

func schemeNames(schemes []protect.Scheme) []string {
	names := make([]string, len(schemes))
	for i, s := range schemes {
		names[i] = s.Name()
	}
	return names
}

// Figure5 reproduces the US-ISP multi-failure evaluation at the weekly
// peak hour: all pairs of failure events (capped at MaxScenarios by
// sampling) and sampled triples.
func Figure5(w *USISPWorkload, failures int, o Options) *MultiFailureResult {
	o = o.withDefaults()
	peak := w.PeakInterval()
	day := w.Day(peak / 24)
	g, schemes := usispSchemes(w, day, failures, o)
	events := eval.SingleEvents(g)

	var scenarios []graph.LinkSet
	if failures == 2 {
		scenarios = eval.AllPairs(events)
		if len(scenarios) > o.MaxScenarios {
			scenarios = eval.Sample(events, 2, o.MaxScenarios, o.Seed+41)
		}
	} else {
		scenarios = eval.Sample(events, failures, o.MaxScenarios, o.Seed+42)
	}
	scenarios = eval.FilterConnected(g, scenarios)
	title := "Figure 5a: sorted performance ratio, two failures, US-ISP-like peak hour"
	if failures != 2 {
		title = "Figure 5b: sorted performance ratio, sampled three failures, US-ISP-like peak hour"
	}
	return multiFailure(title, g, schemes, w.Week[peak], scenarios, o)
}

// Figure9Result is the no-failure normalized MLU time series (paper
// Figure 9): R3 without penalty envelope, OSPF with optimized weights, R3
// with the envelope, and optimal.
type Figure9Result struct {
	Schemes []string
	Rows    [][]float64
}

// Figure9 demonstrates the penalty envelope: a week of no-failure
// intervals comparing R3 with and without the 10% envelope against OSPF
// and optimal routing.
func Figure9(w *USISPWorkload, beta float64, o Options) *Figure9Result {
	o = o.withDefaults()
	res := &Figure9Result{Schemes: []string{"R3 no PE", "OSPF", "R3", "optimal"}}

	var norm float64
	for day := 0; day < o.Days; day++ {
		dayTMs := w.Day(day)
		g := w.G.Clone()
		optimizeDayWeights(g, dayTMs, o)
		env := envelopeTM(dayTMs)
		model := core.ModelFromGraph(g, 1)
		noPE, err := core.Precompute(g, env, core.Config{Model: model, Iterations: o.Effort, Workers: o.Workers})
		if err != nil {
			panic(err)
		}
		withPE, err := core.Precompute(g, env, core.Config{Model: model, Iterations: o.Effort, PenaltyEnvelope: beta, Workers: o.Workers})
		if err != nil {
			panic(err)
		}
		opt := &protect.Optimal{G: g, Iterations: o.OptIter}
		recon := &protect.OSPFRecon{G: g}
		none := graph.LinkSet{}
		for _, d := range dayTMs {
			row := make([]float64, 4)
			// R3 base routings under this interval's traffic.
			row[0] = planBottleneck(noPE, d)
			ol, _ := recon.Loads(none, d)
			row[1] = protect.Bottleneck(g, none, ol)
			row[2] = planBottleneck(withPE, d)
			opl, _ := opt.Loads(none, d)
			row[3] = protect.Bottleneck(g, none, opl)
			if row[3] > norm {
				norm = row[3]
			}
			res.Rows = append(res.Rows, row)
		}
	}
	for _, row := range res.Rows {
		for j := range row {
			row[j] /= norm
		}
	}
	return res
}

// planBottleneck is a plan's base-routing bottleneck under demand d with
// no failures.
func planBottleneck(plan *core.Plan, d *traffic.Matrix) float64 {
	st := core.NewState(plan)
	st.SetDemands(d.At)
	return protect.Bottleneck(plan.G, graph.LinkSet{}, st.Loads())
}

// Print writes the series.
func (r *Figure9Result) Print(w io.Writer) {
	printSeries(w, "Figure 9: normalized no-failure MLU over a week (penalty envelope)", r.Schemes, r.Rows)
}

// Figure10Result compares R3 on two base routings (paper Figure 10).
type Figure10Result struct {
	Schemes []string
	// SortedSingle and SortedDouble are ascending normalized MLU series.
	SortedSingle [][]float64
	SortedDouble [][]float64
}

// Figure10 shows base-routing robustness: OSPFInvCap+R3 versus
// optimized-OSPF+R3 at the peak hour, across single failure events and
// event pairs, as sorted normalized bottleneck intensity.
func Figure10(w *USISPWorkload, o Options) *Figure10Result {
	o = o.withDefaults()
	peak := w.PeakInterval()
	day := w.Day(peak / 24)
	d := w.Week[peak]
	env := envelopeTM(day)

	// Optimized-weight base.
	gOpt := w.G.Clone()
	optimizeDayWeights(gOpt, day, o)
	model := core.ModelFromGraph(gOpt, 1)
	planOpt := ospfR3Plan(gOpt, env, model, o)

	// Inverse-capacity base.
	gInv := w.G.Clone()
	invCapWeights(gInv)
	planInv := ospfR3Plan(gInv, env, core.ModelFromGraph(gInv, 1), o)

	schemes := []protect.Scheme{
		&eval.R3Scheme{Label: "OSPFInvCap+R3", Plan: planInv},
		&eval.R3Scheme{Label: "OSPF+R3", Plan: planOpt},
	}

	// Normalization: the peak interval's optimal no-failure bottleneck.
	opt := &protect.Optimal{G: gOpt, Iterations: o.OptIter}
	ol, _ := opt.Loads(graph.LinkSet{}, d)
	norm := protect.Bottleneck(gOpt, graph.LinkSet{}, ol)

	events := eval.SingleEvents(w.G)
	res := &Figure10Result{Schemes: schemeNames(schemes)}
	res.SortedSingle = sortedNormalized(gOpt, schemes, d, events, norm)
	pairs := eval.AllPairs(events)
	if len(pairs) > o.MaxScenarios {
		pairs = eval.Sample(events, 2, o.MaxScenarios, o.Seed+43)
	}
	pairs = eval.FilterConnected(w.G, pairs)
	res.SortedDouble = sortedNormalized(gOpt, schemes, d, pairs, norm)
	return res
}

func sortedNormalized(g *graph.Graph, schemes []protect.Scheme, d *traffic.Matrix, scenarios []graph.LinkSet, norm float64) [][]float64 {
	out := make([][]float64, len(schemes))
	for j, s := range schemes {
		vals := make([]float64, len(scenarios))
		for i, sc := range scenarios {
			loads, _ := s.Loads(sc, d)
			vals[i] = protect.Bottleneck(g, sc, loads) / norm
		}
		sort.Float64s(vals)
		out[j] = vals
	}
	return out
}

// Print writes both panels.
func (r *Figure10Result) Print(w io.Writer) {
	printSeries(w, "Figure 10a: sorted normalized bottleneck, single failure events", r.Schemes, transpose(r.SortedSingle))
	printSeries(w, "Figure 10b: sorted normalized bottleneck, two failure events", r.Schemes, transpose(r.SortedDouble))
}

func transpose(cols [][]float64) [][]float64 {
	if len(cols) == 0 {
		return nil
	}
	rows := make([][]float64, len(cols[0]))
	for i := range rows {
		row := make([]float64, len(cols))
		for j := range cols {
			row[j] = cols[j][i]
		}
		rows[i] = row
	}
	return rows
}
