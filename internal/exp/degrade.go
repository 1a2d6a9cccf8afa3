package exp

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/protect"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// DegradeSweepRow aggregates one scenario kind of the degradation sweep.
type DegradeSweepRow struct {
	Kind  string
	Count int
	// Worst is the worst bottleneck intensity per scheme over the kind's
	// scenarios; WorstRatio the worst performance ratio.
	Worst      map[string]float64
	WorstRatio map[string]float64
}

// DegradeSweepResult is the outcome of DegradationSweep: an R3 plan
// protected against the degradation envelope X_D (and optionally a surge
// envelope) compared against the classic X_F plan over a mixed scenario
// population — hard failures, sampled in-budget degradations, node
// outages and the surge itself.
type DegradeSweepResult struct {
	Spec core.WorkloadSpec
	// CertifiedFailure / CertifiedDegrade are the plans' offline MLU
	// bounds (what each precompute certified for its own envelope).
	CertifiedFailure, CertifiedDegrade float64
	Rows                               []DegradeSweepRow
	// Schemes lists scheme names in presentation order.
	Schemes []string
}

// degradeSchemeFailure and degradeSchemeEnvelope label the two plans.
const (
	degradeSchemeFailure  = "MPLS-ff+R3 (X_F)"
	degradeSchemeEnvelope = "MPLS-ff+R3 (X_D)"
)

// DegradationSweep runs the generalized-scenario experiment on Abilene:
// precompute one plan against the classic single-failure set X_F and one
// against the degradation envelope X_D of spec (per-link capacity floor
// alpha, total budget B; plus the surge envelope when spec surges), then
// evaluate both — and OSPF reconvergence as the non-reconfiguring
// baseline — over single-link failures, sampled in-budget degradations,
// every node outage, and the surged matrix. A zero-valued spec defaults
// to alpha=0.5, budget=1.
func DegradationSweep(spec core.WorkloadSpec, o Options) *DegradeSweepResult {
	o = o.withDefaults()
	if !spec.Degrades() {
		spec.Alpha, spec.Budget = 0.5, 1
	}
	g := topo.Abilene()
	d := traffic.Gravity(g, 4000, o.Seed+77)
	scaleToOptimalMLU(g, d, 0.4)
	model := core.DegradationModel{Beta: 1 - spec.Alpha, Budget: spec.Budget}

	failPlan, err := core.Precompute(g, d, core.Config{
		Model: core.ArbitraryFailures{F: 1}, Iterations: o.Effort,
		Workers: o.Workers, Obs: o.Obs,
	})
	if err != nil {
		panic(fmt.Sprintf("exp: degrade sweep X_F precompute: %v", err))
	}
	degrPlan, err := core.Precompute(g, d, core.Config{
		Model: model, Surge: spec.SurgeSpec(), Iterations: o.Effort,
		Workers: o.Workers, Obs: o.Obs,
	})
	if err != nil {
		panic(fmt.Sprintf("exp: degrade sweep X_D precompute: %v", err))
	}

	var scs []core.Scenario
	scs = append(scs, eval.FailureScenarios(eval.SingleLinks(g))...)
	nDegr := o.MaxScenarios / 2
	if nDegr > 200 {
		nDegr = 200
	}
	scs = append(scs, core.SampleDegradations(g, model, nDegr, o.Seed+101)...)
	scs = append(scs, core.NodeScenarios(g)...)
	if spec.Surges() {
		scs = append(scs, spec.SurgeSpec().Scenario(d))
	}

	en := newEngine(g, []protect.Scheme{
		&protect.OSPFRecon{G: g},
		&eval.R3Scheme{Label: degradeSchemeFailure, Plan: failPlan},
		&eval.R3Scheme{Label: degradeSchemeEnvelope, Plan: degrPlan},
	}, o)
	results := en.EvaluateScenarios(d, scs)

	byKind := map[string]*DegradeSweepRow{}
	var kinds []string
	for i := range results {
		r := &results[i]
		row := byKind[r.Kind]
		if row == nil {
			row = &DegradeSweepRow{
				Kind:       r.Kind,
				Worst:      map[string]float64{},
				WorstRatio: map[string]float64{},
			}
			byKind[r.Kind] = row
			kinds = append(kinds, r.Kind)
		}
		row.Count++
		for name, b := range r.Bottleneck {
			if b > row.Worst[name] {
				row.Worst[name] = b
			}
			if ratio := r.Ratio(name); ratio > row.WorstRatio[name] {
				row.WorstRatio[name] = ratio
			}
		}
	}
	sort.Strings(kinds)
	out := &DegradeSweepResult{
		Spec:             spec,
		CertifiedFailure: failPlan.MLU, CertifiedDegrade: degrPlan.MLU,
		Schemes: []string{"OSPF+recon", degradeSchemeFailure, degradeSchemeEnvelope},
	}
	for _, k := range kinds {
		out.Rows = append(out.Rows, *byKind[k])
	}
	return out
}

// Print writes the sweep table.
func (r *DegradeSweepResult) Print(w io.Writer) {
	fmt.Fprintf(w, "# Degradation-envelope sweep (Abilene, %s)\n", r.Spec)
	fmt.Fprintf(w, "# certified MLU: X_F plan %.4f, X_D plan %.4f\n",
		r.CertifiedFailure, r.CertifiedDegrade)
	fmt.Fprintf(w, "%-12s %6s", "kind", "n")
	for _, s := range r.Schemes {
		fmt.Fprintf(w, " %22s", s+" worst")
	}
	fmt.Fprintln(w)
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-12s %6d", row.Kind, row.Count)
		for _, s := range r.Schemes {
			fmt.Fprintf(w, " %22.4f", row.Worst[s])
		}
		fmt.Fprintln(w)
	}
}
