// Package exp contains one driver per table and figure of the paper's
// evaluation (§5). Each driver builds its workload, runs the schemes, and
// returns a result that can print the same rows/series the paper reports.
//
// Scale note: drivers accept an Options controlling solver effort and
// scenario counts; cmd/r3sim prints every series at full scale (or at
// Quick scale), and this package's tests assert the paper's claims at a
// reduced scale. Reproduction targets are shapes (who wins, by what
// factor), not absolute numbers — see EXPERIMENTS.md.
package exp

import (
	"fmt"
	"io"
	"sync"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/protect"
	"repro/internal/routing"
	"repro/internal/spf"
	"repro/internal/traffic"
)

// Options tunes experiment scale.
type Options struct {
	// Effort is the offline precompute effort (core.Config.Iterations);
	// default 150.
	Effort int
	// OptIter is the per-scenario optimal solver effort; default 80.
	OptIter int
	// MaxScenarios caps multi-failure scenario counts; default 1100 (the
	// paper's sample size).
	MaxScenarios int
	// WeightOptRounds bounds the OSPF weight optimizer; default 40.
	WeightOptRounds int
	// Days bounds week-scale experiments (Figures 4 and 9); default 7.
	Days int
	// Envelope is the normal-case penalty envelope β applied to every R3
	// plan, as the paper's evaluation does (§3.5, Figure 9); default 1.1.
	// Set negative to disable.
	Envelope float64
	// Seed drives sampling.
	Seed int64
	// Workers bounds precompute and evaluation concurrency (default
	// GOMAXPROCS; 1 forces serial): in the FW solver the oracle fan-outs
	// and the gradient-cost accumulation, in the evaluation engine the
	// scenario shards. Plans and results are bit-identical for every worker count,
	// so Workers is purely a speed knob — and below a few hundred links it
	// is expected to buy ≈ 1.0× on the solver (DESIGN.md §6).
	Workers int
	// Obs, when non-nil, threads the observability registry through the
	// drivers: FW/LP precompute counters and traces, and the evaluation
	// engine's per-scenario metrics all land in it. Purely passive —
	// results are identical with or without it.
	Obs *obs.Registry
	// Shards sets the evaluation engine's scenario shard count (see
	// eval.Engine.Shards); 0 picks automatically. Results are
	// byte-identical at every shard count, so this is purely a
	// parallelism knob.
	Shards int
}

func (o Options) withDefaults() Options {
	if o.Effort == 0 {
		o.Effort = 150
	}
	if o.OptIter == 0 {
		o.OptIter = 80
	}
	if o.MaxScenarios == 0 {
		o.MaxScenarios = 1100
	}
	if o.WeightOptRounds == 0 {
		o.WeightOptRounds = 40
	}
	if o.Days == 0 {
		o.Days = 7
	}
	if o.Envelope == 0 {
		o.Envelope = 1.1
	}
	return o
}

// Quick returns reduced-scale options for tests and smoke runs.
func Quick() Options {
	return Options{Effort: 60, OptIter: 40, MaxScenarios: 60, WeightOptRounds: 8, Days: 2, Seed: 1}
}

// planCache memoizes R3 precomputations shared across experiments in one
// process (e.g. Table 2 and Table 3 reuse plans). The key deliberately
// excludes Options.Workers: the solver guarantees bit-identical plans for
// every worker count, so a plan computed at any parallelism serves all.
var planCache sync.Map

type planKey struct {
	topo     string
	f        int
	effort   int
	envelope float64
	demand   int64 // traffic-matrix fingerprint
}

// r3Plan precomputes (or fetches) the joint MPLS-ff+R3 plan for g and d
// with the standard penalty envelope.
func r3Plan(g *graph.Graph, d *traffic.Matrix, f int, o Options) *core.Plan {
	key := planKey{g.Name, f, o.Effort, o.Envelope, int64(d.Total() * 1e6)}
	if v, ok := planCache.Load(key); ok {
		return v.(*core.Plan)
	}
	plan, err := core.Precompute(g, d, core.Config{
		Model:           core.ArbitraryFailures{F: f},
		Iterations:      o.Effort,
		PenaltyEnvelope: envelopeOf(o),
		Workers:         o.Workers,
		Obs:             o.Obs,
	})
	if err != nil {
		panic(fmt.Sprintf("exp: precompute %s: %v", g.Name, err))
	}
	planCache.Store(key, plan)
	return plan
}

// envelopeOf maps the option to a core.Config value (0 disables).
func envelopeOf(o Options) float64 {
	if o.Envelope < 0 {
		return 0
	}
	return o.Envelope
}

// ospfR3Plan precomputes OSPF+R3: the base routing is fixed to ECMP on
// the graph's current weights and only the protection routing is
// optimized (the envelope is moot: the base is not a variable).
func ospfR3Plan(g *graph.Graph, d *traffic.Matrix, model core.FailureModel, o Options) *core.Plan {
	comms := routing.ODCommodities(g.NumNodes(), d.At)
	plan, err := core.Precompute(g, d, core.Config{
		Model: model, BaseRouting: spf.ECMPFlow(g, comms, nil, spf.WeightCost(g)),
		Iterations: o.Effort, Workers: o.Workers, Obs: o.Obs,
	})
	if err != nil {
		panic(err)
	}
	return plan
}

// invCapWeights applies Cisco-style inverse-capacity weights, referenced
// to the largest capacity in the graph.
func invCapWeights(g *graph.Graph) {
	ref := 0.0
	for _, l := range g.Links() {
		if l.Capacity > ref {
			ref = l.Capacity
		}
	}
	spf.InvCapWeights(g, ref)
}

// standardSchemes assembles the paper's scheme lineup for a topology:
// OSPF+CSPF-detour, OSPF+recon, FCP, PathSplice, OSPF+R3, OSPF+opt and
// MPLS-ff+R3 (optimal is the engine's built-in denominator).
func standardSchemes(g *graph.Graph, d *traffic.Matrix, f int, o Options) []protect.Scheme {
	ospfPlan := ospfR3Plan(g, d, core.ArbitraryFailures{F: f}, o)
	return lineup(g, ospfPlan, r3Plan(g, d, f, o), o)
}

// lineup is the paper's scheme lineup (in SchemeOrder) around the two R3
// plans: ospfPlan protects the ECMP base, mplsPlan is the joint plan.
func lineup(g *graph.Graph, ospfPlan, mplsPlan *core.Plan, o Options) []protect.Scheme {
	return []protect.Scheme{
		&protect.CSPFDetour{G: g},
		&protect.OSPFRecon{G: g},
		&protect.FCP{G: g},
		&protect.PathSplicing{G: g, Seed: o.Seed},
		&eval.R3Scheme{Label: "OSPF+R3", Plan: ospfPlan},
		&protect.OptDetour{G: g, Iterations: o.OptIter, Obs: o.Obs},
		&eval.R3Scheme{Label: "MPLS-ff+R3", Plan: mplsPlan},
	}
}

// newEngine is the evaluation engine every driver runs its schemes in,
// with the per-scenario optimal denominator at OptIter iterations.
func newEngine(g *graph.Graph, schemes []protect.Scheme, o Options) *eval.Engine {
	return &eval.Engine{G: g, Schemes: schemes, OptimalIterations: o.OptIter, Workers: o.Workers, Shards: o.Shards, Obs: o.Obs}
}

// SchemeOrder is the presentation order used by the paper's legends.
var SchemeOrder = []string{
	"OSPF+CSPF-detour", "OSPF+recon", "FCP", "PathSplice",
	"OSPF+R3", "OSPF+opt", "MPLS-ff+R3",
}

// printSeries writes one line per x position: x then one column per
// scheme.
func printSeries(w io.Writer, header string, schemes []string, rows [][]float64) {
	fmt.Fprintf(w, "# %s\n", header)
	fmt.Fprint(w, "# x")
	for _, s := range schemes {
		fmt.Fprintf(w, "\t%s", s)
	}
	fmt.Fprintln(w)
	for i, row := range rows {
		fmt.Fprintf(w, "%d", i+1)
		for _, v := range row {
			fmt.Fprintf(w, "\t%.4f", v)
		}
		fmt.Fprintln(w)
	}
}

// envelopeTM returns the entrywise max of a set of matrices: a compact
// single-matrix stand-in that dominates their convex hull (demands are
// nonnegative and MLU is monotone), used when one plan must cover a whole
// day or week of traffic.
func envelopeTM(series []*traffic.Matrix) *traffic.Matrix {
	out := traffic.NewMatrix(series[0].N)
	for _, m := range series {
		m.Pairs(func(a, b graph.NodeID, v float64) {
			if v > out.At(a, b) {
				out.Set(a, b, v)
			}
		})
	}
	return out
}
