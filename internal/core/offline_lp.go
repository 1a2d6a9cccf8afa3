package core

import (
	"errors"
	"fmt"

	"repro/internal/graph"
	"repro/internal/lp"
	"repro/internal/mcf"
	"repro/internal/routing"
	"repro/internal/traffic"
)

// precomputeLP builds the paper's LP (7) — with dual multipliers π_e(l)
// and λ_e replacing the inner maximization over X_F — and solves it
// exactly. ArbitraryFailures and DegradationModel are supported (the
// structured model (18) is handled by the FW solver).
//
// For the degradation envelope X_D the inner maximization per link e is
// the fractional knapsack max Σ u_l·c_l·p_l(e) over 0 ≤ u_l ≤ β_l,
// Σ u_l ≤ B; its LP dual replaces the π coefficient 1 with β_l and the
// λ coefficient F with B. The envelope's full single-failure anchor
// (DESIGN.md §3) is the elementwise max with max_l c_l·p_l(e), encoded
// with one auxiliary variable m_e ≥ c_l·p_l(e) and a second capacity row
// base(e) + m_e ≤ MLU·c_e.
func precomputeLP(g *graph.Graph, d *traffic.Matrix, cfg Config) (*Plan, error) {
	var (
		F    float64 // λ coefficient: failure count, or degradation budget
		degr *DegradationModel
	)
	switch m := cfg.Model.(type) {
	case ArbitraryFailures:
		F = float64(m.F)
	case DegradationModel:
		dm := m
		degr = &dm
		F = m.Budget
	default:
		return nil, errors.New("core: LP solver supports only ArbitraryFailures and DegradationModel")
	}
	nL := g.NumLinks()
	comms := routing.ODCommodities(g.NumNodes(), d.At)

	prob := lp.NewProblem()
	prob.Obs = cfg.Obs
	mluVar := prob.AddVariable("MLU", 1)

	// r variables (skipped when the base routing is fixed). rVar[k][e] =
	// -1 for links entering the commodity source ([R3] by construction).
	optimizeBase := cfg.BaseRouting == nil
	if !optimizeBase {
		for _, row := range cfg.BaseRouting.Frac {
			if err := checkBaseRow(row, nL); err != nil {
				return nil, err
			}
		}
	}
	var rVar [][]int
	if optimizeBase {
		rVar = make([][]int, len(comms))
		for k, c := range comms {
			rVar[k] = make([]int, nL)
			for e := 0; e < nL; e++ {
				if g.Link(graph.LinkID(e)).Dst == c.Src {
					rVar[k][e] = -1
					continue
				}
				rVar[k][e] = prob.AddVariable(fmt.Sprintf("r%d_%d", k, e), 0)
			}
			addRoutingConstraints(prob, g, c.Src, c.Dst, rVar[k])
		}
	}

	// p variables: pVar[l][e], with [R3] excluding links into head(l).
	pVar := make([][]int, nL)
	for l := 0; l < nL; l++ {
		pVar[l] = make([]int, nL)
		head := g.Link(graph.LinkID(l)).Src
		tail := g.Link(graph.LinkID(l)).Dst
		for e := 0; e < nL; e++ {
			if g.Link(graph.LinkID(e)).Dst == head {
				pVar[l][e] = -1
				continue
			}
			pVar[l][e] = prob.AddVariable(fmt.Sprintf("p%d_%d", l, e), 0)
		}
		addRoutingConstraints(prob, g, head, tail, pVar[l])
	}

	// Dual multipliers π_e(l) and λ_e, plus the anchor variable m_e for
	// the degradation envelope.
	piVar := make([][]int, nL)
	lamVar := make([]int, nL)
	var mVar []int
	if degr != nil {
		mVar = make([]int, nL)
	}
	for e := 0; e < nL; e++ {
		piVar[e] = make([]int, nL)
		for l := 0; l < nL; l++ {
			piVar[e][l] = prob.AddVariable(fmt.Sprintf("pi%d_%d", e, l), 0)
		}
		lamVar[e] = prob.AddVariable(fmt.Sprintf("lam%d", e), 0)
		if degr != nil {
			mVar[e] = prob.AddVariable(fmt.Sprintf("m%d", e), 0)
		}
	}

	// Fixed base loads when r is given, under demands d.
	var fixed *routing.Flow
	var fixedLoads []float64
	if !optimizeBase {
		fixed = cfg.BaseRouting.Clone()
		fixed.SetDemands(d.At)
		fixedLoads = fixed.Loads()
	}

	// Capacity rows: sum_ab d_ab r_ab(e) + sum_l β_l π_e(l) + λ_e B <= MLU c_e
	// (β_l = 1 and B = F in the classic model). The degradation envelope
	// adds the anchor row base(e) + m_e <= MLU c_e per link.
	baseTerms := func(e int) ([]lp.Term, float64) {
		ce := g.Link(graph.LinkID(e)).Capacity
		terms := []lp.Term{{Var: mluVar, Coef: -ce}}
		rhs := 0.0
		if optimizeBase {
			for k, c := range comms {
				if v := rVar[k][e]; v >= 0 && c.Demand > 0 {
					terms = append(terms, lp.Term{Var: v, Coef: c.Demand})
				}
			}
		} else {
			rhs = -fixedLoads[e]
		}
		return terms, rhs
	}
	for e := 0; e < nL; e++ {
		terms, rhs := baseTerms(e)
		for l := 0; l < nL; l++ {
			if degr == nil {
				terms = append(terms, lp.Term{Var: piVar[e][l], Coef: 1})
			} else if b := degr.beta(l); b > 0 {
				terms = append(terms, lp.Term{Var: piVar[e][l], Coef: b})
			}
		}
		terms = append(terms, lp.Term{Var: lamVar[e], Coef: F})
		prob.AddConstraint(terms, lp.LE, rhs)
		if degr != nil {
			anchor, arhs := baseTerms(e)
			anchor = append(anchor, lp.Term{Var: mVar[e], Coef: 1})
			prob.AddConstraint(anchor, lp.LE, arhs)
		}
	}

	// Dual feasibility rows: c_l p_l(e) - π_e(l) - λ_e <= 0, i.e. the
	// paper's (π_e(l)+λ_e)/c_l >= p_l(e). Under degradation the rows only
	// exist for degradable links (β_l > 0; others contribute no virtual
	// demand), and the anchor adds c_l p_l(e) - m_e <= 0.
	for e := 0; e < nL; e++ {
		for l := 0; l < nL; l++ {
			if pVar[l][e] < 0 {
				continue
			}
			if degr != nil && degr.beta(l) <= 0 {
				continue
			}
			cl := g.Link(graph.LinkID(l)).Capacity
			prob.AddConstraint([]lp.Term{
				{Var: pVar[l][e], Coef: cl},
				{Var: piVar[e][l], Coef: -1},
				{Var: lamVar[e], Coef: -1},
			}, lp.LE, 0)
			if degr != nil {
				prob.AddConstraint([]lp.Term{
					{Var: pVar[l][e], Coef: cl},
					{Var: mVar[e], Coef: -1},
				}, lp.LE, 0)
			}
		}
	}

	// Penalty envelope rows: normal-case load <= β × MLUopt × c_e.
	if cfg.PenaltyEnvelope >= 1 && optimizeBase {
		opt, err := mcf.MinMLUExact(g, comms, mcf.Options{Obs: cfg.Obs})
		if err != nil {
			return nil, fmt.Errorf("core: envelope baseline: %v", err)
		}
		for e := 0; e < nL; e++ {
			bound := cfg.PenaltyEnvelope * opt.MLU * g.Link(graph.LinkID(e)).Capacity
			var terms []lp.Term
			for k, c := range comms {
				if v := rVar[k][e]; v >= 0 && c.Demand > 0 {
					terms = append(terms, lp.Term{Var: v, Coef: c.Demand})
				}
			}
			if terms != nil {
				prob.AddConstraint(terms, lp.LE, bound)
			}
		}
	}

	sol, err := prob.SolveFrom(cfg.LPWarmBasis)
	if err != nil {
		return nil, err
	}
	if sol.Status != lp.Optimal {
		return nil, fmt.Errorf("core: LP status %v", sol.Status)
	}

	// The base rows, loop-free: the solution's r, or the supplied routing.
	if !optimizeBase {
		comms = fixed.Comms
	}
	base := make([]routing.SparseRow, len(comms))
	// solved reads one row of variables into the reused dense row.
	row, zero := make([]float64, nL), make([]float64, nL)
	solved := func(vars []int) []float64 {
		for e, v := range vars {
			row[e] = 0
			if v >= 0 {
				row[e] = sol.X[v]
			}
		}
		return row
	}
	var ls routing.LoopScratch
	for k := range base {
		if !optimizeBase {
			base[k].SetDense(fixed.Frac[k])
		} else {
			base[k].SetDense(solved(rVar[k]))
		}
		base[k].CancelLoops(g, zero, &ls)
	}

	prot := make([]routing.SparseRow, nL)
	for l := range prot {
		prot[l].SetDense(solved(pVar[l]))
	}

	plan := &Plan{
		G:       g,
		Model:   cfg.Model,
		Comms:   comms,
		Base:    routing.Pack(base),
		Prot:    routing.Pack(prot),
		MLU:     sol.X[mluVar],
		LPBasis: sol.Basis,
	}
	plan.NormalMLU = routing.MLU(g, baseLoads(nL, comms, base))
	return plan, nil
}

// addRoutingConstraints adds [R1] and [R2] for one commodity whose
// variable indices are vars (with -1 marking excluded links).
func addRoutingConstraints(prob *lp.Problem, g *graph.Graph, src, dst graph.NodeID, vars []int) {
	// [R2]: unit emission from the source.
	var out []lp.Term
	for _, id := range g.Out(src) {
		if v := vars[id]; v >= 0 {
			out = append(out, lp.Term{Var: v, Coef: 1})
		}
	}
	prob.AddConstraint(out, lp.EQ, 1)
	// [R1]: conservation at intermediate nodes.
	for n := 0; n < g.NumNodes(); n++ {
		node := graph.NodeID(n)
		if node == src || node == dst {
			continue
		}
		var terms []lp.Term
		for _, id := range g.In(node) {
			if v := vars[id]; v >= 0 {
				terms = append(terms, lp.Term{Var: v, Coef: 1})
			}
		}
		for _, id := range g.Out(node) {
			if v := vars[id]; v >= 0 {
				terms = append(terms, lp.Term{Var: v, Coef: -1})
			}
		}
		if terms != nil {
			prob.AddConstraint(terms, lp.EQ, 0)
		}
	}
}
