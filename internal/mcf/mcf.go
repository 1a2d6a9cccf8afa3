// Package mcf solves minimum maximum-link-utilization (min-MLU)
// multicommodity flow problems, the optimization at the heart of
// flow-based traffic engineering. It provides:
//
//   - MinMLU: a fast iterative solver (Frank–Wolfe on a log-sum-exp
//     smoothed objective, with exact line search) that scales to the
//     largest evaluation topologies; and
//   - MinMLUExact: an exact solver that builds the flow LP and solves it
//     with internal/lp, used on small instances and as the ground-truth
//     oracle in tests.
//
// Both support failed-link predicates (route only over alive links),
// fixed background loads (used by the per-scenario optimal detour
// baseline), and silently drop commodities disconnected by a partition,
// mirroring the paper's treatment of unreachable demands.
package mcf

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/lp"
	"repro/internal/obs"
	"repro/internal/routing"
	"repro/internal/spf"
)

// Options configures the solvers.
type Options struct {
	// Alive restricts routing to links for which it returns true; nil
	// means all links.
	Alive func(graph.LinkID) bool
	// Background is an optional per-link fixed load added to the flow's
	// load when computing utilization. Length must be NumLinks when set.
	Background []float64
	// Iterations bounds Frank–Wolfe iterations (default 256).
	Iterations int
	// RelTol stops early when the duality-style gap estimate falls below
	// RelTol × current objective (default 0.005).
	RelTol float64
	// CapScale, when non-nil, scales each link's effective capacity by
	// the given factor (length NumLinks, entries in (0, 1]) — the
	// capacity-degradation counterpart of a failed link. A fully lost
	// link belongs in Alive, not at scale 0. Nil means full capacities,
	// and the solve is bit-identical to one without the option.
	CapScale []float64
	// Warm, when non-nil, seeds MinMLUExact's simplex with the basis of a
	// previous solve over the same (topology, commodities, reachability)
	// shape — failure scenarios differ only in rhs entries, so the dual
	// simplex repairs the basis in a few pivots instead of a full
	// two-phase run. A basis from a different shape falls back to a cold
	// solve. MinMLU ignores it.
	Warm *lp.Basis
	// Obs, when non-nil, receives the LP solver's "lp." counters from
	// exact solves. MinMLU ignores it.
	Obs *obs.Registry
}

func (o *Options) defaults() {
	if o.Iterations == 0 {
		o.Iterations = 256
	}
	if o.RelTol == 0 {
		o.RelTol = 0.005
	}
}

// Result is the outcome of a min-MLU solve.
type Result struct {
	Flow *routing.Flow
	// MLU is the achieved maximum link utilization including background
	// load.
	MLU float64
	// Dropped counts commodities unreachable under the alive predicate.
	Dropped int
	// Basis is the optimal simplex basis from MinMLUExact, for
	// warm-starting the next structurally identical solve via
	// Options.Warm. Nil from MinMLU.
	Basis *lp.Basis
}

// MinMLU approximately minimizes the maximum link utilization of routing
// the given commodities (with their demands) over alive links, on top of
// the optional background load. Unreachable commodities are dropped with
// zero allocation.
//
// The iterate is one sparse row per commodity and the Frank–Wolfe direction
// one retained path per commodity, so an iteration costs the trees it runs
// plus the rows' nonzeros; the dense Flow is materialized once, for loop
// removal and the returned Result.
func MinMLU(g *graph.Graph, comms []routing.Commodity, opts Options) *Result {
	opts.defaults()
	nL := g.NumLinks()

	cap := make([]float64, nL)
	for e := 0; e < nL; e++ {
		cap[e] = g.Link(graph.LinkID(e)).Capacity
		if opts.CapScale != nil {
			cap[e] *= opts.CapScale[e]
		}
	}
	bg := opts.Background
	if bg == nil {
		bg = make([]float64, nL)
	}

	o := newPathOracle(g, comms, opts.Alive)
	rows := make([]routing.SparseRow, len(comms))
	flow := func() *routing.Flow {
		f := routing.NewFlow(g, comms)
		for k := range rows {
			rows[k].Scatter(f.Frac[k])
		}
		return f
	}

	// Initialize: route every reachable commodity on an
	// inverse-capacity-cost shortest path (a reasonable starting point
	// that avoids tiny links).
	cost := make([]float64, nL)
	for e := range cost {
		cost[e] = 1e9 / cap[e]
	}
	loads := append([]float64(nil), bg...)
	o.route(cost, loads)
	for k, path := range o.paths {
		rows[k].SetPath(path)
	}

	mlu := util(loads, cap)
	if allZeroDemand(comms) || mlu == 0 {
		return &Result{Flow: flow(), MLU: util(bg, cap), Dropped: o.dropped}
	}

	// Frank–Wolfe on Φ_μ(loads) = μ ln Σ_e exp(util_e/μ), with μ shrinking
	// as the objective tightens. The exact line search works on the true
	// MLU (convex piecewise-linear along the segment); a zero step is a
	// stall, escaped by the μ schedule and bounded by a stall counter.
	q := make([]float64, nL)
	dirLoads := make([]float64, 0, nL)
	scratch := make([]float64, nL) // all zero between row updates
	stalls := 0
	for it := 0; it < opts.Iterations; it++ {
		mu := math.Max(mlu/500, mlu*0.05*math.Pow(0.97, float64(it)))
		softmax(q, loads, cap, mu)

		// Linear minimization oracle: shortest paths under cost q_e/c_e.
		for e := range cost {
			cost[e] = q[e]/cap[e] + 1e-15
		}
		dirLoads = append(dirLoads[:0], bg...)
		o.route(cost, dirLoads)
		// A commodity without a fresh direction keeps its current routing
		// (a dropped commodity's row is empty, so it adds nothing).
		for k, path := range o.paths {
			if path == nil {
				rows[k].AddLoads(comms[k].Demand, dirLoads)
			}
		}

		// Gap estimate from the smoothed gradient inner products.
		gap := innerUtil(q, loads, cap) - innerUtil(q, dirLoads, cap)
		if gap < opts.RelTol*mlu && it > 8 {
			break
		}

		gamma := lineSearch(loads, dirLoads, cap)
		if gamma <= 1e-9 {
			stalls++
			if stalls > 24 {
				break
			}
			continue
		}
		stalls = 0
		for e := 0; e < nL; e++ {
			loads[e] = (1-gamma)*loads[e] + gamma*dirLoads[e]
		}
		for k, path := range o.paths {
			if path != nil {
				rows[k].MoveToward(gamma, path, scratch)
			} else {
				rows[k].SelfMix(gamma)
			}
		}
		mlu = util(loads, cap)
	}

	f := flow()
	f.RemoveLoops()
	// Recompute exactly from the final fractions.
	final := append([]float64(nil), bg...)
	f.AddLoads(final)
	return &Result{Flow: f, MLU: util(final, cap), Dropped: o.dropped}
}

// pathOracle is MinMLU's linear minimization oracle: one shortest path per
// reachable commodity under a per-link cost row, sharing one reverse tree
// per destination. It runs the CSR kernel on one Scratch and extracts paths
// into storage retained per commodity, so a call allocates nothing once
// the paths have reached their lengths. Paths follow the tree, so they are
// always simple.
type pathOracle struct {
	csr     *graph.CSR
	comms   []routing.Commodity
	down    *graph.LinkSet // links outside Options.Alive; nil when all are alive
	sc      spf.Scratch
	dropped int // commodities with no path over alive links
	// order lists the destinations of reachable commodities as first seen
	// in commodity order, NOT in map or node order: callers accumulate
	// floating-point loads in route's visiting order, so any other order
	// would change MinMLU's result. groups holds each destination's
	// reachable commodities, ascending.
	order  []graph.NodeID
	groups [][]int
	// paths[k] is commodity k's path from the last route call, nil when it
	// has none: a dropped commodity, or one whose source is its destination.
	// Reachability does not depend on the cost, so a commodity that has a
	// path has one in every call and its storage is reused.
	paths [][]graph.LinkID
}

// newPathOracle screens reachability with one unit-cost tree per distinct
// destination and groups the reachable commodities by destination.
func newPathOracle(g *graph.Graph, comms []routing.Commodity, alive func(graph.LinkID) bool) *pathOracle {
	nL := g.NumLinks()
	o := &pathOracle{
		csr: g.CSR(), comms: comms,
		groups: make([][]int, g.NumNodes()),
		paths:  make([][]graph.LinkID, len(comms)),
	}
	if alive != nil {
		o.down = &graph.LinkSet{}
		for e := 0; e < nL; e++ {
			if !alive(graph.LinkID(e)) {
				o.down.Add(graph.LinkID(e))
			}
		}
	}
	for k, c := range comms {
		o.groups[c.Dst] = append(o.groups[c.Dst], k)
	}
	hops := make([]float64, nL)
	for e := range hops {
		hops[e] = 1
	}
	reach := make([]bool, len(comms))
	for dst, ks := range o.groups {
		if len(ks) == 0 {
			continue
		}
		spf.SPFTo(o.csr, graph.NodeID(dst), hops, o.down, &o.sc)
		reachable := ks[:0]
		for _, k := range ks {
			if o.sc.Dist[comms[k].Src] != spf.Infinity {
				reach[k] = true
				reachable = append(reachable, k)
			}
		}
		o.groups[dst] = reachable
	}
	seen := make([]bool, g.NumNodes())
	for k, c := range comms {
		if !reach[k] {
			o.dropped++
		} else if !seen[c.Dst] {
			seen[c.Dst] = true
			o.order = append(o.order, c.Dst)
		}
	}
	return o
}

// route computes every reachable commodity's shortest path under cost into
// o.paths and adds each routed commodity's demand to loads along its path.
func (o *pathOracle) route(cost, loads []float64) {
	for _, dst := range o.order {
		spf.SPFTo(o.csr, dst, cost, o.down, &o.sc)
		for _, k := range o.groups[dst] {
			o.paths[k] = spf.PathFromNext(o.csr, o.comms[k].Src, o.sc.Next, o.paths[k][:0])
			for _, id := range o.paths[k] {
				loads[id] += o.comms[k].Demand
			}
		}
	}
}

func util(loads, cap []float64) float64 {
	max := 0.0
	for e, l := range loads {
		if u := l / cap[e]; u > max {
			max = u
		}
	}
	return max
}

// softmax fills q with the gradient weights q_e ∝ exp(util_e/μ), summing
// to 1.
func softmax(q, loads, cap []float64, mu float64) {
	maxU := util(loads, cap)
	var sum float64
	for e := range q {
		q[e] = math.Exp((loads[e]/cap[e] - maxU) / mu)
		sum += q[e]
	}
	for e := range q {
		q[e] /= sum
	}
}

func innerUtil(q, loads, cap []float64) float64 {
	var s float64
	for e := range q {
		s += q[e] * loads[e] / cap[e]
	}
	return s
}

// lineSearch minimizes util((1-γ)a + γb) over γ ∈ [0,1] by ternary search
// (the function is convex piecewise-linear in γ).
func lineSearch(a, b, cap []float64) float64 {
	eval := func(g float64) float64 {
		max := 0.0
		for e := range a {
			if u := ((1-g)*a[e] + g*b[e]) / cap[e]; u > max {
				max = u
			}
		}
		return max
	}
	lo, hi := 0.0, 1.0
	for i := 0; i < 40; i++ {
		m1 := lo + (hi-lo)/3
		m2 := hi - (hi-lo)/3
		if eval(m1) <= eval(m2) {
			hi = m2
		} else {
			lo = m1
		}
	}
	g := (lo + hi) / 2
	if eval(g) >= eval(0) {
		return 0
	}
	return g
}

func allZeroDemand(comms []routing.Commodity) bool {
	for _, c := range comms {
		if c.Demand > 0 {
			return false
		}
	}
	return true
}

// MinMLUExact solves the min-MLU LP exactly with the simplex solver.
// Intended for small instances (the LP has |comms|×|E| variables).
// Unreachable commodities are dropped, as in MinMLU.
//
// The LP keeps an identical constraint shape for every failure pattern
// on a given (topology, commodities) pair: every commodity gets a
// variable on every link, and a failed link is expressed purely through
// the rhs of its per-link "kill" row (and a zeroed capacity-row rhs)
// rather than by deleting columns. A basis from one scenario therefore
// warm-starts the next through Options.Warm; only a change in the
// reachability pattern (a partition dropping commodities) changes the
// shape, and then the solver falls back to a cold solve on its own.
func MinMLUExact(g *graph.Graph, comms []routing.Commodity, opts Options) (*Result, error) {
	opts.defaults()
	nL := g.NumLinks()
	aliveLinks := make([]bool, nL)
	for e := 0; e < nL; e++ {
		aliveLinks[e] = opts.Alive == nil || opts.Alive(graph.LinkID(e))
	}
	bg := opts.Background
	if bg == nil {
		bg = make([]float64, nL)
	}

	f := routing.NewFlow(g, comms)
	reach := make([]bool, len(comms))
	dropped := 0
	distTo := make([][]float64, g.NumNodes()) // hop distances, one reverse Dijkstra per distinct destination
	for k, c := range comms {
		if distTo[c.Dst] == nil {
			distTo[c.Dst] = spf.DijkstraTo(g, c.Dst, opts.Alive, func(graph.LinkID) float64 { return 1 })
		}
		if math.IsInf(distTo[c.Dst][c.Src], 1) {
			dropped++
			continue
		}
		reach[k] = true
	}

	p := lp.NewProblem()
	p.Obs = opts.Obs
	mluVar := p.AddVariable("MLU", 1)
	// varOf[k*nL+e] is the variable index of commodity k on link e. Every
	// (commodity, link) pair gets a variable so the shape is
	// scenario-independent; kill rows force dead-link flow to zero.
	varOf := make([]int, len(comms)*nL)
	for i := range varOf {
		varOf[i] = p.AddVariable("", 0)
	}

	// Routing constraints [R1]-[R3] per reachable commodity. An
	// unreachable commodity instead has its whole row pinned to zero so
	// it cannot carry junk flow into the capacity rows.
	for k, c := range comms {
		if !reach[k] {
			terms := make([]lp.Term, 0, nL)
			for e := 0; e < nL; e++ {
				terms = append(terms, lp.Term{Var: varOf[k*nL+e], Coef: 1})
			}
			p.AddConstraint(terms, lp.EQ, 0)
			continue
		}
		// [R2] source emits one unit net (allowing no return flow [R3]).
		var src []lp.Term
		for _, id := range g.Out(c.Src) {
			src = append(src, lp.Term{Var: varOf[k*nL+int(id)], Coef: 1})
		}
		p.AddConstraint(src, lp.EQ, 1)
		// [R3] nothing enters the source.
		for _, id := range g.In(c.Src) {
			p.AddConstraint([]lp.Term{{Var: varOf[k*nL+int(id)], Coef: 1}}, lp.EQ, 0)
		}
		// [R1] conservation at intermediate nodes.
		for n := 0; n < g.NumNodes(); n++ {
			node := graph.NodeID(n)
			if node == c.Src || node == c.Dst {
				continue
			}
			var terms []lp.Term
			for _, id := range g.In(node) {
				terms = append(terms, lp.Term{Var: varOf[k*nL+int(id)], Coef: 1})
			}
			for _, id := range g.Out(node) {
				terms = append(terms, lp.Term{Var: varOf[k*nL+int(id)], Coef: -1})
			}
			if terms != nil {
				p.AddConstraint(terms, lp.EQ, 0)
			}
		}
	}

	// Capacity: sum_k d_k f_k(e) + bg_e <= MLU * c_e. Failed links keep
	// their row with a zero rhs (no background on a dead link); their
	// flow terms are annihilated by the kill rows below, so the row
	// degenerates to 0 <= MLU·c_e.
	for e := 0; e < nL; e++ {
		cEdge := g.Link(graph.LinkID(e)).Capacity
		if opts.CapScale != nil {
			// Degraded capacity changes only this coefficient, never the
			// sparsity pattern, so warm bases stay shape-compatible across
			// degradation scenarios exactly as across failure scenarios.
			cEdge *= opts.CapScale[e]
		}
		terms := []lp.Term{{Var: mluVar, Coef: -cEdge}}
		for k, c := range comms {
			if c.Demand > 0 {
				terms = append(terms, lp.Term{Var: varOf[k*nL+e], Coef: c.Demand})
			}
		}
		rhs := 0.0
		if aliveLinks[e] {
			rhs = -bg[e]
		}
		p.AddConstraint(terms, lp.LE, rhs)
	}

	// Kill rows: one per link, sum_k coef_k f_k(e) <= U_e with U_e = 0
	// when the link is failed (forcing every commodity's flow on it to
	// zero) and a slack bound exceeding any cycle-free total when alive
	// (never binding). Failures flip only these rhs values, keeping the
	// constraint matrix — and hence warm-start basis compatibility —
	// scenario-invariant.
	killSlack := 1.0
	kcoef := make([]float64, len(comms))
	for k, c := range comms {
		kcoef[k] = c.Demand
		if kcoef[k] <= 0 {
			kcoef[k] = 1
		}
		killSlack += kcoef[k]
	}
	for e := 0; e < nL; e++ {
		terms := make([]lp.Term, 0, len(comms))
		for k := range comms {
			terms = append(terms, lp.Term{Var: varOf[k*nL+e], Coef: kcoef[k]})
		}
		rhs := 0.0
		if aliveLinks[e] {
			rhs = killSlack
		}
		p.AddConstraint(terms, lp.LE, rhs)
	}

	sol, err := p.SolveFrom(opts.Warm)
	if err != nil {
		return nil, err
	}
	if sol.Status != lp.Optimal {
		return nil, fmt.Errorf("mcf: LP status %v", sol.Status)
	}
	for k := range comms {
		if !reach[k] {
			continue
		}
		for e := 0; e < nL; e++ {
			// Dead links carry only kill-row tolerance noise; zero it so
			// extracted flows match the alive-only formulation exactly.
			if aliveLinks[e] {
				f.Frac[k][e] = sol.X[varOf[k*nL+e]]
			}
		}
	}
	f.RemoveLoops()
	final := append([]float64(nil), bg...)
	f.AddLoads(final)
	mlu := 0.0
	for e := 0; e < nL; e++ {
		c := g.Link(graph.LinkID(e)).Capacity
		if opts.CapScale != nil {
			c *= opts.CapScale[e]
		}
		if u := final[e] / c; u > mlu {
			mlu = u
		}
	}
	return &Result{Flow: f, MLU: mlu, Dropped: dropped, Basis: sol.Basis}, nil
}
