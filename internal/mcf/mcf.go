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
	// relTol stops early when the duality-style gap estimate falls below
	// relTol × current objective (default 0.005); only the package's
	// tests set it.
	relTol float64
	// CapScale, when non-nil, scales each link's effective capacity by
	// the given factor (length NumLinks, entries in (0, 1]) — the
	// capacity-degradation counterpart of a failed link. A fully lost
	// link belongs in Alive, not at scale 0. Nil means full capacities,
	// and the solve is bit-identical to one without the option.
	CapScale []float64
	// Warm, when non-nil, seeds MinMLUExact's simplex with the basis of a
	// previous solve over the same topology and commodity destinations —
	// failures, partitions and demands differ only in rhs entries, so the
	// dual simplex repairs the basis in a few pivots instead of a full
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
	if o.relTol == 0 {
		o.relTol = 0.005
	}
}

// Result is the outcome of a min-MLU solve.
type Result struct {
	// Rows[k] is commodity k's routing with its loops cancelled, in
	// ascending link order with exact zeros dropped: the nonzero cells of
	// the dense row. A dropped commodity's row is empty.
	Rows []routing.SparseRow
	// MLU is the achieved maximum link utilization including background
	// load.
	MLU float64
	// Dropped counts commodities unreachable under the alive predicate.
	Dropped int
	// Basis is the optimal simplex basis from MinMLUExact, for
	// warm-starting the next structurally identical solve via
	// Options.Warm. Nil from MinMLU.
	Basis *lp.Basis

	g *graph.Graph
	// comms is the caller's slice, read by AddLoads and Lost: a
	// caller that changes it afterwards changes what they report.
	comms []routing.Commodity
}

// AddLoads accumulates every commodity's demand × fraction into loads (of
// link count length), commodity by commodity: the sums, bit for bit, of
// Flow().AddLoads.
func (r *Result) AddLoads(loads []float64) {
	for k, c := range r.comms {
		if c.Demand != 0 {
			r.Rows[k].AddLoads(c.Demand, loads)
		}
	}
}

// Lost is the demand of the commodities the result routes nowhere: the
// dropped ones, whose rows are empty.
func (r *Result) Lost() float64 {
	var lost float64
	for k, c := range r.comms {
		if len(r.Rows[k].Idx) == 0 {
			lost += c.Demand
		}
	}
	return lost
}

// cancelLoops cancels the rows' loops, which also puts each row in
// ascending link order with exact zeros dropped. zero is a dense row of
// link count length, all zero on entry and on return.
func (r *Result) cancelLoops(zero []float64, s *routing.LoopScratch) {
	for k := range r.Rows {
		r.Rows[k].CancelLoops(r.g, zero, s)
	}
}

// Scratch holds every buffer a MinMLUScratch solve works in: the
// capacities, background, costs, gradient weights and loads rows, the
// dense rows the row updates and the loop cancellation borrow, the
// oracle's trees, groups, destination order and per-commodity paths, and
// the result's rows. Repeated solves on one graph reuse them, so a warm
// scratch allocates next to nothing; its contents never reach a result.
//
// Ownership: the Rows of a Result from MinMLUScratch live in the scratch
// until its next solve, which overwrites them. Read them (AddLoads, Lost)
// before reusing the scratch, or copy them. The zero value is ready to
// use; a Scratch must not be shared between concurrent solves.
type Scratch struct {
	capE, bg, cost, q, loads, dirLoads, final []float64

	move  []float64 // MoveToward's dense row, all zero between row updates
	zero  []float64 // CancelLoops' dense row, all zero between rows
	loops routing.LoopScratch
	down  graph.LinkSet
	o     pathOracle
	rows  []routing.SparseRow
}

// grow returns buf resized to n, reallocating only when its capacity is
// short. Its contents are unspecified.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// keep returns buf resized to n, keeping the elements it held up to its
// capacity: the per-commodity paths and rows carry their storage from one
// solve to the next, whatever the commodity count in between.
func keep[T any](buf []T, n int) []T {
	if cap(buf) < n {
		grown := make([]T, n)
		copy(grown, buf[:cap(buf)])
		return grown
	}
	return buf[:n]
}

// MinMLU approximately minimizes the maximum link utilization of routing
// the given commodities (with their demands) over alive links, on top of
// the optional background load. Unreachable commodities are dropped with
// zero allocation. It is MinMLUScratch on a fresh scratch, so its Result
// owns its rows.
func MinMLU(g *graph.Graph, comms []routing.Commodity, opts Options) *Result {
	return MinMLUScratch(g, comms, opts, new(Scratch))
}

// MinMLUScratch is MinMLU working in sc: the same result, bit for bit,
// whatever sc held before. The Result's Rows live in sc until its next
// solve (see Scratch).
//
// The iterate is one sparse row per commodity and the Frank–Wolfe direction
// one retained path per commodity, so an iteration costs the trees it runs
// plus the rows' nonzeros. Loops are cancelled on the rows too, and the
// rows are the Result: no [commodity][link] matrix is built.
//
// The loop stops at a repeated stall: an iteration with γ ≤ 1e-9 changes
// nothing but the iteration and stall counters, so when the next one's μ
// is bitwise the stalled one's, it recomputes the same softmax, paths, gap
// and γ, and so does every iteration after it until one breaks; every break
// leaves the same rows, so the loop breaks at once.
func MinMLUScratch(g *graph.Graph, comms []routing.Commodity, opts Options, sc *Scratch) *Result {
	opts.defaults()
	nL := g.NumLinks()

	cap := grow(sc.capE, nL)
	sc.capE = cap
	for e := 0; e < nL; e++ {
		cap[e] = g.Link(graph.LinkID(e)).Capacity
		if opts.CapScale != nil {
			cap[e] *= opts.CapScale[e]
		}
	}
	bg := opts.Background
	if bg == nil {
		sc.bg = grow(sc.bg, nL)
		bg = sc.bg
		clear(bg)
	}
	sc.move, sc.zero = grow(sc.move, nL), grow(sc.zero, nL) // all zero, and kept so

	o := &sc.o
	o.reset(g, comms, downSet(nL, opts.Alive, &sc.down))
	sc.rows = keep(sc.rows, len(comms))
	rows := sc.rows
	res := &Result{Rows: rows, Dropped: o.dropped, g: g, comms: comms}

	// Initialize: route every reachable commodity on an
	// inverse-capacity-cost shortest path (a reasonable starting point
	// that avoids tiny links).
	cost := grow(sc.cost, nL)
	sc.cost = cost
	for e := range cost {
		cost[e] = 1e9 / cap[e]
	}
	loads := append(sc.loads[:0], bg...)
	sc.loads = loads
	o.route(cost, loads)
	for k, path := range o.paths {
		rows[k].SetPath(path)
	}

	mlu := util(loads, cap)
	if allZeroDemand(comms) || mlu == 0 {
		res.cancelLoops(sc.zero, &sc.loops)
		res.MLU = util(bg, cap)
		return res
	}

	// Frank–Wolfe on Φ_μ(loads) = μ ln Σ_e exp(util_e/μ), with μ shrinking
	// as the objective tightens. The exact line search works on the true
	// MLU (convex piecewise-linear along the segment); a zero step is a
	// stall, escaped by the μ schedule and bounded by a stall counter.
	q := grow(sc.q, nL)
	sc.q = q
	dirLoads := sc.dirLoads[:0]
	stalls, stalledMu := 0, 0.0
	for it := 0; it < opts.Iterations; it++ {
		mu := math.Max(mlu/500, mlu*0.05*math.Pow(0.97, float64(it)))
		if stalls > 0 && math.Float64bits(mu) == math.Float64bits(stalledMu) {
			break // a repeat of the stalled iteration, to the bit
		}
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
		if gap < opts.relTol*mlu && it > 8 {
			break
		}

		gamma := lineSearch(loads, dirLoads, cap)
		if gamma <= 1e-9 {
			stalls++
			if stalls > 24 {
				break
			}
			stalledMu = mu
			continue
		}
		stalls = 0
		for e := 0; e < nL; e++ {
			loads[e] = (1-gamma)*loads[e] + gamma*dirLoads[e]
		}
		for k, path := range o.paths {
			if path != nil {
				rows[k].MoveToward(gamma, path, sc.move)
			} else {
				rows[k].SelfMix(gamma)
			}
		}
		mlu = util(loads, cap)
	}
	sc.dirLoads = dirLoads

	// Recompute exactly from the final fractions. Each link still sees its
	// commodities in ascending order, so the sums are the dense ones.
	res.cancelLoops(sc.zero, &sc.loops)
	final := append(sc.final[:0], bg...)
	sc.final = final
	res.AddLoads(final)
	res.MLU = util(final, cap)
	return res
}

// downSet flattens an Options.Alive predicate into the down-set the
// shortest-path kernel reads, built in into: nil when every link is alive.
func downSet(nL int, alive func(graph.LinkID) bool, into *graph.LinkSet) *graph.LinkSet {
	if alive == nil {
		return nil
	}
	into.Clear()
	for e := 0; e < nL; e++ {
		if !alive(graph.LinkID(e)) {
			into.Add(graph.LinkID(e))
		}
	}
	return into
}

// pathOracle is MinMLU's linear minimization oracle: one shortest path per
// reachable commodity under a per-link cost row, sharing one reverse tree
// per destination. It runs the CSR kernel on one Scratch and extracts paths
// into storage retained per commodity, so a call allocates nothing once
// the paths have reached their lengths. Paths follow the tree, so they are
// always simple. Its buffers are kept across reset calls.
type pathOracle struct {
	csr     *graph.CSR
	comms   []routing.Commodity
	down    *graph.LinkSet // links outside Options.Alive; nil when all are alive
	sc      spf.Scratch
	reach   []bool // reach[k]: commodity k's destination is reachable over alive links
	dropped int    // commodities with no path over alive links
	// order lists the destinations of reachable commodities as first seen
	// in commodity order, NOT in map or node order: callers accumulate
	// floating-point loads in route's visiting order, so any other order
	// would change MinMLU's result. groups holds each destination's
	// reachable commodities, ascending.
	order  []graph.NodeID
	groups [][]int
	// paths[k] is commodity k's path from the last route call, nil or
	// empty when it has none: a dropped commodity, or one whose source is
	// its destination. Reachability does not depend on the cost, so a
	// commodity that has a path has one in every call and its storage is
	// reused.
	paths [][]graph.LinkID
	// hops is the unit cost row of the reachability screen; need and seen
	// are reset's per-commodity and per-node working rows.
	hops []float64
	need []int
	seen []bool
}

// newPathOracle is a pathOracle reset on fresh buffers.
func newPathOracle(g *graph.Graph, comms []routing.Commodity, down *graph.LinkSet) *pathOracle {
	o := &pathOracle{}
	o.reset(g, comms, down)
	return o
}

// reset screens reachability over the links outside down with one
// unit-cost tree per distinct destination and groups the reachable
// commodities by destination.
func (o *pathOracle) reset(g *graph.Graph, comms []routing.Commodity, down *graph.LinkSet) {
	nN, nL := g.NumNodes(), g.NumLinks()
	o.csr, o.comms, o.down, o.dropped = g.CSR(), comms, down, 0
	o.reach = grow(o.reach, len(comms))
	clear(o.reach)
	o.groups = keep(o.groups, nN)
	for dst := range o.groups {
		o.groups[dst] = o.groups[dst][:0]
	}
	o.paths = keep(o.paths, len(comms))
	for k := range o.paths {
		o.paths[k] = o.paths[k][:0]
	}
	if len(o.hops) < nL {
		o.hops = make([]float64, nL)
		for e := range o.hops {
			o.hops[e] = 1
		}
	}
	for k, c := range comms {
		o.groups[c.Dst] = append(o.groups[c.Dst], k)
	}
	// A reachable commodity's path storage needs room for its fewest hops;
	// one that has less gets twice that from a slab shared by all of them.
	o.need = grow(o.need, len(comms))
	clear(o.need)
	total := 0
	for dst, ks := range o.groups {
		if len(ks) == 0 {
			continue
		}
		spf.SPFTo(o.csr, graph.NodeID(dst), o.hops[:nL], o.down, &o.sc)
		reachable := ks[:0]
		for _, k := range ks {
			if d := o.sc.Dist[comms[k].Src]; d != spf.Infinity {
				o.reach[k] = true
				reachable = append(reachable, k)
				if cap(o.paths[k]) < int(d) {
					o.need[k] = 2 * int(d)
					total += o.need[k]
				}
			}
		}
		o.groups[dst] = reachable
	}
	if total > 0 {
		slab := make([]graph.LinkID, total)
		for k, n := range o.need {
			if n > 0 {
				o.paths[k], slab = slab[:0:n], slab[n:]
			}
		}
	}
	o.seen = grow(o.seen, nN)
	clear(o.seen)
	o.order = o.order[:0]
	for k, c := range comms {
		if !o.reach[k] {
			o.dropped++
		} else if !o.seen[c.Dst] {
			o.seen[c.Dst] = true
			o.order = append(o.order, c.Dst)
		}
	}
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

// MinMLUExact solves the min-MLU LP exactly with the simplex solver, over
// one flow per destination (solveDest): N×L variables where a
// per-commodity LP has K×L. Only link loads enter the objective and the
// capacity rows, and the load on a link is the sum of the destination
// flows on it, so the aggregate has the per-commodity LP's optimum;
// splitRows turns each destination's flow back into per-commodity rows
// with the same loads. Unreachable commodities are dropped, as in MinMLU.
//
// The LP's shape is a function of the topology and the commodities'
// destinations alone. A failed link is the rhs of its kill row (and a
// zeroed capacity-row rhs); a demand, and an unreachable pair's supply of
// 0, are the rhs of a conservation row. A basis from one scenario — a
// failure, a partition, new demands — therefore warm-starts the next
// through Options.Warm, and the dual simplex repairs it.
func MinMLUExact(g *graph.Graph, comms []routing.Commodity, opts Options) (*Result, error) {
	opts.defaults()
	nL := g.NumLinks()
	o := newPathOracle(g, comms, downSet(nL, opts.Alive, &graph.LinkSet{}))
	bg := opts.Background
	if bg == nil {
		bg = make([]float64, nL)
	}
	capE := append([]float64(nil), g.CSR().Capacity...)
	if opts.CapScale != nil {
		for e := range capE {
			capE[e] *= opts.CapScale[e]
		}
	}
	sol, err := solveDest(o, capE, bg, opts)
	if err != nil {
		return nil, err
	}
	res := &Result{Rows: make([]routing.SparseRow, len(comms)), Dropped: o.dropped, Basis: sol.basis, g: g, comms: comms}
	o.splitRows(g, sol, res.Rows)
	final := append([]float64(nil), bg...)
	res.AddLoads(final)
	res.MLU = util(final, capE)
	return res, nil
}

// destSolution is the per-destination LP's optimum: flows[i] is dests[i]'s
// flow on alive links per unit of its total supply totals[i], in ascending
// link order.
type destSolution struct {
	dests  []graph.NodeID
	flows  []routing.SparseRow
	totals []float64
	basis  *lp.Basis
}

// solveDest builds and solves the min-MLU LP over a variable f_t(e) for
// every destination t of a commodity and every link e that does not leave
// t (flow leaving its destination could only close a loop):
//
//	conservation  Σ_out f_t − Σ_in f_t = supply_t(v)  at every node v ≠ t
//	capacity      Σ_t f_t(e) + bg_e <= MLU·c_e         (rhs 0 when e failed)
//	kill          Σ_t f_t(e) <= U_e                   (U_e = 0 when e failed)
//
// supply_t(v) is the reachable demand from v to t, and an alive link's U_e
// a slack above any loop-free total, never binding.
func solveDest(o *pathOracle, capE, bg []float64, opts Options) (*destSolution, error) {
	c, comms := o.csr, o.comms
	nL, nN := c.NumLinks(), c.N
	alive := func(e int) bool { return o.down == nil || !o.down.Contains(graph.LinkID(e)) }
	// slot[t] is t's index in dests plus one, 0 when t is no destination.
	slot := make([]int, nN)
	for _, cm := range comms {
		slot[cm.Dst] = 1
	}
	sol := &destSolution{}
	for v := range slot {
		if slot[v] != 0 {
			sol.dests = append(sol.dests, graph.NodeID(v))
			slot[v] = len(sol.dests)
		}
	}
	supply := make([]float64, len(sol.dests)*nN)
	sol.totals = make([]float64, len(sol.dests))
	killSlack := 1.0
	for k, cm := range comms {
		if cm.Demand > 0 {
			killSlack += cm.Demand
			if o.reach[k] {
				supply[(slot[cm.Dst]-1)*nN+int(cm.Src)] += cm.Demand
				sol.totals[slot[cm.Dst]-1] += cm.Demand
			}
		}
	}

	p := lp.NewProblem()
	p.Obs = opts.Obs
	mluVar := p.AddVariable("MLU", 1)
	// varOf[i*nL+e] is f_t(e)'s variable for t = dests[i], -1 when e leaves t.
	varOf := make([]int, len(sol.dests)*nL)
	for i, t := range sol.dests {
		for e := 0; e < nL; e++ {
			varOf[i*nL+e] = -1
			if c.Src[e] != int32(t) {
				varOf[i*nL+e] = p.AddVariable("", 0)
			}
		}
	}
	var terms []lp.Term
	add := func(i int, e int32, coef float64) {
		if j := varOf[i*nL+int(e)]; j >= 0 {
			terms = append(terms, lp.Term{Var: j, Coef: coef})
		}
	}
	for i, t := range sol.dests {
		for v := 0; v < nN; v++ {
			terms = terms[:0]
			for _, e := range c.OutLinks[c.OutHead[v]:c.OutHead[v+1]] {
				add(i, e, 1)
			}
			for _, e := range c.InLinks[c.InHead[v]:c.InHead[v+1]] {
				add(i, e, -1)
			}
			if v != int(t) && len(terms) > 0 {
				p.AddConstraint(terms, lp.EQ, supply[i*nN+v])
			}
		}
	}
	for e := 0; e < nL; e++ {
		terms = append(terms[:0], lp.Term{Var: mluVar, Coef: -capE[e]})
		for i := range sol.dests {
			add(i, int32(e), 1)
		}
		capRHS, killRHS := 0.0, 0.0
		if alive(e) {
			capRHS, killRHS = -bg[e], killSlack
		}
		p.AddConstraint(terms, lp.LE, capRHS)
		if len(terms) > 1 {
			p.AddConstraint(terms[1:], lp.LE, killRHS)
		}
	}

	x, err := p.SolveFrom(opts.Warm)
	if err != nil {
		return nil, err
	}
	if x.Status != lp.Optimal {
		return nil, fmt.Errorf("mcf: LP status %v", x.Status)
	}
	sol.basis, sol.flows = x.Basis, make([]routing.SparseRow, len(sol.dests))
	for i := range sol.dests {
		f := &sol.flows[i]
		for e := 0; e < nL; e++ {
			// Dead links carry only kill-row tolerance noise.
			if j := varOf[i*nL+e]; j >= 0 && alive(e) && x.X[j] > 0 && sol.totals[i] > 0 {
				f.Idx, f.Val = append(f.Idx, int32(e)), append(f.Val, x.X[j]/sol.totals[i])
			}
		}
	}
	return sol, nil
}

// splitRows writes the row of every reachable commodity from its
// destination's flow. It cancels the flow's loops first — normalised to a
// unit of supply, the kernel's absolute threshold means on it what it
// does on a unit row — so the flow's support is a DAG, up to cells below
// that threshold. A source's unit then leaves each node in proportion to
// the node's outflow, node by node in topological order (Kahn's), so
// Σ_k d_k·row_k(e) is the destination's flow on e wherever the flow
// conserves. A node without outflow — the source of a zero-demand pair
// the flow does not pass, or one a cycle of sub-threshold cells holds out
// of the order — sends what reaches it along its hop-count shortest
// path. Each row's loops are cancelled last, which also puts the row in
// canonical form.
func (o *pathOracle) splitRows(g *graph.Graph, sol *destSolution, rows []routing.SparseRow) {
	c := o.csr
	phi, acc, hops := make([]float64, c.NumLinks()), make([]float64, c.NumLinks()), make([]float64, c.NumLinks())
	for e := range hops {
		hops[e] = 1
	}
	x, fwd, indeg := make([]float64, c.N), make([]float64, c.N), make([]int32, c.N)
	var order, touched []int32
	var loops routing.LoopScratch
	out := func(v int32) []int32 { return c.OutLinks[c.OutHead[v]:c.OutHead[v+1]] }
	push := func(e int32, a float64) {
		if acc[e] == 0 {
			touched = append(touched, e)
		}
		acc[e] += a
	}
	for i, t := range sol.dests {
		flow := &sol.flows[i]
		flow.CancelLoops(g, phi, &loops)
		flow.Scatter(phi)
		clear(indeg)
		clear(fwd)
		for _, e := range flow.Idx {
			indeg[c.Dst[e]]++
		}
		order = order[:0]
		for v := range indeg {
			if indeg[v] == 0 {
				order = append(order, int32(v))
			}
		}
		for j := 0; j < len(order); j++ {
			for _, e := range out(order[j]) {
				if w := c.Dst[e]; phi[e] > 0 {
					fwd[order[j]] += phi[e]
					if indeg[w]--; indeg[w] == 0 {
						order = append(order, w)
					}
				}
			}
		}
		for v := range indeg {
			if indeg[v] > 0 {
				order = append(order, int32(v))
			}
		}

		spf.SPFTo(c, t, hops, o.down, &o.sc)
		for _, k := range o.groups[t] {
			x[o.comms[k].Src] = 1
			for _, v := range order {
				xv := x[v]
				x[v] = 0
				switch {
				case xv == 0 || v == int32(t):
				case fwd[v] == 0:
					o.paths[k] = spf.PathFromNext(c, graph.NodeID(v), o.sc.Next, o.paths[k][:0])
					for _, e := range o.paths[k] {
						push(int32(e), xv)
					}
				default:
					for _, e := range out(v) {
						if phi[e] > 0 {
							push(e, xv*phi[e]/fwd[v])
							x[c.Dst[e]] += xv * phi[e] / fwd[v]
						}
					}
				}
			}
			row := &rows[k]
			for _, e := range touched {
				row.Idx, row.Val, acc[e] = append(row.Idx, e), append(row.Val, acc[e]), 0
			}
			touched = touched[:0]
			row.CancelLoops(g, acc, &loops)
		}
		flow.Clear(phi)
	}
}
