package core

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/graph"
	"repro/internal/lp"
	"repro/internal/mcf"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/routing"
	"repro/internal/spf"
	"repro/internal/traffic"
)

// Solver selects the offline optimization engine.
type Solver int

// Offline solvers.
const (
	// SolverFW is the iterative smoothed Frank–Wolfe solver; it scales to
	// the largest topologies.
	SolverFW Solver = iota
	// SolverLP builds the paper's LP (7) and solves it exactly with the
	// simplex solver; intended for small topologies and tests.
	SolverLP
)

// Config controls Precompute.
type Config struct {
	// Model is the failure model to protect against (default
	// ArbitraryFailures{1}).
	Model FailureModel
	// BaseRouting fixes the base routing r (e.g. OSPF) instead of jointly
	// optimizing it. The flow's commodities are matched to the traffic
	// matrix by (src, dst).
	BaseRouting *routing.Flow
	// Solver selects the engine (default SolverFW).
	Solver Solver
	// Iterations bounds Frank–Wolfe iterations (default 200).
	Iterations int
	// PenaltyEnvelope, when >= 1, bounds the normal-case MLU to
	// PenaltyEnvelope × the optimal no-failure MLU (paper §3.5). The LP
	// solver enforces the bound exactly for any β; the FW solver
	// implements the β→1 limit by pinning the base routing to the optimal
	// no-failure flow and optimizing only the protection routing, which
	// always satisfies the envelope for β >= 1 (up to the min-MLU
	// solver's own tolerance).
	PenaltyEnvelope float64
	// Workers bounds the FW solver's parallelism (default GOMAXPROCS;
	// 1 forces serial execution). It governs the loops whose items are at
	// least one O(links) pass — the p directions' cost accumulation and the
	// two oracle fan-outs — and nothing else; every parallel item writes
	// only slots it owns, so the produced plan is bit-identical for every
	// worker count and Workers trades only wall-clock time. Below a few
	// hundred links expect ≈ 1.0×; the gain shows at thousands (DESIGN.md
	// §6). The LP solver ignores it.
	Workers int
	// Obs, when non-nil, receives solver metrics and traces: per-epoch
	// MLU/step-size spans under trace "fw", SPF and epoch counters, LP
	// pivot counts, and worker-pool gauges. Instrumentation never affects
	// the produced plan — plans are byte-identical with Obs nil or live —
	// and costs nothing when Obs is nil (all handles no-op).
	Obs *obs.Registry
	// DelayEnvelope, when >= 1, bounds each OD pair's mean propagation
	// delay to DelayEnvelope × its shortest-path delay (paper §3.5). The
	// LP solver enforces it exactly; the FW solver starts from minimum-
	// delay paths and restricts oracle directions to delay-feasible paths
	// (average delay is linear in the fractions, so every iterate stays
	// within the bound). When combined with PenaltyEnvelope under the FW
	// solver, the penalty envelope wins (the base is pinned to the
	// min-MLU routing); use the LP solver to enforce both together.
	DelayEnvelope float64
	// LPWarmBasis warm-starts the LP solver from a basis produced by a
	// previous precomputation of the same problem shape (see
	// Plan.LPBasis). A mismatched basis silently falls back to a cold
	// solve, so passing a stale basis is safe; the FW solver ignores it.
	LPWarmBasis *lp.Basis
	// SPF selects the shortest-path kernel driving the FW solver's oracle
	// sweeps (default spf.ModeAuto). Every mode produces bitwise-identical
	// shortest-path trees (see the contract in internal/spf), so the plan
	// is byte-identical whichever mode is active — SPF trades only
	// wall-clock time. The LP solver ignores it.
	SPF spf.Mode
	// Surge, when non-nil, folds a traffic-surge envelope into the
	// protection bound: for every input matrix, the surged variant (top
	// Surge.Frac OD pairs scaled by Surge.Scale) is added as an extra
	// vertex of the demand hull, so the plan is congestion-free for every
	// partial surge up to Scale as well (convexity). FW solver only.
	Surge *SurgeSpec
}

// Priority couples one traffic class with the number of failures it must
// tolerate (paper §3.5, prioritized resilient routing).
type Priority struct {
	// Demand is this class's own traffic (not cumulative).
	Demand *traffic.Matrix
	// F is the number of overlapping link failures the class tolerates.
	F int
}

// Precompute runs R3 offline precomputation for a single traffic matrix.
func Precompute(g *graph.Graph, d *traffic.Matrix, cfg Config) (*Plan, error) {
	return PrecomputeVariations(g, []*traffic.Matrix{d}, cfg)
}

// PrecomputeVariations runs offline precomputation over a convex hull of
// traffic matrices {d_1..d_H} (paper §3.5, handling traffic variations):
// the returned plan is congestion-free for every matrix in the hull plus
// virtual demands. Internally each hull vertex contributes its own set of
// utilization rows.
func PrecomputeVariations(g *graph.Graph, ds []*traffic.Matrix, cfg Config) (*Plan, error) {
	if len(ds) == 0 {
		return nil, errors.New("core: no traffic matrices")
	}
	if cfg.Model == nil {
		cfg.Model = ArbitraryFailures{F: 1}
	}
	if dm, ok := cfg.Model.(DegradationModel); ok {
		if err := dm.Validate(); err != nil {
			return nil, fmt.Errorf("core: %v", err)
		}
		// Canonicalize the hard-failure limit (uniform β = 1, integer
		// budget) to the classic model before dispatch: the solvers' fast
		// paths, the LP branch and every golden plan stay byte-identical.
		if f, ok := dm.degenerate(); ok {
			cfg.Model = ArbitraryFailures{F: f}
		}
	}
	if cfg.Surge != nil {
		if err := cfg.Surge.Validate(); err != nil {
			return nil, fmt.Errorf("core: %v", err)
		}
		if cfg.Solver == SolverLP {
			return nil, errors.New("core: surge envelopes require the FW solver (the LP builds a single-matrix program)")
		}
		// Fold each matrix's surged variant into the demand hull as an
		// extra vertex; convexity then covers every partial surge.
		withSurge := make([]*traffic.Matrix, 0, 2*len(ds))
		withSurge = append(withSurge, ds...)
		for _, d := range ds {
			withSurge = append(withSurge, cfg.Surge.Apply(d))
		}
		ds = withSurge
	}
	if cfg.Solver == SolverLP {
		if len(ds) != 1 {
			return nil, errors.New("core: LP solver supports a single matrix")
		}
		return precomputeLP(g, ds[0], cfg)
	}
	// Commodities span the union of OD supports; each hull vertex is its
	// own requirement with the same failure model.
	comms := unionCommodities(ds)
	reqs := make([]requirement, len(ds))
	for i, d := range ds {
		reqs[i] = requirement{demands: demandVector(comms, d), model: cfg.Model}
	}
	return solveFW(g, comms, reqs, cfg)
}

// PrecomputePrioritized runs offline precomputation for prioritized
// traffic classes (paper §3.5): class i must be protected against F_i
// failures, enforced through cumulative demand sets d_i + X_{F_i}.
func PrecomputePrioritized(g *graph.Graph, classes []Priority, cfg Config) (*Plan, error) {
	if len(classes) == 0 {
		return nil, errors.New("core: no priority classes")
	}
	if cfg.Solver == SolverLP {
		return nil, errors.New("core: prioritized precomputation requires the FW solver")
	}
	// Sort by descending F and build cumulative demands: d_i is the total
	// traffic needing protection level F_i or higher.
	sorted := append([]Priority(nil), classes...)
	for i := 0; i < len(sorted); i++ {
		for j := i + 1; j < len(sorted); j++ {
			if sorted[j].F > sorted[i].F {
				sorted[i], sorted[j] = sorted[j], sorted[i]
			}
		}
	}
	mats := make([]*traffic.Matrix, len(sorted))
	for i := range sorted {
		mats[i] = sorted[i].Demand
	}
	comms := unionCommodities(mats)

	var reqs []requirement
	cum := traffic.NewMatrix(sorted[0].Demand.N)
	for i := 0; i < len(sorted); i++ {
		cum = cum.Add(sorted[i].Demand)
		// Requirement: cumulative demand from the highest classes down to
		// i, protected against F_i failures.
		reqs = append(reqs, requirement{
			demands: demandVector(comms, cum),
			model:   ArbitraryFailures{F: sorted[i].F},
		})
	}
	// Reverse so reqs[0] carries the full demand (used for NormalMLU and
	// penalty envelope rows).
	for i, j := 0, len(reqs)-1; i < j; i, j = i+1, j-1 {
		reqs[i], reqs[j] = reqs[j], reqs[i]
	}
	if cfg.Model == nil {
		cfg.Model = ArbitraryFailures{F: sorted[0].F}
	}
	return solveFW(g, comms, reqs, cfg)
}

// requirement is one "demand set + failure model" pair: the plan must keep
// every link's base load (under demands) plus worst-case virtual load
// (under model) within MLU × capacity.
type requirement struct {
	demands []float64 // per commodity
	model   FailureModel
}

// unionCommodities builds OD commodities over the union of supports.
func unionCommodities(ds []*traffic.Matrix) []routing.Commodity {
	n := ds[0].N
	return routing.ODCommodities(n, func(a, b graph.NodeID) float64 {
		var m float64
		for _, d := range ds {
			if v := d.At(a, b); v > m {
				m = v
			}
		}
		return m
	})
}

func demandVector(comms []routing.Commodity, d *traffic.Matrix) []float64 {
	v := make([]float64, len(comms))
	for k, c := range comms {
		v[k] = d.At(c.Src, c.Dst)
	}
	return v
}

// solveFW is the iterative offline solver: smoothed Frank–Wolfe over the
// product of flow polytopes for (r, p).
func solveFW(g *graph.Graph, comms []routing.Commodity, reqs []requirement, cfg Config) (*Plan, error) {
	nK := len(comms)
	iters := cfg.Iterations
	if iters == 0 {
		iters = 200
	}

	// The fw.run span covers the whole solve: base initialization, the
	// epochs, and packaging.
	o := newFWObs(cfg.Obs)
	runSp := o.trace.Start("fw.run")
	defer runSp.End()

	initSp := runSp.Child("base-init")
	st, err := newFWState(g, comms, reqs, cfg, o)
	if err != nil {
		return nil, err
	}
	if cfg.Obs != nil {
		pool := st.pool
		cfg.Obs.GaugeFunc("fw.pool_pending", pool.Pending)
		cfg.Obs.GaugeFunc("fw.pool_loops", func() int64 { loops, _ := pool.Stats(); return loops })
		cfg.Obs.GaugeFunc("fw.pool_items", func() int64 { _, items := pool.Stats(); return items })
	}
	initSp.End()
	st.run(iters, runSp)

	// ---- Package the plan ----
	// The plan's base is the dense view of the iterate with loops removed;
	// the rows are re-read from it so the reported objective is the plan's.
	// Its protection is sanitizeProt's dense view of P, re-read the same
	// way.
	pkgSp := runSp.Child("package")
	defer pkgSp.End()
	totalDemand := reqs[0].demands
	base := routing.NewFlow(g, comms)
	for k := 0; k < nK; k++ {
		st.R[k].Scatter(base.Frac[k])
		base.Comms[k].Demand = totalDemand[k]
	}
	base.RemoveLoops()
	for k := 0; k < nK; k++ {
		st.R[k].SetDense(base.Frac[k])
	}
	prot := sanitizeProt(g, st.P)
	for l := range prot {
		st.P[l].SetDense(prot[l])
	}
	plan := &Plan{
		G:     g,
		Model: reqs[highestModelIndex(reqs)].model,
		Base:  base,
		Prot:  prot,
		MLU:   st.objective(),
	}
	plan.NormalMLU = routing.MLU(g, base.Loads())
	// The epoch loop tracked the running objective; settle the gauge on
	// the restored-best plan value.
	st.o.mlu.Set(plan.MLU)
	return plan, nil
}

// newFWState builds the solver's initial iterate: the base routing
// (optimized by MinMLU, or matched from cfg.BaseRouting) and one shortest
// detour per protected link.
func newFWState(g *graph.Graph, comms []routing.Commodity, reqs []requirement, cfg Config, o fwObs) (*fwState, error) {
	nL := g.NumLinks()
	nK := len(comms)
	capac := make([]float64, nL)
	for e := 0; e < nL; e++ {
		capac[e] = g.Link(graph.LinkID(e)).Capacity
	}
	optimizeBase := cfg.BaseRouting == nil
	R := make([]routing.SparseRow, nK)
	totalDemand := reqs[0].demands
	if optimizeBase {
		initComms := make([]routing.Commodity, nK)
		copy(initComms, comms)
		for k := range initComms {
			initComms[k].Demand = totalDemand[k]
		}
		initIters := 120
		if cfg.PenaltyEnvelope >= 1 {
			// Penalty envelope (FW): pin the base to the optimal
			// no-failure routing — the β→1 limit of the paper's hard
			// constraint — and optimize only p below.
			initIters = 300
			optimizeBase = false
		}
		res := mcf.MinMLU(g, initComms, mcf.Options{Iterations: initIters})
		for k := 0; k < nK; k++ {
			R[k].SetDense(res.Flow.Frac[k])
		}
	} else {
		// Match provided flow rows by OD pair.
		type pair struct{ a, b graph.NodeID }
		rows := make(map[pair][]float64, len(cfg.BaseRouting.Comms))
		for k, c := range cfg.BaseRouting.Comms {
			rows[pair{c.Src, c.Dst}] = cfg.BaseRouting.Frac[k]
		}
		for k, c := range comms {
			row, ok := rows[pair{c.Src, c.Dst}]
			if !ok {
				return nil, fmt.Errorf("core: base routing missing OD pair %d->%d", c.Src, c.Dst)
			}
			if len(row) != nL {
				// A flow built over another graph.
				return nil, fmt.Errorf("core: base routing has %d links, topology has %d", len(row), nL)
			}
			R[k].SetDense(row)
		}
	}

	// Protection init: shortest detour avoiding the link itself when one
	// exists, otherwise route on the link (p_l(l)=1 means "unprotected").
	P := make([]routing.SparseRow, nL)
	for l := 0; l < nL; l++ {
		lid := graph.LinkID(l)
		link := g.Link(lid)
		avoid := func(id graph.LinkID) bool { return id != lid }
		path := spf.ShortestPath(g, link.Src, link.Dst, avoid, spf.WeightCost(g))
		if path == nil {
			path = []graph.LinkID{lid}
		}
		P[l].SetPath(path)
	}

	// Delay envelope bounds per commodity. Average path delay is linear in
	// the routing fractions, so starting from the (trivially feasible)
	// minimum-delay paths and only ever mixing in delay-feasible oracle
	// paths keeps every iterate inside the envelope.
	var delayCap []float64
	if cfg.DelayEnvelope >= 1 {
		delayCap = make([]float64, nK)
		nextCache := map[graph.NodeID][]graph.LinkID{}
		distCache := map[graph.NodeID][]float64{}
		for k, c := range comms {
			dist, ok := distCache[c.Dst]
			if !ok {
				var next []graph.LinkID
				dist, next = spf.DijkstraToWithNext(g, c.Dst, nil, spf.DelayCost(g))
				distCache[c.Dst] = dist
				nextCache[c.Dst] = next
			}
			delayCap[k] = cfg.DelayEnvelope * dist[c.Src]
			if optimizeBase {
				R[k].SetPath(spf.PathVia(g, c.Src, nextCache[c.Dst]))
			}
		}
	}

	return &fwState{
		g: g, comms: comms, reqs: reqs, capac: capac,
		R: R, P: P, delayCap: delayCap,
		optimizeBase: optimizeBase,
		pool:         par.New(cfg.Workers),
		o:            o,
		spfMode:      cfg.SPF.Resolve(g.NumNodes()),
	}, nil
}

func highestModelIndex(reqs []requirement) int {
	best, bi := -1, 0
	for i, r := range reqs {
		if f := r.model.MaxFailures(); f > best {
			best, bi = f, i
		}
	}
	return bi
}

// fwObs bundles the solver's metric handles. The zero value (all nil) is
// the uninstrumented configuration: every call is a nil-receiver no-op,
// so the solver code reports unconditionally.
type fwObs struct {
	spf       *obs.Counter    // Dijkstra invocations in the solver loop
	repairs   *obs.Counter    // incremental tree repairs (spf.incremental_repairs)
	fallbacks *obs.Counter    // flat rebuilds of dynamic trees (spf.full_fallbacks)
	dirtyFrac *obs.Histogram  // dirty-link percentage per tree update (spf.dirty_frac)
	epochs    *obs.Counter    // completed FW epochs
	mlu       *obs.FloatGauge // latest true objective
	step      *obs.FloatGauge // latest accepted global step size
	protNNZ   *obs.Gauge      // protection nonzeros after the latest epoch: what an epoch's p work scales with
	splits    *obs.Counter    // paired block-sweep probes whose maxima differed and ran one after the other
	trace     *obs.Trace      // span tree: fw.run > {base-init, epoch > {directions, global-step, r-sweep, p-sweep}, package}
}

func newFWObs(reg *obs.Registry) fwObs {
	if reg == nil {
		return fwObs{}
	}
	return fwObs{
		spf:       reg.Counter("fw.spf"),
		repairs:   reg.Counter("spf.incremental_repairs"),
		fallbacks: reg.Counter("spf.full_fallbacks"),
		dirtyFrac: reg.Histogram("spf.dirty_frac", obs.LinearBounds(0, 10, 10)),
		epochs:    reg.Counter("fw.epochs"),
		mlu:       reg.FloatGauge("fw.mlu"),
		step:      reg.FloatGauge("fw.step"),
		protNNZ:   reg.Gauge("fw.prot_nnz"),
		splits:    reg.Counter("fw.probe_splits"),
		trace:     reg.Trace("fw"),
	}
}

// noteUpdate routes one DynTree.Update outcome to the observability
// handles (all no-ops when uninstrumented).
func (o *fwObs) noteUpdate(kind spf.UpdateKind, frac float64) {
	switch kind {
	case spf.UpdateRepaired:
		o.repairs.Inc()
	case spf.UpdateRebuilt:
		o.fallbacks.Inc()
	}
	if kind != spf.UpdateNone {
		o.dirtyFrac.Observe(int64(frac * 100))
	}
}

// fwState carries the Frank–Wolfe iterate.
type fwState struct {
	g            *graph.Graph
	comms        []routing.Commodity
	reqs         []requirement
	capac        []float64
	R            []routing.SparseRow // [commodity], over links
	P            []routing.SparseRow // [protected link], over links
	delayCap     []float64           // nil when no delay envelope
	optimizeBase bool
	pool         *par.Pool
	o            fwObs
	spfMode      spf.Mode // resolved kernel mode (never ModeAuto)

	// best-so-far snapshot by true objective
	bestObj float64
	bestR   []routing.SparseRow
	bestP   []routing.SparseRow

	// pcol[e] is column e of the virtual loads c_l·p_l(e): its entries in
	// ascending l, one per nonzero p_l(e) (see columns). A p-sweep accept
	// writes nv into it and nv/c_l into P, so an entry is not always
	// c_l·P[l][e] recomputed, and the pinned trajectories hold both values.
	pcol []routing.SparseRow
	lse  sweepLSE // the block sweeps' cached line-search objective

	// hot-path arenas: every per-epoch buffer the solver used to allocate
	// lives here and is reused across epochs (see DESIGN.md §9). csr is
	// the flat graph view the SPF kernel reads. selectKernels sets the
	// rest: tops maintains each pcol column's largest entries
	// incrementally when one colTop kernel serves every requirement (topK
	// is the buffer capacity; 0 disables it) — the top-F sums of
	// ArbitraryFailures (arbF, topK = max F + 1) or the knapsack walks of
	// uniform-β DegradationModels (knapU, topK = longest walk + 1); grp1
	// is the GroupFailures{K: 1} kernel. Each of arbF, knapU and grp1 is
	// nil unless every requirement's model is of its kind. incSweep
	// selects pSweepInc over pSweepRef.
	csr      *graph.CSR
	ar       fwArena
	tops     []colTop
	topK     int
	arbF     []int
	knapU    [][]float64
	grp1     []GroupFailures
	incSweep bool
	spfPool  spf.ScratchPool
	bufMu    sync.Mutex
	bufFree  [][]float64 // free list of len-nL scratch rows (getBuf)

	// Incremental-SPF state (spfMode != ModeFlat): one dynamic reverse
	// tree per protected link, repaired across epochs from the sparse
	// gradient-cost deltas instead of rebuilt by a full Dijkstra.
	pTrees   []spf.DynTree
	stampGen int32 // generation for ar.stampE
	pbMu     sync.Mutex
	pbFree   [][]graph.LinkID // free list of path scratch for delayBoundedPath
}

// fwArena holds the solver's reusable buffers. Ownership rule: a buffer is
// either fully overwritten by its producer before any read (q, us, dirLoads,
// rCost, diff, rk, the union arrays) or explicitly reset at the start of the
// producing pass (loads, pcolDir, the pattern lists and their costs);
// consumers never read a buffer across an epoch boundary. mix, zero, xDir
// during a p sweep and xCur are the exceptions: all zero between uses, which
// every user restores (SparseRow.MoveToward and Gather restore mix; Clear
// restores zero after a Scatter; the p sweeps clear xDir and xCur on the
// cells a block wrote). The protection supports themselves are owned by
// fwState: P and bestP rows, pcol and the colTop buffers.
type fwArena struct {
	objLoads [][]float64 // objective(): base loads [req][link]
	loads    [][]float64 // epoch state: base loads [req][link]
	W        [][]float64 // epoch state: worst-case virtual loads [req][link]
	sFm1     [][]float64 // p-sweep: top-(F-1) sum excluding the block's link [req][link]
	aF       [][]float64 // p-sweep: F-th largest excluding the block's link [req][link]
	grpS     [][]float64 // p-sweep, grp1 only: best SRLG sum avoiding the block's link [req][link]
	grpSl    [][]float64 // p-sweep, grp1 only: best SRLG sum through it, its own entry removed
	grpM     [][]float64 // p-sweep, grp1 only: the same two for MLGs
	grpMl    [][]float64
	xDir     []float64           // block sweeps: oracle direction per link
	xCur     []float64           // p sweeps: pcol[e][l] of the block's link l at the cells it holds
	zero     []float64           // generic models: a column scattered for WorstLoad, all zero between uses
	q        [][]float64         // softmax gradient weights [req][link]
	u0       [][]float64         // block sweeps: static utilizations [req][link]
	expu     [][]float64         // block sweeps: cached exp terms for u0 [req][link]
	live     []bool              // r-sweep: requirements with demand on the block's commodity
	diff     []float64           // r-sweep: xDir - rk per link
	active   []int32             // block sweeps: the block's active cells (r: links with nonzero diff)
	rk       []float64           // r-sweep: dense view of the block's commodity row
	mix      []float64           // SparseRow.MoveToward / Gather scratch, all zero between uses
	dirLoads [][]float64         // global step: direction loads [req][link] (joint base only)
	pcolDir  []routing.SparseRow // global step: the p direction's columns, as pcol
	unPtr    []int32             // global step: column e's cells are unIdx[unPtr[e]:unPtr[e+1]]
	unIdx    []int32             // global step: protected links in pcol[e] ∪ pcolDir[e], ascending
	unA      []float64           // global step: pcol[e][l] on those cells (0 where absent)
	unB      []float64           // global step: pcolDir[e][l] on those cells (0 where absent)
	mixVal   []float64           // global step: one probe's mixed column on the union
	us       []float64           // line searches: utilization cells of two probes [2][req*link]
	rCost    []float64           // rDirections: shared cost row (single requirement)
	rPaths   [][]graph.LinkID
	pPaths   [][]graph.LinkID
	rPathBuf [][]graph.LinkID // retained path storage per commodity
	pPathBuf [][]graph.LinkID // retained path storage per protected link
	dsts     []graph.NodeID   // rDirections: sorted distinct destinations
	dstComms [][]int          // rDirections: commodities per destination

	// pDirections: the gradient costs live only on their nonzero pattern.
	pPat     [][]int32        // previous epoch's pattern cells per protected link (incremental SPF)
	pPatNew  [][]int32        // current epoch's pattern cells per protected link, ascending
	pCost    [][]float64      // current epoch's costs, aligned with pPatNew
	patPairs [][]int32        // per-chunk (l, e) first-contribution pairs
	patVals  [][]float64      // per-chunk costs, one per pair
	pIDs     [][]int32        // per-link candidate link ids (old ∪ new pattern)
	pVals    [][]float64      // per-link candidate costs, aligned with pIDs
	stampE   []int32          // block sweeps: generation-stamped active-cell marker per link
	active2  []int32          // p-sweep: active cells of the last accepted block
	delay    []float64        // delayBoundedPath: per-link propagation delay row
	dPathBuf [][]graph.LinkID // retained delay-bounded path per commodity
}

func newMatrix(rows, cols int) [][]float64 {
	m := make([][]float64, rows)
	for i := range m {
		m[i] = make([]float64, cols)
	}
	return m
}

// ensureArena sizes the reusable buffers once per solve.
func (s *fwState) ensureArena() {
	if s.ar.q != nil {
		return
	}
	nI, nK, nL := len(s.reqs), len(s.comms), s.g.NumLinks()
	a := &s.ar
	a.loads = newMatrix(nI, nL)
	a.W = newMatrix(nI, nL)
	a.sFm1 = newMatrix(nI, nL)
	a.aF = newMatrix(nI, nL)
	a.xDir = make([]float64, nL)
	a.xCur = make([]float64, nL)
	a.zero = make([]float64, nL)
	a.q = newMatrix(nI, nL)
	a.u0 = newMatrix(nI, nL)
	a.expu = newMatrix(nI, nL)
	a.live = make([]bool, nI)
	a.diff = make([]float64, nL)
	a.active = make([]int32, nL)
	a.rk = make([]float64, nL)
	a.mix = make([]float64, nL)
	a.dirLoads = newMatrix(nI, nL)
	a.pcolDir = make([]routing.SparseRow, nL)
	a.unPtr = make([]int32, nL+1)
	a.mixVal = make([]float64, nL)
	a.us = make([]float64, 2*nI*nL)
	a.rCost = make([]float64, nL)
	a.rPaths = make([][]graph.LinkID, nK)
	a.pPaths = make([][]graph.LinkID, nL)
	a.rPathBuf = make([][]graph.LinkID, nK)
	a.pPathBuf = make([][]graph.LinkID, nL)
	a.delay = make([]float64, nL)
	for e := 0; e < nL; e++ {
		a.delay[e] = s.g.Link(graph.LinkID(e)).Delay
	}
	a.dPathBuf = make([][]graph.LinkID, nK)
	a.pPat = make([][]int32, nL)
	a.pPatNew = make([][]int32, nL)
	a.pCost = make([][]float64, nL)
	a.pIDs = make([][]int32, nL)
	a.pVals = make([][]float64, nL)
	a.stampE = make([]int32, nL)
	a.active2 = make([]int32, nL)
}

// getBuf and putBuf recycle len-nL float rows for scratch taken inside a
// pool item (scratch contents never affect results, so recycling order is
// immaterial to determinism).
func (s *fwState) getBuf() []float64 {
	s.bufMu.Lock()
	defer s.bufMu.Unlock()
	if n := len(s.bufFree); n > 0 {
		b := s.bufFree[n-1]
		s.bufFree = s.bufFree[:n-1]
		return b
	}
	return make([]float64, s.g.NumLinks())
}

func (s *fwState) putBuf(b []float64) {
	s.bufMu.Lock()
	s.bufFree = append(s.bufFree, b)
	s.bufMu.Unlock()
}

// baseLoads computes per-requirement per-link base loads into dst: of the
// iterate R when paths is nil, and otherwise of the global step's r
// direction, which is commodity k's oracle path paths[k] or its current
// row where the oracle found none (a path cell holds 1, so it adds the
// demand itself; the direction rows are never materialized). Each cell is
// zeroed and then summed over commodities in ascending k order; the pass
// costs R's nonzeros and allocates nothing.
func (s *fwState) baseLoads(paths [][]graph.LinkID, dst [][]float64) {
	for i := range s.reqs {
		li := dst[i]
		for e := range li {
			li[e] = 0
		}
		for k, d := range s.reqs[i].demands {
			switch {
			case d == 0:
			case paths == nil || paths[k] == nil:
				s.R[k].AddLoads(d, li)
			default:
				for _, id := range paths[k] {
					li[id] += d
				}
			}
		}
	}
}

// columns transposes protection into columns of virtual loads, dst[e]
// holding (l, c_l·x_l(e)) for every nonzero cell in ascending l, and
// returns dst (allocated when nil). x_l is P[l] when paths is nil, and
// otherwise the global step's p direction: the indicator of the oracle
// path paths[l] (c_l·1 = c_l), or the current row where the oracle found
// none. The pass costs the rows' nonzeros and allocates nothing warm.
func (s *fwState) columns(paths [][]graph.LinkID, dst []routing.SparseRow) []routing.SparseRow {
	if dst == nil {
		dst = make([]routing.SparseRow, s.g.NumLinks())
	}
	for e := range dst {
		dst[e].Idx, dst[e].Val = dst[e].Idx[:0], dst[e].Val[:0]
	}
	for l := range s.P {
		cl := s.capac[l]
		if paths != nil && paths[l] != nil {
			for _, id := range paths[l] {
				dst[id].Idx = append(dst[id].Idx, int32(l))
				dst[id].Val = append(dst[id].Val, cl)
			}
			continue
		}
		row := &s.P[l]
		for j, e := range row.Idx {
			if v := row.Val[j]; v != 0 {
				dst[e].Idx = append(dst[e].Idx, int32(l))
				dst[e].Val = append(dst[e].Val, cl*v)
			}
		}
	}
	return dst
}

// colAt returns a column's entry for protected link l, 0 when it holds
// none.
func colAt(col *routing.SparseRow, l int32) float64 {
	if j, ok := colFind(col, l); ok {
		return col.Val[j]
	}
	return 0
}

// colSet writes a column's entry for protected link l, inserting it at its
// ascending position when the column holds none.
func colSet(col *routing.SparseRow, l int32, v float64) {
	j, ok := colFind(col, l)
	if ok {
		col.Val[j] = v
		return
	}
	col.Idx = append(col.Idx, 0)
	col.Val = append(col.Val, 0)
	copy(col.Idx[j+1:], col.Idx[j:])
	copy(col.Val[j+1:], col.Val[j:])
	col.Idx[j], col.Val[j] = l, v
}

// colFind binary-searches a column for protected link l: its position, or
// where it would be inserted.
func colFind(col *routing.SparseRow, l int32) (int, bool) {
	lo, hi := 0, len(col.Idx)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if col.Idx[m] < l {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(col.Idx) && col.Idx[lo] == l
}

// worstAt returns requirement i's worst-case virtual load on one column —
// model.WorstLoad of the dense column, bit for bit — through the selected
// kernel when one serves (top must then be the column's colTop buffer) or,
// for generic models, WorstLoad on the column scattered into ar.zero.
func (s *fwState) worstAt(i int, top *colTop, col *routing.SparseRow) float64 {
	switch {
	case s.knapU != nil:
		// The knapsack walk over the buffer is WorstLoad bit for bit.
		w, _ := top.worstKnap(s.knapU[i])
		return w
	case s.arbF != nil && s.arbF[i] < len(s.capac):
		// The buffer answers sumTopK bit for bit as long as F stays below
		// the column length (the reference switches to index-order
		// summation at F >= len).
		return top.worstArb(s.arbF[i])
	}
	col.Scatter(s.ar.zero)
	w := s.reqs[i].model.WorstLoad(s.ar.zero)
	col.Clear(s.ar.zero)
	return w
}

// objective evaluates the true (non-smoothed) objective of the current
// iterate from scratch: max over requirements and links of utilization,
// with the columns rebuilt from P.
func (s *fwState) objective() float64 {
	nL := s.g.NumLinks()
	if s.ar.objLoads == nil {
		s.ar.objLoads = newMatrix(len(s.reqs), nL)
	}
	if s.ar.zero == nil {
		s.ar.zero = make([]float64, nL)
	}
	loads := s.ar.objLoads
	s.baseLoads(nil, loads)
	s.pcol = s.columns(nil, s.pcol)
	var top colTop
	worst := 0.0
	for e := range s.pcol {
		col := &s.pcol[e]
		if s.topK > 0 {
			top.rebuildSparse(col, s.topK)
		}
		for i, li := range loads {
			if u := (li[e] + s.worstAt(i, &top, col)) / s.capac[e]; u > worst {
				worst = u
			}
		}
	}
	return worst
}

// run executes the offline optimization as a hybrid of global Frank–Wolfe
// steps and block-coordinate refinement. Each epoch: (1) compute softmax
// gradient weights of the smoothed min-max objective; (2) take one global
// step — every commodity moves toward its oracle path with a shared step
// size found by line search — which escapes configurations where the max
// is supported by many commodities at once; (3) sweep every block (OD
// commodity, then every protected link) with its own exact line search,
// which refines solutions global FW only reaches with O(1/t) zig-zagging.
// The best iterate by true objective is kept. effort scales the epoch
// count.
//
// Execution policy (DESIGN.md §6): an item on the worker pool is at least
// one O(links) pass, which is the oracle fan-outs in rDirections and
// pDirections. Every other loop of every phase costs O(1) per cell or the
// protection's nonzeros per column and is a plain loop.
func (s *fwState) run(effort int, runSp obs.Span) {
	epochs := min(max(effort/5, 12), 120)
	s.selectKernels()
	s.bestObj = math.Inf(1)
	s.baseLoads(nil, s.ar.loads)
	s.pcol = s.columns(nil, s.pcol)
	s.refreshW()

	obj := s.trueObj()
	s.snapshotBest(obj)
	s.o.mlu.Set(obj)

	for epoch := 0; epoch < epochs && obj != 0; epoch++ {
		mu := math.Max(obj*0.002, obj*0.05*math.Pow(0.8, float64(epoch)))
		epochSp := runSp.Child("epoch")
		s.softmaxWeights(obj, mu)

		dirSp := epochSp.Child("directions")
		var rPaths [][]graph.LinkID
		if s.optimizeBase {
			rPaths = s.rDirections()
		}
		pPaths := s.pDirections()
		dirSp.End()

		gsSp := epochSp.Child("global-step")
		gamma := s.globalStep(rPaths, pPaths, mu)
		gsSp.End()
		s.o.step.Set(gamma)
		s.refreshW()
		s.baseLoads(nil, s.ar.loads)

		rSweepSp := epochSp.Child("r-sweep")
		if s.optimizeBase {
			s.rSweep(rPaths, mu)
		}
		rSweepSp.End()

		pSweepSp := epochSp.Child("p-sweep")
		if s.incSweep {
			s.pSweepInc(pPaths, mu)
		} else {
			s.pSweepRef(pPaths, mu)
		}
		pSweepSp.End()

		obj = s.trueObj()
		if obj < s.bestObj {
			s.snapshotBest(obj)
		}
		s.o.mlu.Set(obj)
		s.o.protNNZ.Set(s.protNNZ())
		s.o.epochs.Inc()
		epochSp.SetFloat("mlu", obj)
		epochSp.SetFloat("step", gamma)
		epochSp.SetFloat("mu", mu)
		epochSp.End()
	}
	s.restoreBest()
}

// selectKernels picks the worst-load evaluation the whole solve uses and
// sizes the state that goes with it. Fast evaluation from the maintained
// colTop buffers applies when every model is ArbitraryFailures (the common
// case, including priorities; arbF) or every model is a uniform-β
// DegradationModel with a short knapsack walk (every one the CLIs and r3d
// build; knapU), with a third fast path for GroupFailures with K=1 (the
// SRLG+MLG model the US-ISP experiments use; grp1). At most one of the
// three is non-nil. Everything else — GroupFailures{K>1}, F > 32, per-link
// β, long walks — takes the generic evaluation through the FailureModel
// interface, which is also the oracle the kernels are tested against.
func (s *fwState) selectKernels() {
	nL := s.g.NumLinks()
	nI := len(s.reqs)
	s.arbF, s.grp1, s.knapU = nil, nil, nil
	for _, r := range s.reqs {
		switch m := r.model.(type) {
		case ArbitraryFailures:
			// insertionStats supports F <= 32; larger F (e.g. the naive
			// all-links ablation) falls back to the generic evaluation.
			if m.F <= 32 {
				s.arbF = append(s.arbF, m.F)
			}
		case GroupFailures:
			if m.K == 1 {
				s.grp1 = append(s.grp1, m)
			}
		case DegradationModel:
			var ub [knapMaxSteps]float64
			if n, short := m.knapSteps(&ub); short {
				s.knapU = append(s.knapU, append([]float64{}, ub[:n]...))
			}
		}
	}
	if len(s.arbF) != nI {
		s.arbF = nil
	}
	if len(s.grp1) != nI {
		s.grp1 = nil
	}
	if len(s.knapU) != nI {
		s.knapU = nil
	}

	s.ensureArena()
	s.csr = s.g.CSR()
	if s.spfMode != spf.ModeFlat && s.pTrees == nil {
		s.pTrees = make([]spf.DynTree, nL)
		useDelta := s.spfMode == spf.ModeDelta
		for l := 0; l < nL; l++ {
			s.pTrees[l].Reset(s.csr, s.g.Link(graph.LinkID(l)).Dst, useDelta)
		}
	}
	if s.grp1 != nil && s.ar.grpS == nil {
		a := &s.ar
		a.grpS, a.grpSl = newMatrix(nI, nL), newMatrix(nI, nL)
		a.grpM, a.grpMl = newMatrix(nI, nL), newMatrix(nI, nL)
	}

	// Incremental top selection per pcol column. K is one more than the
	// largest F (or the longest knapsack walk) so the per-link line-search
	// evaluations, which exclude one index, always find enough entries in
	// the buffer.
	s.topK = 0
	if s.arbF != nil || s.knapU != nil {
		need := 0
		for _, f := range s.arbF {
			need = max(need, f)
		}
		for _, u := range s.knapU {
			need = max(need, len(u))
		}
		s.topK = need + 1
		if s.tops == nil {
			s.tops = make([]colTop, nL)
		}
	}
	// The incremental p sweep rides on the colTop kernels (worstArb-valid F
	// on every top-F requirement); ModeFlat keeps the reference evaluation,
	// which the differential tests compare against.
	s.incSweep = s.spfMode != spf.ModeFlat && s.topK > 0
	for _, f := range s.arbF {
		if f >= nL {
			s.incSweep = false
		}
	}
}

// refreshW recomputes the worst-case virtual loads W from the current
// pcol, rebuilding the colTop buffers first when a kernel maintains them.
func (s *fwState) refreshW() {
	if s.topK > 0 {
		for e := range s.tops {
			s.tops[e].rebuildSparse(&s.pcol[e], s.topK)
		}
	}
	var top *colTop
	for i, Wi := range s.ar.W {
		for e := range Wi {
			if s.topK > 0 {
				top = &s.tops[e]
			}
			Wi[e] = s.worstAt(i, top, &s.pcol[e])
		}
	}
}

// trueObj is the true objective of the epoch state (loads, W): the largest
// utilization over requirements and links.
func (s *fwState) trueObj() float64 {
	worst := 0.0
	for i, li := range s.ar.loads {
		Wi := s.ar.W[i]
		for e, c := range s.capac {
			if u := (li[e] + Wi[e]) / c; u > worst {
				worst = u
			}
		}
	}
	return worst
}

// softmaxWeights fills q with the gradient weights of the smoothed
// objective at the epoch state: exp((u - obj)/mu) per cell, normalized by
// their sum taken in (requirement, link) order.
func (s *fwState) softmaxWeights(obj, mu float64) {
	var zsum float64
	for i, qi := range s.ar.q {
		li, Wi := s.ar.loads[i], s.ar.W[i]
		for e, c := range s.capac {
			qi[e] = math.Exp(((li[e]+Wi[e])/c - obj) / mu)
			zsum += qi[e]
		}
	}
	inv := 1 / zsum
	for _, qi := range s.ar.q {
		for e := range qi {
			qi[e] *= inv
		}
	}
}

// sweepLSE evaluates a block sweep's line-search objective, the smoothed
// max worst + μ·log Σ exp((u − worst)/μ) over every (requirement, link)
// cell, with the cells the moving block cannot change read from a cache:
// u0 holds their utilizations and expu their exp terms at the reference
// point worst (NaN before the first fill). A cell is active when its
// requirement is live (live nil: every requirement) and stamp[e] == gen;
// the caller passes the active cells' utilizations as flat [req*link]
// rows and the z sum walks every cell in ascending order, mixing fresh and
// cached terms, so its association is that of the uncached evaluation.
type sweepLSE struct {
	u0, expu [][]float64
	worst    float64
	mu       float64
	stamp    []int32
	gen      int32
	live     []bool
	splits   *obs.Counter
}

// refill re-keys the exp cache on a new reference point.
func (c *sweepLSE) refill(worst float64) {
	for i, u0i := range c.u0 {
		ei := c.expu[i][:len(u0i)]
		for e, u := range u0i {
			ei[e] = math.Exp((u - worst) / c.mu)
		}
	}
	c.worst = worst
}

// pair returns the objective at the two probes of one line-search step,
// given each probe's maximum over all cells (wa, wb) and its active cells'
// utilizations (ua, ub). The result, and the cache state it leaves, are
// those of evaluating probe a and then probe b on their own, bit for bit.
// Equal maxima share one cache key, so one pass adds every cell into two
// independent accumulators; different maxima (counted as a split) need the
// cache keyed on each in turn, and the two evaluations run one after the
// other in that order.
func (c *sweepLSE) pair(wa, wb float64, ua, ub []float64) (fa, fb float64) {
	if wa != c.worst {
		c.refill(wa)
	}
	if wa == wb {
		za, zb := c.sums(wa, ua, ub)
		return wa + c.mu*math.Log(za), wb + c.mu*math.Log(zb)
	}
	c.splits.Inc()
	za, _ := c.sums(wa, ua, ua)
	c.refill(wb)
	_, zb := c.sums(wb, ub, ub)
	return wa + c.mu*math.Log(za), wb + c.mu*math.Log(zb)
}

// sums adds exp((u − worst)/μ) over every cell in ascending (requirement,
// link) order, once with probe a's active utilizations and once with probe
// b's, in two accumulators; static cells add their cached term to both.
func (c *sweepLSE) sums(worst float64, ua, ub []float64) (za, zb float64) {
	nL := len(c.stamp)
	for i, ei := range c.expu {
		ei = ei[:nL]
		if c.live != nil && !c.live[i] {
			for _, x := range ei {
				za += x
				zb += x
			}
			continue
		}
		ra, rb := ua[i*nL:(i+1)*nL], ub[i*nL:(i+1)*nL]
		for e, x := range ei {
			if c.stamp[e] == c.gen {
				za += math.Exp((ra[e] - worst) / c.mu)
				zb += math.Exp((rb[e] - worst) / c.mu)
			} else {
				za += x
				zb += x
			}
		}
	}
	return za, zb
}

// rSweep runs one r block sweep: every commodity in turn moves toward its
// oracle path by its own exact line search on the smoothed objective.
//
// A commodity block moves at most the links on its oracle path and its
// current support; every other (requirement, link) cell is static during
// the line search. The reference evaluation computes
// u = (loads + gamma*d*(xDir-rk) + W) / capac for every cell; for a static
// cell the middle term is a signed zero (gamma*d >= 0 times diff, which is
// +0 when zero, or gamma*0 = +0 times any diff, which is at worst -0), and
// adding a signed zero to loads (never -0: base loads are sums of
// nonnegative terms with exact cancellation rounding to +0) reproduces
// loads bitwise. Static utilizations u0 are therefore constant across the
// whole sweep between accepted blocks, and their exp terms are cached in
// sweepLSE, so an evaluation computes math.Exp only for the few active
// cells plus cache refills while matching the reference exactly.
func (s *fwState) rSweep(rPaths [][]graph.LinkID, mu float64) {
	nL := s.g.NumLinks()
	nI := len(s.reqs)
	nT := nI * nL
	loads, W := s.ar.loads, s.ar.W
	u0 := s.ar.u0
	xDir, diff, act := s.ar.xDir, s.ar.diff, s.ar.active
	rk, live, stamp := s.ar.rk, s.ar.live, s.ar.stampE
	usA, usB := s.ar.us[:nT], s.ar.us[nT:]
	for i := 0; i < nI; i++ {
		li, Wi, u0i := loads[i], W[i], u0[i]
		for e := 0; e < nL; e++ {
			u0i[e] = (li[e] + Wi[e]) / s.capac[e]
		}
	}
	lse := &s.lse
	*lse = sweepLSE{u0: u0, expu: s.ar.expu, worst: math.NaN(), mu: mu, stamp: stamp, live: live, splits: s.o.splits}
	for k := range s.comms {
		path := rPaths[k]
		if path == nil {
			continue
		}
		for e := range xDir {
			xDir[e] = 0
		}
		for _, id := range path {
			xDir[id] = 1
		}
		// The block works on a dense view of the commodity's row.
		for e := range rk {
			rk[e] = 0
		}
		s.R[k].Scatter(rk)
		s.stampGen++
		gen := s.stampGen
		nAct := 0
		for e := 0; e < nL; e++ {
			d := xDir[e] - rk[e]
			diff[e] = d
			if d != 0 {
				stamp[e] = gen
				act[nAct] = int32(e)
				nAct++
			}
		}
		hasDemand := false
		for i := 0; i < nI; i++ {
			live[i] = s.reqs[i].demands[k] != 0
			hasDemand = hasDemand || live[i]
		}
		if nAct == 0 || !hasDemand {
			// Every cell is static: the reference evaluation is
			// constant in gamma, so its accept test
			// eval(gamma) >= eval(0) - 1e-15 always rejects, and a
			// rejected block leaves rk, loads and the caches
			// untouched. Skipping is bit-identical.
			continue
		}
		lse.gen = gen
		// Max over the static cells; max is order-insensitive, so
		// folding them per row here and merging with the active
		// cells below reproduces the reference max exactly.
		staticMax := 0.0
		for i := 0; i < nI; i++ {
			u0i := u0[i]
			if !live[i] {
				for e := 0; e < nL; e++ {
					if u0i[e] > staticMax {
						staticMax = u0i[e]
					}
				}
				continue
			}
			for e := 0; e < nL; e++ {
				if diff[e] == 0 && u0i[e] > staticMax {
					staticMax = u0i[e]
				}
			}
		}
		eval := func(ga, gb float64) (float64, float64) {
			wa, wb := staticMax, staticMax
			for i := 0; i < nI; i++ {
				if !live[i] {
					continue
				}
				d := s.reqs[i].demands[k]
				gda, gdb := ga*d, gb*d
				li, Wi := loads[i], W[i]
				ra, rb := usA[i*nL:(i+1)*nL], usB[i*nL:(i+1)*nL]
				for _, e32 := range act[:nAct] {
					e := int(e32)
					ua := (li[e] + gda*diff[e] + Wi[e]) / s.capac[e]
					ub := (li[e] + gdb*diff[e] + Wi[e]) / s.capac[e]
					ra[e], rb[e] = ua, ub
					if ua > wa {
						wa = ua
					}
					if ub > wb {
						wb = ub
					}
				}
			}
			return lse.pair(wa, wb, usA, usB)
		}
		gamma := ternaryMin(eval, 12)
		if !accepts(gamma, eval) {
			continue
		}
		for i := 0; i < nI; i++ {
			d := s.reqs[i].demands[k]
			if d == 0 {
				continue
			}
			li := loads[i]
			for _, e32 := range act[:nAct] {
				e := int(e32)
				li[e] += gamma * d * diff[e]
			}
		}
		for e := 0; e < nL; e++ {
			rk[e] = (1-gamma)*rk[e] + gamma*xDir[e]
		}
		s.R[k].Gather(rk, path)
		// The accepted step moved loads only on active cells of
		// rows with demand; refresh their static view and exp cache
		// (at the current reference point) for the next blocks.
		for i := 0; i < nI; i++ {
			if !live[i] {
				continue
			}
			li, Wi, u0i, ei := loads[i], W[i], u0[i], s.ar.expu[i]
			for _, e32 := range act[:nAct] {
				e := int(e32)
				u0i[e] = (li[e] + Wi[e]) / s.capac[e]
				ei[e] = math.Exp((u0i[e] - lse.worst) / mu)
			}
		}
	}
}

// openPBlock prepares protected link l's block for a p-sweep line search
// and returns its active cells: those p_l holds nonzero, then the oracle
// path's. Each is stamped with a fresh generation; xCur takes pcol[e][l] on
// the held cells and xDir takes c_l on the path (the direction in v-space,
// c_l × the direction's fraction). Both rows are zero everywhere else, so
// (1-γ)·xCur[e] + γ·xDir[e] is the probe value of every cell, and exactly
// +0 off the active ones. p_l(e) != 0 exactly when pcol[e] holds l: the
// two are written together (columns, acceptP), and the values never reach
// the subnormal range where the product or quotient could flush to zero.
func (s *fwState) openPBlock(l int, path []graph.LinkID) []int32 {
	s.stampGen++
	gen := s.stampGen
	stamp, act := s.ar.stampE, s.ar.active
	xCur, xDir := s.ar.xCur, s.ar.xDir
	row := &s.P[l]
	n := 0
	for j, e := range row.Idx {
		if row.Val[j] != 0 {
			stamp[e] = gen
			act[n] = e
			n++
			xCur[e] = colAt(&s.pcol[e], int32(l))
		}
	}
	cl := s.capac[l]
	for _, id := range path {
		xDir[id] = cl
		if stamp[id] != gen {
			stamp[id] = gen
			act[n] = int32(id)
			n++
		}
	}
	return act[:n]
}

// closePBlock clears the block's cells from xCur and xDir.
func (s *fwState) closePBlock(act []int32) {
	for _, e := range act {
		s.ar.xCur[e] = 0
		s.ar.xDir[e] = 0
	}
}

// acceptP moves protected link l's block by gamma on its active cells: each
// entry pcol[e][l] becomes nv = (1-γ)·xCur[e] + γ·xDir[e], which xCur then
// holds, p_l(e) becomes nv/c_l (the path's new cells joining p_l's
// support), and every colTop buffer whose entry moved follows. Off the
// active cells both are +0 before and after, so the update skips them.
func (s *fwState) acceptP(l int, gamma float64, path []graph.LinkID, act []int32) {
	cl := s.capac[l]
	xCur, xDir, mix := s.ar.xCur, s.ar.xDir, s.ar.mix
	for _, e32 := range act {
		e := int(e32)
		old := xCur[e]
		nv := (1-gamma)*old + gamma*xDir[e]
		xCur[e] = nv
		mix[e] = nv / cl
		if nv == old {
			continue
		}
		colSet(&s.pcol[e], int32(l), nv)
		if s.topK > 0 && !s.tops[e].update(int32(l), nv, s.topK) {
			s.tops[e].rebuildSparse(&s.pcol[e], s.topK)
		}
	}
	s.P[l].Gather(mix, path)
}

// pSweepRef runs one p block sweep by the reference evaluation: every
// line-search probe of block l recomputes every (requirement, link) cell,
// through the selected kernel's per-block statistics or, in the generic
// case, through WorstLoad on the column with entry l replaced. It serves
// every model the incremental sweep does not (GroupFailures, the generic
// path) and ModeFlat, where it is the oracle pSweepInc is tested against.
func (s *fwState) pSweepRef(pPaths [][]graph.LinkID, mu float64) {
	nL := s.g.NumLinks()
	nI := len(s.reqs)
	nT := nI * nL
	loads, W := s.ar.loads, s.ar.W
	sFm1, aF := s.ar.sFm1, s.ar.aF
	xCur, xDir, zero := s.ar.xCur, s.ar.xDir, s.ar.zero
	usA, usB := s.ar.us[:nT], s.ar.us[nT:]
	// Group-model stats: best group sum not containing l (sS/sM) and best
	// sum among groups containing l with l's own entry removed (mSl/mMl),
	// per requirement and link.
	sS, mSl, sM, mMl := s.ar.grpS, s.ar.grpSl, s.ar.grpM, s.ar.grpMl
	clear(xDir) // the r sweep leaves its last block's path behind
	for l := 0; l < nL; l++ {
		path := pPaths[l]
		if path == nil {
			continue
		}
		act := s.openPBlock(l, path)

		var evalW func(i, e int, x float64) float64
		switch {
		case s.arbF != nil:
			// Insertion stats: top-(F-1) sum and F-th largest of the
			// column with entry l excluded; then the worst virtual
			// load as a function of x = c_l p_l(e) is
			// sFm1 + max(x, aF). The maintained colTop buffers answer
			// both in O(F) per cell instead of rescanning the column,
			// bit-identical to insertionStats (same selection order,
			// same summation order).
			for i := 0; i < nI; i++ {
				F := s.arbF[i]
				sfi, afi := sFm1[i], aF[i]
				for e := 0; e < nL; e++ {
					sfi[e], afi[e] = s.tops[e].stats(int32(l), F)
				}
			}
			evalW = func(i, e int, x float64) float64 {
				if x > aF[i][e] {
					return sFm1[i][e] + x
				}
				return sFm1[i][e] + aF[i][e]
			}
		case s.grp1 != nil:
			// With K=1, the worst case is one SRLG plus one MLG: the
			// best group either avoids l entirely (sum precomputed) or
			// contains l and gains x.
			for i := 0; i < nI; i++ {
				groupStats(s.grp1[i].SRLGs, s.pcol, graph.LinkID(l), sS[i], mSl[i], zero)
				groupStats(s.grp1[i].MLGs, s.pcol, graph.LinkID(l), sM[i], mMl[i], zero)
			}
			evalW = func(i, e int, x float64) float64 {
				srlg := sS[i][e]
				if v := mSl[i][e] + x; v > srlg {
					srlg = v
				}
				if srlg < 0 {
					srlg = 0
				}
				mlg := sM[i][e]
				if v := mMl[i][e] + x; v > mlg {
					mlg = v
				}
				if mlg < 0 {
					mlg = 0
				}
				return srlg + mlg
			}
		case s.knapU != nil:
			// The knapsack walk over the maintained buffer, with l
			// skipped and (x, l) merged at its rank, is WorstLoad on
			// the column with entry l set to x, bit for bit.
			evalW = func(i, e int, x float64) float64 {
				return s.tops[e].worstKnapAt(s.knapU[i], int32(l), x)
			}
		default:
			evalW = func(i, e int, x float64) float64 {
				col := &s.pcol[e]
				col.Scatter(zero)
				zero[l] = x
				w := s.reqs[i].model.WorstLoad(zero)
				col.Clear(zero)
				zero[l] = 0
				return w
			}
		}

		eval := func(ga, gb float64) (float64, float64) {
			wa, wb := 0.0, 0.0
			for i := 0; i < nI; i++ {
				li := loads[i]
				ra, rb := usA[i*nL:(i+1)*nL], usB[i*nL:(i+1)*nL]
				for e := 0; e < nL; e++ {
					xa := (1-ga)*xCur[e] + ga*xDir[e]
					xb := (1-gb)*xCur[e] + gb*xDir[e]
					ua := (li[e] + evalW(i, e, xa)) / s.capac[e]
					ub := (li[e] + evalW(i, e, xb)) / s.capac[e]
					ra[e], rb[e] = ua, ub
					if ua > wa {
						wa = ua
					}
					if ub > wb {
						wb = ub
					}
				}
			}
			var za, zb float64
			for t, ua := range usA {
				za += math.Exp((ua - wa) / mu)
				zb += math.Exp((usB[t] - wb) / mu)
			}
			return wa + mu*math.Log(za), wb + mu*math.Log(zb)
		}
		gamma := ternaryMin(eval, 12)
		if accepts(gamma, eval) {
			s.acceptP(l, gamma, path, act)
			// Refresh W from the accepted step. The fast-path evalW
			// closures only read precomputed stats or the updated top
			// buffers; the generic fallback evaluates WorstLoad on the
			// updated column directly.
			if s.topK == 0 && s.grp1 == nil {
				s.refreshW()
			} else {
				for i := 0; i < nI; i++ {
					Wi := W[i]
					for e := 0; e < nL; e++ {
						Wi[e] = evalW(i, e, xCur[e])
					}
				}
			}
		}
		s.closePBlock(act)
	}
}

// pSweepInc runs one p block sweep incrementally: pSweepRef with the
// static cells cached. For block l a cell (i, e) is static when it is off
// the block's active cells (openPBlock): its mixed value x stays exactly +0
// and l holds no entry in tops[e], so the probe collapses to the column's
// own worst load — the top-F insertion stats walked at x = 0 reproduce the
// buffer-order sum tops[e].worstArb bit for bit (the first F non-l entries
// are the first F entries, summed in the same order), and the knapsack walk
// skips and merges nothing, which is worstKnap. Static utilizations and
// their exp terms are therefore cached in sweepLSE like the r sweep's, and
// every evaluation computes the kernel and math.Exp only at the active
// cells plus cache refills.
//
// The two colTop kernels differ only where a probe is evaluated: top-F
// reads per-block insertion stats (sFm1 + max(x, aF), "others first, x
// last"), the knapsack walks the buffer with l skipped and (x, l) merged
// at its rank. Each probe evaluates the active cells once into its half
// of the us rows; the max and the z sum read them back.
func (s *fwState) pSweepInc(pPaths [][]graph.LinkID, mu float64) {
	nL := s.g.NumLinks()
	nI := len(s.reqs)
	nT := nI * nL
	loads, W := s.ar.loads, s.ar.W
	arbF, knapU := s.arbF, s.knapU
	knap := knapU != nil
	sFm1, aF := s.ar.sFm1, s.ar.aF
	xCur, xDir := s.ar.xCur, s.ar.xDir
	u0, expu := s.ar.u0, s.ar.expu
	usA, usB := s.ar.us[:nT], s.ar.us[nT:]
	stamp := s.ar.stampE
	prevAct := s.ar.active2
	nPrev := 0
	clear(xDir) // the r sweep leaves its last block's path behind
	// No closure below escapes, so a warm sweep allocates nothing.
	for i := 0; i < nI; i++ {
		li, u0i := loads[i], u0[i]
		if knap {
			u := knapU[i]
			for e := 0; e < nL; e++ {
				w, _ := s.tops[e].worstKnap(u)
				u0i[e] = (li[e] + w) / s.capac[e]
			}
			continue
		}
		F := arbF[i]
		for e := 0; e < nL; e++ {
			u0i[e] = (li[e] + s.tops[e].worstArb(F)) / s.capac[e]
		}
	}
	lse := &s.lse
	*lse = sweepLSE{u0: u0, expu: expu, worst: math.NaN(), mu: mu, stamp: stamp, splits: s.o.splits}
	for l := 0; l < nL; l++ {
		path := pPaths[l]
		if path == nil {
			continue
		}
		l32 := int32(l)
		act := s.openPBlock(l, path)
		gen := s.stampGen
		lse.gen = gen
		// Insertion stats only where fresh evaluation happens.
		if !knap {
			for i := 0; i < nI; i++ {
				F := arbF[i]
				sfi, afi := sFm1[i], aF[i]
				for _, e := range act {
					sfi[e], afi[e] = s.tops[e].stats(l32, F)
				}
			}
		}
		evalW := func(i, e int, x float64) float64 {
			if knap {
				return s.tops[e].worstKnapAt(knapU[i], l32, x)
			}
			if x > aF[i][e] {
				return sFm1[i][e] + x
			}
			return sFm1[i][e] + aF[i][e]
		}
		staticMax := 0.0
		for i := 0; i < nI; i++ {
			u0i := u0[i]
			for e := 0; e < nL; e++ {
				if stamp[e] != gen && u0i[e] > staticMax {
					staticMax = u0i[e]
				}
			}
		}
		eval := func(ga, gb float64) (float64, float64) {
			wa, wb := staticMax, staticMax
			for i := 0; i < nI; i++ {
				li := loads[i]
				ra, rb := usA[i*nL:(i+1)*nL], usB[i*nL:(i+1)*nL]
				for _, e32 := range act {
					e := int(e32)
					xa := (1-ga)*xCur[e] + ga*xDir[e]
					xb := (1-gb)*xCur[e] + gb*xDir[e]
					ua := (li[e] + evalW(i, e, xa)) / s.capac[e]
					ub := (li[e] + evalW(i, e, xb)) / s.capac[e]
					ra[e], rb[e] = ua, ub
					if ua > wa {
						wa = ua
					}
					if ub > wb {
						wb = ub
					}
				}
			}
			return lse.pair(wa, wb, usA, usB)
		}
		gamma := ternaryMin(eval, 12)
		if !accepts(gamma, eval) {
			s.closePBlock(act)
			continue
		}
		s.acceptP(l, gamma, path, act)
		// The reference refresh rewrites every W cell. The knapsack walk
		// has one summation order, so W always holds worstKnap of the
		// current buffer and only the moved cells change. Top-F active
		// cells take the insertion-stats value at the accepted x while
		// static cells collapse back to the buffer-order worstArb sum;
		// only the previous accepted block's active cells can hold
		// insertion-order bits, so the rewrite touches prevAct \ act plus
		// act — every other cell already stores worstArb of an unchanged
		// top buffer.
		// Either way the moved cells' static view and exp cache are
		// refreshed from their updated buffers, at the current reference
		// point.
		for i := 0; i < nI; i++ {
			li, Wi, u0i, ei := loads[i], W[i], u0[i], expu[i]
			if knap {
				u := knapU[i]
				for _, e32 := range act {
					e := int(e32)
					Wi[e], _ = s.tops[e].worstKnap(u)
					u0i[e] = (li[e] + Wi[e]) / s.capac[e]
					ei[e] = math.Exp((u0i[e] - lse.worst) / mu)
				}
				continue
			}
			F := arbF[i]
			for _, e32 := range prevAct[:nPrev] {
				e := int(e32)
				if stamp[e] != gen {
					Wi[e] = s.tops[e].worstArb(F)
				}
			}
			for _, e32 := range act {
				e := int(e32)
				Wi[e] = evalW(i, e, xCur[e])
				u0i[e] = (li[e] + s.tops[e].worstArb(F)) / s.capac[e]
				ei[e] = math.Exp((u0i[e] - lse.worst) / mu)
			}
		}
		nPrev = copy(prevAct, act)
		s.closePBlock(act)
	}
}

// globalStep moves every commodity toward its oracle path simultaneously
// with one shared line-searched step on the smoothed objective. It mutates
// s.R, s.P and s.pcol (the caller refreshes loads and W) and returns the
// accepted step size (0 when the line search rejects the direction).
func (s *fwState) globalStep(rPaths, pPaths [][]graph.LinkID, mu float64) float64 {
	nL := s.g.NumLinks()
	nT := len(s.reqs) * nL
	a := &s.ar
	loads := a.loads

	// The r direction is never a matrix: its loads come straight from the
	// paths, and a pinned base (rPaths nil) is its own direction, whose
	// loads are a.loads — baseLoads of the current R, by construction, bit
	// for bit. The p direction is its columns: c_l on the oracle path's
	// cells, or the current row's where the oracle found none.
	dirLoads := loads
	if rPaths != nil {
		dirLoads = a.dirLoads
		s.baseLoads(rPaths, dirLoads)
	}
	a.pcolDir = s.columns(pPaths, a.pcolDir)
	s.unionColumns()

	// A probe's mixed column (1-γ)·pcol[e] + γ·pcolDir[e] is +0 off the
	// union of the two supports, so each cell mixes only the union and
	// hands it to the selected kernel: a colTop buffer rebuilt from the
	// mixed entries (ranked by value, then index, as WorstLoad ranks the
	// dense column) or WorstLoad on the mixed column scattered. One pass
	// fills both probes' cells; the maxima and the exp sums stay serial
	// over the cell order, keeping the float association fixed.
	usA, usB := a.us[:nT], a.us[nT:]
	var top colTop
	probe := func(gamma float64, col *routing.SparseRow, e int, us []float64) {
		cur, dir := a.unA[a.unPtr[e]:a.unPtr[e+1]], a.unB[a.unPtr[e]:a.unPtr[e+1]]
		for j := range col.Idx {
			col.Val[j] = (1-gamma)*cur[j] + gamma*dir[j]
		}
		if s.topK > 0 {
			top.rebuildSparse(col, s.topK)
		}
		for i, li := range loads {
			bl := (1-gamma)*li[e] + gamma*dirLoads[i][e]
			us[i*nL+e] = (bl + s.worstAt(i, &top, col)) / s.capac[e]
		}
	}
	eval := func(ga, gb float64) (float64, float64) {
		for e := 0; e < nL; e++ {
			lo, hi := a.unPtr[e], a.unPtr[e+1]
			col := routing.SparseRow{Idx: a.unIdx[lo:hi], Val: a.mixVal[:hi-lo]}
			probe(ga, &col, e, usA)
			probe(gb, &col, e, usB)
		}
		wa, wb := 0.0, 0.0
		for t, ua := range usA {
			if ua > wa {
				wa = ua
			}
			if ub := usB[t]; ub > wb {
				wb = ub
			}
		}
		var za, zb float64
		for t, ua := range usA {
			za += math.Exp((ua - wa) / mu)
			zb += math.Exp((usB[t] - wb) / mu)
		}
		return wa + mu*math.Log(za), wb + mu*math.Log(zb)
	}
	gamma := ternaryMin(eval, 14)
	if !accepts(gamma, eval) {
		return 0
	}
	for k := range s.R {
		if rPaths != nil && rPaths[k] != nil {
			s.R[k].MoveToward(gamma, rPaths[k], a.mix)
		} else {
			s.R[k].SelfMix(gamma)
		}
	}
	for l := range s.P {
		if pPaths[l] != nil {
			s.P[l].MoveToward(gamma, pPaths[l], a.mix)
		} else {
			s.P[l].SelfMix(gamma)
		}
	}
	s.pcol = s.columns(nil, s.pcol)
	return gamma
}

// unionColumns lays out, per column e, the protected links held by pcol[e]
// or pcolDir[e] in ascending order, with both columns' values (0 where a
// column holds none) — every cell a global-step probe can make nonzero.
func (s *fwState) unionColumns() {
	a := &s.ar
	a.unIdx, a.unA, a.unB = a.unIdx[:0], a.unA[:0], a.unB[:0]
	for e := range s.pcol {
		x, y := &s.pcol[e], &a.pcolDir[e]
		i, j := 0, 0
		for i < len(x.Idx) || j < len(y.Idx) {
			switch {
			case j == len(y.Idx) || (i < len(x.Idx) && x.Idx[i] < y.Idx[j]):
				a.unIdx = append(a.unIdx, x.Idx[i])
				a.unA = append(a.unA, x.Val[i])
				a.unB = append(a.unB, 0)
				i++
			case i == len(x.Idx) || y.Idx[j] < x.Idx[i]:
				a.unIdx = append(a.unIdx, y.Idx[j])
				a.unA = append(a.unA, 0)
				a.unB = append(a.unB, y.Val[j])
				j++
			default:
				a.unIdx = append(a.unIdx, x.Idx[i])
				a.unA = append(a.unA, x.Val[i])
				a.unB = append(a.unB, y.Val[j])
				i, j = i+1, j+1
			}
		}
		a.unPtr[e+1] = int32(len(a.unIdx))
	}
}

// pDirections computes the oracle path per protected link from the active
// sets of the current iterate: a link e costs q weight only where l's
// virtual demand is part of the worst case at e. Both halves go on the
// pool, because an item of either is at least one O(links) pass: cost
// accumulation (accumulateCostP) is split by chunk of link columns e, and
// the SPF fan-out (pOraclePath) is one tree per protected link. The costs
// exist only on their nonzero pattern: per-link cell lists with aligned
// values, reset up front; the kernel scratch recycles through getBuf and
// paths append into retained storage.
//
// Under an incremental SPF mode the per-link trees persist across epochs:
// the gradient rows are sparse over a constant 1e-12 floor (a cell is
// nonzero only where the link's virtual demand sits in some worst case),
// so between epochs only the union of the old and new nonzero patterns
// can change. Each link's DynTree is repaired from exactly those
// candidate cells, with cost + 1e-12 — the same float add the flat path
// performs per cell — as the candidate cost, which makes the repaired
// tree and the produced path bit-identical to the flat sweep.
func (s *fwState) pDirections() [][]graph.LinkID {
	nL := s.g.NumLinks()
	for l := range s.ar.pPatNew {
		s.ar.pPatNew[l] = s.ar.pPatNew[l][:0]
		s.ar.pCost[l] = s.ar.pCost[l][:0]
	}
	nC := par.NumChunks(nL)
	if len(s.ar.patPairs) < nC {
		s.ar.patPairs = make([][]int32, nC)
		s.ar.patVals = make([][]float64, nC)
	}
	s.pool.ForEach(nC, s.accumulateCostP)
	s.mergePatterns(nC)
	s.pool.ForEach(nL, s.pOraclePath)
	s.ar.pPat, s.ar.pPatNew = s.ar.pPatNew, s.ar.pPat
	return s.ar.pPaths
}

// accumulateCostP computes the gradient costs of the columns e of chunk c:
// cost(l, e) = Σ_i q[i][e]/c_e · y_i(l), summed over requirements in
// ascending order, where y_i is the active set of requirement i's worst
// case on column e. With a colTop kernel the active set is read off the
// buffer — the first F entries for top-F (what sumTopK marks), the
// knapsack's walk or its anchor for a degradation envelope (what
// DegradationModel.worst marks) — at the cost of the column's nonzeros;
// generic models run ActiveSet on the column scattered. The costs gather
// in acc, a scratch indexed by protected link and all zero between
// columns, and leave as (l, e) pairs in the order of each cell's first
// contribution, with one value per pair. Chunks partition e, so each cell
// has exactly one owner and the per-chunk buffers concatenate in
// ascending e.
func (s *fwState) accumulateCostP(c int) {
	nL := s.g.NumLinks()
	lo, hi := par.Chunk(nL, c)
	q := s.ar.q
	pairs, vals := s.ar.patPairs[c][:0], s.ar.patVals[c][:0]
	acc := s.getBuf()
	clear(acc)
	var v, y []float64
	if s.topK == 0 {
		v, y = s.getBuf(), s.getBuf()
		clear(v)
	}
	for e := lo; e < hi; e++ {
		first := len(pairs)
		add := func(l int32, yl, w float64) {
			if acc[l] == 0 {
				pairs = append(pairs, l, int32(e))
			}
			acc[l] += w * yl
		}
		for i := range s.reqs {
			if q[i][e] == 0 {
				continue
			}
			w := q[i][e] / s.capac[e]
			switch {
			case s.arbF != nil:
				top := &s.tops[e]
				for _, l := range top.idx[:min(s.arbF[i], top.n)] {
					add(l, 1, w)
				}
			case s.knapU != nil:
				top, u := &s.tops[e], s.knapU[i]
				if _, anchored := top.worstKnap(u); anchored {
					add(top.idx[0], 1, w)
					break
				}
				for j := 0; j < min(len(u), top.n); j++ {
					add(top.idx[j], u[j], w)
				}
			default:
				col := &s.pcol[e]
				col.Scatter(v)
				s.reqs[i].model.ActiveSet(v, y)
				col.Clear(v)
				for l, yl := range y {
					if yl > 0 {
						add(int32(l), yl, w)
					}
				}
			}
		}
		for j := first; j < len(pairs); j += 2 {
			vals = append(vals, acc[pairs[j]])
		}
		for j := first; j < len(pairs); j += 2 {
			acc[pairs[j]] = 0
		}
	}
	s.putBuf(acc)
	if v != nil {
		s.putBuf(v)
		s.putBuf(y)
	}
	s.ar.patPairs[c], s.ar.patVals[c] = pairs, vals
}

// pOraclePath runs protected link l's shortest-path oracle over its
// gradient-cost row and stores the path in s.ar.pPaths[l] (nil when the
// link's head cannot reach its tail).
func (s *fwState) pOraclePath(l int) {
	link := s.g.Link(graph.LinkID(l))
	pat, cost := s.ar.pPatNew[l], s.ar.pCost[l]
	s.o.spf.Inc()
	if s.spfMode == spf.ModeFlat {
		row := s.pCostRow(pat, cost)
		sc := s.spfPool.Get()
		spf.SPFTo(s.csr, link.Dst, row, nil, sc)
		s.setPPath(l, link.Src, sc.Next)
		s.spfPool.Put(sc)
		s.putBuf(row)
		return
	}
	tree := &s.pTrees[l]
	if !tree.Ready() {
		row := s.pCostRow(pat, cost)
		tree.Full(row)
		s.putBuf(row)
		s.o.fallbacks.Inc()
		s.setPPath(l, link.Src, tree.Next())
		return
	}
	// Candidates: old ∪ new nonzero cells, merged in ascending link order
	// (both lists are e-sorted). Cells outside both patterns cost exactly
	// 1e-12 before and after; a cell only in the old one drops back to it.
	ids, vals := s.ar.pIDs[l][:0], s.ar.pVals[l][:0]
	oldP := s.ar.pPat[l]
	oi, ni := 0, 0
	for oi < len(oldP) || ni < len(pat) {
		var e int32
		v := 1e-12
		switch {
		case ni == len(pat) || (oi < len(oldP) && oldP[oi] < pat[ni]):
			e = oldP[oi]
			oi++
		case oi == len(oldP) || oldP[oi] > pat[ni]:
			e, v = pat[ni], cost[ni]+1e-12
			ni++
		default:
			e, v = pat[ni], cost[ni]+1e-12
			oi, ni = oi+1, ni+1
		}
		ids = append(ids, e)
		vals = append(vals, v)
	}
	s.ar.pIDs[l], s.ar.pVals[l] = ids, vals
	kind, frac := tree.Update(ids, vals, 0.25)
	s.o.noteUpdate(kind, frac)
	s.setPPath(l, link.Src, tree.Next())
}

// pCostRow expands one link's gradient costs into a dense row from getBuf:
// cost + 1e-12 on the pattern cells and the tie-breaking floor
// 0 + 1e-12 = 1e-12 elsewhere, the float add the reference cost closure
// evaluated per relaxation.
func (s *fwState) pCostRow(pat []int32, cost []float64) []float64 {
	row := s.getBuf()
	for e := range row {
		row[e] = 1e-12
	}
	for j, e := range pat {
		row[e] = cost[j] + 1e-12
	}
	return row
}

// setPPath extracts protected link l's oracle path from a next-link vector
// into the link's retained storage.
func (s *fwState) setPPath(l int, src graph.NodeID, next []int32) {
	p := spf.PathFromNext(s.csr, src, next, s.ar.pPathBuf[l][:0])
	if p != nil {
		s.ar.pPathBuf[l] = p
	}
	s.ar.pPaths[l] = p
}

// mergePatterns scatters the per-chunk (l, e) pairs and their costs into
// per-link pattern lists. Chunks are walked in ascending order and each
// buffer is internally e-sorted, so every pPatNew[l] comes out e-sorted.
func (s *fwState) mergePatterns(nC int) {
	for c := 0; c < nC; c++ {
		pairs, vals := s.ar.patPairs[c], s.ar.patVals[c]
		for j := 0; j+1 < len(pairs); j += 2 {
			l, e := pairs[j], pairs[j+1]
			s.ar.pPatNew[l] = append(s.ar.pPatNew[l], e)
			s.ar.pCost[l] = append(s.ar.pCost[l], vals[j/2])
		}
	}
}

// ternaryMin minimizes a convex function on [0,1] by ternary search. f
// evaluates the function at the two probes of a step together.
func ternaryMin(f func(a, b float64) (float64, float64), iters int) float64 {
	lo, hi := 0.0, 1.0
	for t := 0; t < iters; t++ {
		m1 := lo + (hi-lo)/3
		m2 := hi - (hi-lo)/3
		if f1, f2 := f(m1, m2); f1 <= f2 {
			hi = m2
		} else {
			lo = m1
		}
	}
	return (lo + hi) / 2
}

// accepts is the line searches' acceptance test: a step is taken unless it
// is negligible or fails to lower the objective, f evaluated at the step
// and at 0, by more than 1e-15.
func accepts(gamma float64, f func(a, b float64) (float64, float64)) bool {
	if gamma <= 1e-9 {
		return false
	}
	fg, f0 := f(gamma, 0)
	return !(fg >= f0-1e-15)
}

// rDirections computes the oracle path per OD commodity under the current
// gradient weights, honoring the delay envelope. With one requirement the
// cost is shared and grouped by destination; with several the costs are
// demand-weighted per commodity. Either way an item on the pool is at
// least one full SPF.
func (s *fwState) rDirections() [][]graph.LinkID {
	nL := s.g.NumLinks()
	q := s.ar.q
	if len(s.reqs) == 1 {
		cost := s.ar.rCost
		for e := 0; e < nL; e++ {
			cost[e] = q[0][e]/s.capac[e] + 1e-12
		}
		if s.ar.dsts == nil {
			// The destination grouping depends only on the commodity set;
			// build it once per solve.
			groups := map[graph.NodeID][]int{}
			for k := range s.comms {
				groups[s.comms[k].Dst] = append(groups[s.comms[k].Dst], k)
			}
			dsts := make([]graph.NodeID, 0, len(groups))
			for dst := range groups {
				dsts = append(dsts, dst)
			}
			sort.Slice(dsts, func(a, b int) bool { return dsts[a] < dsts[b] })
			s.ar.dsts = dsts
			s.ar.dstComms = make([][]int, len(dsts))
			for di, dst := range dsts {
				s.ar.dstComms[di] = groups[dst]
			}
		}
		// One reverse SPF per destination, fanned out across workers.
		// Commodity sets of distinct destinations are disjoint, so every
		// paths[k] slot has exactly one writer; the sorted destination
		// list only fixes the task indexing.
		s.pool.ForEach(len(s.ar.dsts), func(di int) {
			sc := s.spfPool.Get()
			spf.SPFTo(s.csr, s.ar.dsts[di], cost, nil, sc)
			s.o.spf.Inc()
			for _, k := range s.ar.dstComms[di] {
				s.setRPath(k, sc.Next, cost)
			}
			s.spfPool.Put(sc)
		})
		return s.ar.rPaths
	}
	// Demand-weighted per-commodity costs: one SPF per commodity, over a
	// cost row of its own (fully overwritten for every item).
	s.pool.ForEach(len(s.comms), func(k int) {
		cost := s.getBuf()
		for e := 0; e < nL; e++ {
			var w float64
			for i := range s.reqs {
				if d := s.reqs[i].demands[k]; d > 0 {
					w += q[i][e] * d
				}
			}
			cost[e] = w/s.capac[e] + 1e-12
		}
		sc := s.spfPool.Get()
		spf.SPFTo(s.csr, s.comms[k].Dst, cost, nil, sc)
		s.o.spf.Inc()
		s.setRPath(k, sc.Next, cost)
		s.spfPool.Put(sc)
		s.putBuf(cost)
	})
	return s.ar.rPaths
}

// setRPath extracts commodity k's oracle path from a next-link vector into
// the commodity's retained storage and applies the delay envelope. cost is
// the per-link cost row the oracle ran with.
func (s *fwState) setRPath(k int, next []int32, cost []float64) {
	p := spf.PathFromNext(s.csr, s.comms[k].Src, next, s.ar.rPathBuf[k][:0])
	if p != nil {
		s.ar.rPathBuf[k] = p
	}
	s.ar.rPaths[k] = s.checkedPath(k, p, cost)
}

// checkedPath applies the delay envelope to an oracle path, substituting a
// delay-bounded path when the unconstrained one is too slow. cost is the
// per-link cost row the oracle ran with.
func (s *fwState) checkedPath(k int, path []graph.LinkID, cost []float64) []graph.LinkID {
	if path == nil {
		return nil
	}
	if s.delayCap != nil && pathDelay(s.g, path) > s.delayCap[k]+1e-9 {
		return s.delayBoundedPath(k, cost, s.delayCap[k])
	}
	return path
}

// getPathBuf and putPathBuf recycle path scratch for delayBoundedPath's
// probe paths (scratch contents never affect results, so recycling order
// is immaterial to determinism).
func (s *fwState) getPathBuf() []graph.LinkID {
	s.pbMu.Lock()
	defer s.pbMu.Unlock()
	if n := len(s.pbFree); n > 0 {
		b := s.pbFree[n-1]
		s.pbFree = s.pbFree[:n-1]
		return b
	}
	return make([]graph.LinkID, 0, 16)
}

func (s *fwState) putPathBuf(b []graph.LinkID) {
	s.pbMu.Lock()
	s.pbFree = append(s.pbFree, b)
	s.pbMu.Unlock()
}

// snapshotBest records the current iterate as the best seen.
func (s *fwState) snapshotBest(obj float64) {
	s.bestObj = obj
	if s.bestR == nil {
		s.bestR = make([]routing.SparseRow, len(s.R))
		s.bestP = make([]routing.SparseRow, len(s.P))
	}
	for k := range s.R {
		s.bestR[k].CopyFrom(&s.R[k])
	}
	for l := range s.P {
		s.bestP[l].CopyFrom(&s.P[l])
	}
}

// restoreBest rolls the iterate back to the best recorded snapshot.
func (s *fwState) restoreBest() {
	if s.bestR == nil {
		return
	}
	for k := range s.R {
		s.R[k].CopyFrom(&s.bestR[k])
	}
	for l := range s.P {
		s.P[l].CopyFrom(&s.bestP[l])
	}
}

// protNNZ counts the protection routing's nonzero cells.
func (s *fwState) protNNZ() int64 {
	var n int64
	for l := range s.P {
		for _, v := range s.P[l].Val {
			if v != 0 {
				n++
			}
		}
	}
	return n
}

func pathDelay(g *graph.Graph, path []graph.LinkID) float64 {
	var d float64
	for _, id := range path {
		d += g.Link(id).Delay
	}
	return d
}

// delayBoundedPath finds a low-cost path for commodity k whose propagation
// delay does not exceed bound, via Lagrangian bisection on cost + θ·delay.
// Falls back to the minimum-delay path. Every probe runs on the
// allocation-free reverse kernel with pooled scratch (the former
// closure-based spf.ShortestPath calls allocated a visit set and a fresh
// path per probe); the returned path lives in the commodity's retained
// buffer, so warm calls allocate nothing.
func (s *fwState) delayBoundedPath(k int, cost []float64, bound float64) []graph.LinkID {
	src, dst := s.comms[k].Src, s.comms[k].Dst
	nL := s.g.NumLinks()
	delay := s.ar.delay
	sc := s.spfPool.Get()
	combined := s.getBuf()
	bestBuf := s.getPathBuf()
	candBuf := s.getPathBuf()

	s.o.spf.Inc()
	spf.SPFTo(s.csr, dst, delay, nil, sc)
	best := spf.PathFromNext(s.csr, src, sc.Next, bestBuf[:0])
	if best != nil {
		bestBuf = best
	}
	if best != nil && pathDelay(s.g, best) <= bound+1e-9 {
		lo, hi := 0.0, 1.0
		// Grow hi until the combined path is delay-feasible.
		for t := 0; t < 12; t++ {
			theta := (lo + hi) / 2
			for e := 0; e < nL; e++ {
				combined[e] = cost[e] + theta*delay[e]
			}
			s.o.spf.Inc()
			spf.SPFTo(s.csr, dst, combined, nil, sc)
			p := spf.PathFromNext(s.csr, src, sc.Next, candBuf[:0])
			if p == nil {
				break
			}
			candBuf = p
			if pathDelay(s.g, p) <= bound+1e-9 {
				bestBuf, candBuf = candBuf, bestBuf
				best = bestBuf
				hi = theta
			} else {
				lo = theta
				if t == 0 {
					hi = hi * 2
				}
			}
		}
	}
	var out []graph.LinkID
	if best != nil {
		out = append(s.ar.dPathBuf[k][:0], best...)
		s.ar.dPathBuf[k] = out
	}
	s.putPathBuf(candBuf)
	s.putPathBuf(bestBuf)
	s.putBuf(combined)
	s.spfPool.Put(sc)
	return out
}

// groupStats fills, for every link e, best[e] = the largest positive group
// sum over column pcol[e] treating index skip as absent among groups NOT
// containing skip (0 when none), and withSkip[e] = the largest sum among
// groups containing skip with skip's own entry removed (negative infinity
// when no group contains skip). Each column is scattered into zero, an
// all-zero scratch of the column length that is left all zero, and read
// there: the dense column's values, group by group in the same order.
func groupStats(groups [][]graph.LinkID, pcol []routing.SparseRow, skip graph.LinkID, best, withSkip, zero []float64) {
	negInf := math.Inf(-1)
	for e := range best {
		best[e] = 0
		withSkip[e] = negInf
		col := &pcol[e]
		col.Scatter(zero)
		for _, grp := range groups {
			contains := false
			var sum float64
			for _, l := range grp {
				if l == skip {
					contains = true
					continue
				}
				if int(l) >= len(zero) {
					continue
				}
				if v := zero[l]; v > 0 {
					sum += v
				}
			}
			if contains {
				if sum > withSkip[e] {
					withSkip[e] = sum
				}
			} else if sum > best[e] {
				best[e] = sum
			}
		}
		col.Clear(zero)
	}
}

// sanitizeProt removes solver-noise allocations from the protection
// routing: each p_l is decomposed into paths, paths below a small
// fraction are dropped, and the remainder is renormalized. Iterative
// solutions accumulate many near-zero fractions; left in place they make
// the online rescaling ξ = p_e/(1-p_e(e)) amplify noise unboundedly when
// p_e(e) approaches 1 under cascaded failures. Dropping sub-threshold
// paths keeps p a valid routing ([R1]-[R4] are preserved by convex
// combinations of paths) while bounding the noise.
//
// It returns the plan's dense protection rows, built in the flow it
// decomposes: each row is decomposed before it is overwritten, and a row
// without paths gets the solver's row back, as it was before loop removal.
func sanitizeProt(g *graph.Graph, prot []routing.SparseRow) [][]float64 {
	const (
		keepCoverage = 0.995 // retain paths until this much mass is kept
		alwaysKeep   = 0.005 // paths at least this large are never dropped
	)
	nL := g.NumLinks()
	f := routing.NewFlow(g, routing.LinkCommodities(g))
	for l := 0; l < nL; l++ {
		prot[l].Scatter(f.Frac[l])
	}
	f.RemoveLoops()
	P := f.Frac
	for l := 0; l < nL; l++ {
		paths := f.Decompose(l, 256)
		sort.Slice(paths, func(i, j int) bool { return paths[i].Frac > paths[j].Frac })
		var grand float64
		for _, p := range paths {
			grand += p.Frac
		}
		if grand <= 0 {
			clear(P[l])
			prot[l].Scatter(P[l])
			continue
		}
		var kept []routing.Path
		var total float64
		for _, p := range paths {
			if total >= keepCoverage*grand && p.Frac < alwaysKeep {
				break
			}
			kept = append(kept, p)
			total += p.Frac
		}
		row := P[l]
		for e := range row {
			row[e] = 0
		}
		for _, p := range kept {
			w := p.Frac / total
			for _, id := range p.Links {
				row[id] += w
			}
		}
	}

	// A min-max optimum may leave a link effectively unprotected
	// (p_l(l) ≈ 1) when protecting it cannot improve the bottleneck —
	// rational for the objective, but online reconfiguration would then
	// drop the link's real traffic. Force a functional detour wherever
	// one exists: move the self-allocated mass onto the shortest path
	// around the link. This can only raise the reported worst-case MLU
	// (recomputed by the caller), never break validity ([R2] mass is
	// conserved, the detour satisfies [R1]/[R3]).
	for l := 0; l < nL; l++ {
		lid := graph.LinkID(l)
		self := P[l][l]
		if self < 0.999 {
			continue
		}
		link := g.Link(lid)
		avoid := func(id graph.LinkID) bool { return id != lid }
		path := spf.ShortestPath(g, link.Src, link.Dst, avoid, spf.WeightCost(g))
		if path == nil {
			continue // a true bridge: nothing can protect it
		}
		P[l][l] = 0
		for _, id := range path {
			P[l][id] += self
		}
	}
	return P
}
