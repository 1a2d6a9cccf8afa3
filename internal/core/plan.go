package core

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sync"

	"repro/internal/graph"
	"repro/internal/lp"
	"repro/internal/routing"
)

// Plan is the output of offline precomputation: the base routing r, the
// protection routing p, and the achieved objective over d + X_F.
//
// A plan is frozen once it has been handed to NewState: every State built
// from it reads the plan's rows and demands in place and keeps only the
// cells it rewrites, and reads both routings through indexes the plan
// caches, so writing the plan afterwards silently corrupts every such
// state. The solvers and the codec finish all their writes before they
// return the plan; nothing else in the tree writes one. Pass plans by
// pointer (the cached indexes make the struct non-copyable, and go vet's
// copylocks check enforces it).
type Plan struct {
	G *graph.Graph
	// Model is the failure model the plan protects against.
	Model FailureModel
	// Comms are the base routing's commodities, one per OD pair, with
	// demands set from d.
	Comms []routing.Commodity
	// Base is the base routing r in flow representation, one row per
	// commodity: its links strictly ascending, exact zeros dropped and
	// every fraction finite. The solvers' rows are also loop-free (the
	// form routing.SparseRow.CancelLoops returns).
	Base []routing.SparseRow
	// Prot is the protection routing p in the same form, one row per link:
	// Prot[l] holds the fractions p_l(e) of link l's rerouted traffic
	// carried by each link e.
	Prot []routing.SparseRow
	// MLU is the objective value: the maximum link utilization over the
	// entire demand set d + X_F. MLU <= 1 certifies congestion-freedom
	// under every covered failure scenario (Theorem 1).
	MLU float64
	// NormalMLU is the utilization of the base routing under d alone (no
	// failures).
	NormalMLU float64
	// LPBasis is the optimal simplex basis from the LP solver (nil for FW
	// plans). Feed it back via Config.LPWarmBasis to warm-start a
	// re-precomputation of the same problem shape. The codec does not
	// serialize it, so the wire format is unchanged.
	LPBasis *lp.Basis

	// index is what State reads of the base routing besides its rows, and
	// protCols the protection routing's columns. The first State that
	// reroutes or asks for loads or lost demand builds them (concurrent
	// callers included), and every State of the plan shares them; NewState
	// and the row reads never do, so a plan nobody fails or queries never
	// pays.
	indexOnce sync.Once
	index     *baseIndex
	protOnce  sync.Once
	protCols  *colIndex
}

// colIndex is a routing's rows by column, compressed: column l lists the
// rows k[off[l]:off[l+1]] with a cell at l, ascending, with their
// fractions v alongside — the rows a failure of l rewrites. int32 offsets
// hold up to 2^31 nonzeros.
type colIndex struct {
	off, k []int32
	v      []float64
}

// newColIndex builds the columns of rows over nL links: one pass over the
// rows to count each column, so every array is allocated exactly, and one
// to fill them in ascending row order.
func newColIndex(nL int, rows []routing.SparseRow) colIndex {
	ix := colIndex{off: make([]int32, nL+1)}
	for _, r := range rows {
		for _, l := range r.Idx {
			ix.off[l+1]++
		}
	}
	for l := 0; l < nL; l++ {
		ix.off[l+1] += ix.off[l]
	}
	ix.k, ix.v = make([]int32, ix.off[nL]), make([]float64, ix.off[nL])
	next := append([]int32(nil), ix.off[:nL]...)
	for k, r := range rows {
		for j, l := range r.Idx {
			ix.k[next[l]], ix.v[next[l]] = int32(k), r.Val[j]
			next[l]++
		}
	}
	return ix
}

// col returns column l's rows and fractions.
func (ix *colIndex) col(l int32) ([]int32, []float64) {
	lo, hi := ix.off[l], ix.off[l+1]
	return ix.k[lo:hi], ix.v[lo:hi]
}

// baseIndex is a frozen plan's base routing r in the forms the online
// State works from besides the rows themselves (DESIGN.md §9). The plan
// never changes, so none of it goes stale.
type baseIndex struct {
	// cols are r's columns: the rows a failure of l rewrites and the terms
	// of l's load.
	cols colIndex
	// loads is r's per-link load under the plan's demands (baseLoads).
	loads []float64
	// delivered is each row's delivered share (Plan.delivered): what a
	// row no reroute has touched still delivers.
	delivered []float64
}

// baseIndex returns the plan's cached base index, building it on first
// use.
func (p *Plan) baseIndex() *baseIndex {
	p.indexOnce.Do(func() {
		nL := p.G.NumLinks()
		ix := &baseIndex{cols: newColIndex(nL, p.Base), loads: baseLoads(nL, p.Comms, p.Base)}
		ix.delivered = make([]float64, len(p.Base))
		for k := range p.Base {
			ix.delivered[k] = p.delivered(k, override{})
		}
		p.index = ix
	})
	return p.index
}

// protIndex returns the protection routing's cached columns, building
// them on first use.
func (p *Plan) protIndex() *colIndex {
	p.protOnce.Do(func() {
		ix := newColIndex(p.G.NumLinks(), p.Prot)
		p.protCols = &ix
	})
	return p.protCols
}

// baseLoads returns each link's load under the plan's rows: d_k·r_k(l)
// added for ascending k, skipping zero demands (a row holds no zero cell)
// — the bits routing.Flow.Loads forms over the same rows made dense.
func baseLoads(nL int, comms []routing.Commodity, rows []routing.SparseRow) []float64 {
	loads := make([]float64, nL)
	for k, r := range rows {
		d := comms[k].Demand
		if d == 0 {
			continue
		}
		for j, l := range r.Idx {
			loads[l] += d * r.Val[j]
		}
	}
	return loads
}

// planCell returns a plan row's fraction at link l.
func planCell(r *routing.SparseRow, l int32) float64 {
	if j, ok := slices.BinarySearch(r.Idx, l); ok {
		return r.Val[j]
	}
	return 0
}

// CongestionFree reports whether the plan carries Theorem 1's guarantee:
// every failure scenario covered by the model reroutes without overload.
func (p *Plan) CongestionFree() bool { return p.MLU <= 1+1e-9 }

// State is the online view of a router network running R3: the current
// (reconfigured) base and protection routings plus the set of failed
// links. Fail applies the paper's online reconfiguration — the rescaling
// of equation (8) and the updates (9), (10) — exactly.
//
// A State is an overlay on its plan (DESIGN.md §9). A rewritten row of
// either routing is held as the cells the reroutes rewrote, over the
// plan's row; demands are the plan's until SetDemands or ScaleDemands
// changes them. A failure therefore costs the cells it writes, and Loads
// recomputes only the links a reroute touched. A State is not safe for
// concurrent use (its queries update a cache); states sharing a plan are
// independent.
type State struct {
	G    *graph.Graph
	plan *Plan
	// demand is the state's own demand per commodity; nil while the
	// demands are still the plan's.
	demand []float64
	// base and prot are the rows of the plan's base and protection
	// routings this state has rewritten.
	base, prot overlay
	failed     graph.LinkSet
	// detours remembers ξ_e for every failed link (diagnostics and the
	// MPLS-ff data plane read these).
	detours map[graph.LinkID][]float64
	// degraded maps partially degraded links to their lost capacity
	// fraction (effective capacity (1-frac)·c). Nil until the first
	// Degrade, so purely hard-failure replays allocate nothing new.
	degraded map[graph.LinkID]float64
	// loads caches the per-link loads. It is nil until the first query
	// and again after a demand change; dirty holds the links rerouted
	// since it was last brought up to date (while loads is nil and the
	// demands are the plan's, since NewState).
	loads []float64
	dirty graph.LinkSet
}

// overlay is what a state has rewritten of one of the plan's routings:
// own lists the rewritten rows, ascending, and rows[i] holds row own[i]'s
// rewritten cells. Clones share both lists and the overrides; mine marks
// lists no other state holds, which a reroute then updates in place
// instead of replacing. dels, nil until LostDemand first asks, is aligned
// with own and caches each rewritten base row's delivered share
// (Plan.delivered), -1 where a reroute has rewritten the row since; it is
// shared and replaced with the other lists.
type overlay struct {
	own  []int32
	rows []override
	dels []float64
	mine bool
}

// override is a rewritten row: the absolute fractions at the links idx,
// ascending. Every cell not listed is the plan's. mine marks a row no
// other state holds, which a reroute rewrites in place when its storage
// has room, as a dense copy-on-write row would be.
type override struct {
	idx  []int32
	val  []float64
	mine bool
}

// at returns the row's fraction at link l, given the plan's cell there.
// A list holds a few cells per reroute that crossed the row, so a scan
// beats a binary search.
func (o override) at(l int32, plan float64) float64 {
	for a, i := range o.idx {
		if i >= l {
			if i == l {
				return o.val[a]
			}
			break
		}
	}
	return plan
}

// find returns row k's override, empty if the row is the plan's.
func (h *overlay) find(k int) override {
	if j, ok := slices.BinarySearch(h.own, int32(k)); ok {
		return h.rows[j]
	}
	return override{}
}

// each visits row k of the routing whose plan rows are plan, as the
// overlay has it, in ascending link order: the plan's cells merged with
// the override's, which win. It is the one read of a current row, for
// both routings.
func (h *overlay) each(plan []routing.SparseRow, k int, visit func(l int32, v float64)) {
	o, r := h.find(k), &plan[k]
	a := 0
	for b, l := range r.Idx {
		for ; a < len(o.idx) && o.idx[a] < l; a++ {
			visit(o.idx[a], o.val[a])
		}
		v := r.Val[b]
		if a < len(o.idx) && o.idx[a] == l {
			v = o.val[a]
			a++
		}
		visit(l, v)
	}
	for ; a < len(o.idx); a++ {
		visit(o.idx[a], o.val[a])
	}
}

// dense writes row k, as the overlay has it, into dst (of link count
// length).
func (h *overlay) dense(plan []routing.SparseRow, k int, dst []float64) {
	clear(dst)
	h.each(plan, k, func(l int32, v float64) { dst[l] = v })
}

// NewState starts an online state from a plan. It allocates the state
// alone: rows and demands stay the plan's until the state changes them,
// so the plan must not be written once a State exists (see Plan).
func NewState(plan *Plan) *State {
	return &State{
		G:       plan.G,
		plan:    plan,
		detours: make(map[graph.LinkID][]float64),
	}
}

// Clone copies the state, so tentative failure sequences (the transition
// scheduler's feasibility search) can be explored without disturbing the
// live state. It shares the plan and the rewritten rows of both routings,
// which from then on neither state writes; it copies the detours, demands
// and load cache.
func (s *State) Clone() *State {
	s.base.share()
	s.prot.share()
	detours := make(map[graph.LinkID][]float64, len(s.detours))
	for e, xi := range s.detours {
		detours[e] = append([]float64(nil), xi...)
	}
	return &State{
		G:        s.G,
		plan:     s.plan,
		demand:   append([]float64(nil), s.demand...),
		base:     s.base,
		prot:     s.prot,
		failed:   s.failed.Clone(),
		detours:  detours,
		degraded: maps.Clone(s.degraded),
		loads:    append([]float64(nil), s.loads...),
		dirty:    s.dirty.Clone(),
	}
}

// share marks the lists and every rewritten row as held by more than one
// state. Lists already shared are not written, so states that share them
// from an earlier Clone may clone on other goroutines.
func (h *overlay) share() {
	if h.mine {
		h.mine = false
		for j := range h.rows {
			h.rows[j].mine = false
		}
	}
}

// demandOf returns commodity k's current demand.
func (s *State) demandOf(k int) float64 {
	if s.demand != nil {
		return s.demand[k]
	}
	return s.plan.Comms[k].Demand
}

// ownDemands gives the state its own demand vector, if it has none yet,
// and drops the load cache the change is about to invalidate.
func (s *State) ownDemands() {
	if s.demand == nil {
		s.demand = make([]float64, len(s.plan.Comms))
		for k, c := range s.plan.Comms {
			s.demand[k] = c.Demand
		}
	}
	s.loads = nil
}

// column visits, in ascending row order, every row that is either in the
// plan's column l or rewritten by this overlay, with its current fraction
// at l and its position in h.own (-1 if not rewritten). Every row with a
// nonzero cell at l is among them.
func (h *overlay) column(ix *colIndex, l int32, visit func(k int32, j int, v float64)) {
	ck, cv := ix.col(l)
	i, j := 0, 0
	for i < len(ck) || j < len(h.own) {
		if j == len(h.own) || (i < len(ck) && ck[i] < h.own[j]) {
			visit(ck[i], -1, cv[i])
			i++
			continue
		}
		k, plan := h.own[j], 0.0
		if i < len(ck) && ck[i] == k {
			plan = cv[i]
			i++
		}
		visit(k, j, h.rows[j].at(l, plan))
		j++
	}
}

// Failed returns the set of failed links applied so far.
func (s *State) Failed() graph.LinkSet { return s.failed.Clone() }

// ProtRow returns link u's current (reconfigured) protection row p'_u in
// the plan's canonical form — links ascending, exact zeros dropped —
// written into dst's storage, which it reuses. It never aliases the plan.
func (s *State) ProtRow(u graph.LinkID, dst routing.SparseRow) routing.SparseRow {
	dst.Idx, dst.Val = dst.Idx[:0], dst.Val[:0]
	s.prot.each(s.plan.Prot, int(u), func(l int32, v float64) {
		if v != 0 {
			dst.Idx = append(dst.Idx, l)
			dst.Val = append(dst.Val, v)
		}
	})
	return dst
}

// Detour returns ξ_e for a failed link e (nil if e has not failed).
func (s *State) Detour(e graph.LinkID) []float64 { return s.detours[e] }

// ComputeDetour returns the detour ξ_e that Fail would apply for link e:
// the rescaling of equation (8) of the current protection routing p'_e.
// It does not mutate the state, so alternative detours (e.g. an
// LP-optimal interim detour during a staged transition) can be compared
// against R3's own before committing via FailWith.
func (s *State) ComputeDetour(e graph.LinkID) []float64 {
	le := int32(e)
	xi := make([]float64, s.G.NumLinks())
	pee := s.prot.find(int(e)).at(le, planCell(&s.plan.Prot[e], le))
	// Below this remaining-fraction threshold the detour consists of
	// solver noise and rescaling would amplify loads unboundedly; treat
	// the link as unprotectable (the paper's pe(e)=1 case).
	const minDetourMass = 1e-3
	if pee < 1-minDetourMass {
		inv := 1 / (1 - pee)
		s.prot.each(s.plan.Prot, int(e), func(l int32, v float64) {
			if l != le && v != 0 {
				xi[l] = v * inv
			}
		})
	}
	// else: pe(e) = 1 — the link carries no other demand (under the
	// Theorem 1 condition) and ξ_e stays zero: any demand still on e is
	// dropped, which is exactly the paper's treatment of partitions.
	return xi
}

// Fail applies the failure of link e: computes the detour ξ_e by
// rescaling p_e (equation (8)), then updates every base commodity
// (equation (9)) and every remaining protection commodity (equation (10))
// so that no demand traverses e. Failing an already-failed link is an
// error.
func (s *State) Fail(e graph.LinkID) error {
	if err := s.checkFail(e); err != nil {
		return err
	}
	s.fail(e, s.ComputeDetour(e))
	return nil
}

// FailWith applies the failure of link e using a caller-supplied detour
// ξ_e instead of R3's rescaling — the hook the transition scheduler uses
// to model interim LP-computed detours. xi[l] is the fraction of e's
// rerouted traffic carried by link l; xi[e] must be zero, every entry
// finite (tiny negative LP values are accepted) and len(xi) must be
// NumLinks. A rejected detour leaves the state untouched. Updates (9) and
// (10) are applied exactly as in Fail. The state keeps its own copy of xi.
func (s *State) FailWith(e graph.LinkID, xi []float64) error {
	if err := s.checkFail(e); err != nil {
		return err
	}
	if nL := s.G.NumLinks(); len(xi) != nL {
		return fmt.Errorf("core: detour for link %d has %d entries, want %d", e, len(xi), nL)
	}
	if xi[e] != 0 {
		return fmt.Errorf("core: detour for link %d routes through the failed link itself", e)
	}
	for l, x := range xi {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("core: detour for link %d carries %v on link %d", e, x, l)
		}
	}
	s.fail(e, append([]float64(nil), xi...))
	return nil
}

// checkFail reports why link e cannot be failed now, or nil.
func (s *State) checkFail(e graph.LinkID) error {
	if int(e) < 0 || int(e) >= s.G.NumLinks() {
		return fmt.Errorf("core: link %d out of range", e)
	}
	if s.failed.Contains(e) {
		return fmt.Errorf("core: link %d already failed", e)
	}
	if _, ok := s.degraded[e]; ok {
		// The degradation envelope does not cover fail-after-degrade
		// composition on one link: the detour ξ_e was already partially
		// consumed, so the remaining protection row no longer matches the
		// certified bound.
		return fmt.Errorf("core: link %d already degraded; cannot also fail it", e)
	}
	return nil
}

// fail applies a validated failure of e and takes ownership of xi.
func (s *State) fail(e graph.LinkID, xi []float64) {
	s.reroute(e, xi, 1)
	s.failed.Add(e)
	s.detours[e] = xi
}

// split divides a fraction v on a link losing the share frac of its
// capacity into the part that moves onto the detour and the part left.
func split(v, frac float64) (moved, left float64) {
	if frac < 1 {
		return v * frac, v * (1 - frac)
	}
	return v, 0
}

// reroute moves the share frac of everything routed over link e onto the
// detour xi: update (9) on every base row and update (10) on the
// protection row of every other surviving link. frac = 1 is a hard
// failure (nothing stays on e); frac in (0, 1) is a degradation, which
// leaves (1-frac) of each fraction on e. Only rows that cross e are
// written, and of those only the cells at ξ_e's nonzeros and at e.
func (s *State) reroute(e graph.LinkID, xi []float64, frac float64) {
	// cells is nz(ξ_e) ∪ {e}, ascending: what each crossing row rewrites,
	// and the links whose loads change.
	var cells []int32
	for l, x := range xi {
		if x != 0 || l == int(e) {
			cells = append(cells, int32(l))
		}
	}
	le := int32(e)
	s.base.splice(s.plan.Base, &s.plan.baseIndex().cols, le, xi, cells, frac, nil)
	for _, l := range cells {
		s.dirty.Add(graph.LinkID(l))
	}
	// Row e itself is left alone: a failed link's row is a snapshot, and a
	// degraded link keeps its remaining strength because further
	// disruption of it is forbidden.
	s.prot.splice(s.plan.Prot, s.plan.protIndex(), le, xi, cells, frac, func(u int32) bool {
		return u == le || s.failed.Contains(graph.LinkID(u))
	})
}

// splice applies r'(l) = r(l) + r(e)·frac·ξ_e(l) — update (9) on base
// rows, (10) on protection rows — to the rows of one routing that cross
// e: column e of the plan merged with the rows the overlay has already
// rewritten, less those skip names. Each crossing row's cells become its
// old cells merged with cells, each new value computed with the float
// operations of a dense splice (spliceRow). A row this state alone holds
// is rewritten in its own storage when that has room, as a dense
// copy-on-write row would be; any other row is carved from one slab per
// call, with room to grow if it was this state's.
func (h *overlay) splice(plan []routing.SparseRow, ix *colIndex, e int32, xi []float64, cells []int32, frac float64, skip func(u int32) bool) {
	crosses := func(k int32, v float64) bool { return v != 0 && (skip == nil || !skip(k)) }
	// size returns how many cells row j holds after the splice, how many
	// the slab must give it (0 when the row is rewritten in place).
	size := func(j int) (need, slab int) {
		if j < 0 {
			return len(cells), len(cells)
		}
		o := h.rows[j]
		need = len(o.idx) + len(cells) - shared(o.idx, cells)
		switch {
		case !o.mine:
			return need, need
		case cap(o.idx) < need:
			return need, 2 * need
		}
		return need, 0
	}
	nOwn, nCells, crossed := len(h.own), 0, false
	h.column(ix, e, func(k int32, j int, v float64) {
		if crosses(k, v) {
			crossed = true
			_, slab := size(j)
			nCells += slab
			if j < 0 {
				nOwn++
			}
		}
	})
	if !crossed {
		return
	}
	// The lists are rebuilt when they are shared or a row joins them. A
	// rewritten row's cached delivered share is stale.
	var own []int32
	var rows []override
	var dels []float64
	rebuild := !h.mine || nOwn > len(h.own)
	if rebuild {
		own, rows = make([]int32, 0, nOwn), make([]override, 0, nOwn)
		if h.dels != nil {
			dels = make([]float64, 0, nOwn)
		}
	}
	put := func(k int32, j int, o override, del float64) {
		if rebuild {
			own, rows = append(own, k), append(rows, o)
			if dels != nil {
				dels = append(dels, del)
			}
		} else {
			h.rows[j] = o
			if h.dels != nil {
				h.dels[j] = del
			}
		}
	}
	idx := make([]int32, 0, nCells)
	val := make([]float64, 0, nCells)
	h.column(ix, e, func(k int32, j int, v float64) {
		var old override
		if j >= 0 {
			old = h.rows[j]
		}
		if !crosses(k, v) {
			if j >= 0 {
				del := -1.0
				if h.dels != nil {
					del = h.dels[j]
				}
				put(k, j, old, del)
			}
			return
		}
		need, slab := size(j)
		oi, ov := old.idx, old.val
		var ni []int32
		var nv []float64
		if slab == 0 {
			// Move the old cells to the top of the row's storage; the
			// merge then writes from the bottom and never overtakes them.
			ni, nv = oi[:need], ov[:need]
			gap := need - len(oi)
			copy(ni[gap:], oi)
			copy(nv[gap:], ov)
			oi, ov = ni[gap:], nv[gap:]
		} else {
			n := len(idx)
			idx, val = idx[:n+slab], val[:n+slab]
			ni, nv = idx[n:n+need:n+slab], val[n:n+need:n+slab]
		}
		moved, left := split(v, frac)
		spliceRow(ni, nv, oi, ov, &plan[k], cells, e, xi, moved, left)
		put(k, j, override{ni, nv, true}, -1)
	})
	if rebuild {
		h.own, h.rows, h.dels, h.mine = own, rows, dels, true
	}
}

// spliceRow writes into ni, nv a row's old cells oi, ov merged with cells:
// at e the value left, at another cell l its current value — the old
// cell's, else the plan row's — plus moved·ξ_e(l). ni and nv have room
// for exactly the merged cells; they may be the old cells' own storage
// with the old cells at its top.
func spliceRow(ni []int32, nv []float64, oi []int32, ov []float64, plan *routing.SparseRow, cells []int32, e int32, xi []float64, moved, left float64) {
	pi, pv := plan.Idx, plan.Val
	w, a, b := 0, 0, 0
	for _, l := range cells {
		for ; a < len(oi) && oi[a] < l; a++ {
			ni[w], nv[w] = oi[a], ov[a]
			w++
		}
		// The plan's row is sparse, so the merge costs its nonzeros.
		for b < len(pi) && pi[b] < l {
			b++
		}
		cur := 0.0
		if b < len(pi) && pi[b] == l {
			cur = pv[b]
		}
		if a < len(oi) && oi[a] == l {
			cur = ov[a]
			a++
		}
		if l == e {
			cur = left
		} else {
			cur += moved * xi[l]
		}
		ni[w], nv[w] = l, cur
		w++
	}
	copy(ni[w:], oi[a:])
	copy(nv[w:], ov[a:])
}

// shared counts the cells the ascending links already list.
func shared(links, cells []int32) int {
	n, a := 0, 0
	for _, l := range cells {
		for a < len(links) && links[a] < l {
			a++
		}
		if a < len(links) && links[a] == l {
			n++
		}
	}
	return n
}

// Degrade applies a partial capacity loss to link e: a fraction frac of
// its capacity disappears, so frac of the traffic on e moves through the
// same detour ξ_e a hard failure would use, scaled by frac — updates (9)
// and (10) with fe·frac instead of fe. The remaining (1-frac) of the
// traffic stays on e, whose effective capacity becomes (1-frac)·c_e;
// the link's own utilization is invariant ((1-frac)·load / (1-frac)·c),
// and every other link's certified bound covers the moved share because
// the degradation envelope's anchor keeps each protection row at full
// single-failure strength (DESIGN.md §3).
//
// frac must lie strictly in (0, 1): a full loss is a hard failure (use
// Fail). Degrading a link twice, degrading a failed link, or failing a
// degraded link are errors — the envelope does not certify those
// compositions.
func (s *State) Degrade(e graph.LinkID, frac float64) error {
	if int(e) < 0 || int(e) >= s.G.NumLinks() {
		return fmt.Errorf("core: link %d out of range", e)
	}
	if math.IsNaN(frac) || frac <= 0 || frac >= 1 {
		return fmt.Errorf("core: degradation fraction %v outside (0, 1) for link %d (use Fail for a full loss)", frac, e)
	}
	if s.failed.Contains(e) {
		return fmt.Errorf("core: link %d already failed; cannot degrade it", e)
	}
	if _, ok := s.degraded[e]; ok {
		return fmt.Errorf("core: link %d already degraded", e)
	}
	s.reroute(e, s.ComputeDetour(e), frac)

	if s.degraded == nil {
		s.degraded = make(map[graph.LinkID]float64)
	}
	s.degraded[e] = frac
	return nil
}

// ScaleDemands multiplies the demand of the listed OD pairs by factor
// (every commodity when ods is nil) — the online form of a traffic
// surge. The state gets its own demand vector.
func (s *State) ScaleDemands(factor float64, ods []OD) {
	s.ownDemands()
	if ods == nil {
		for k := range s.demand {
			s.demand[k] *= factor
		}
		return
	}
	set := make(map[OD]bool, len(ods))
	for _, od := range ods {
		set[od] = true
	}
	for k, c := range s.plan.Comms {
		if set[OD{c.Src, c.Dst}] {
			s.demand[k] *= factor
		}
	}
}

// ApplyScenario replays a full scenario onto the state: surge first (the
// demand spike exists before the reaction), then hard failures in ID
// order, then degradations in listed order.
func (s *State) ApplyScenario(sc Scenario) error {
	if sc.SurgeScale > 1 {
		s.ScaleDemands(sc.SurgeScale, sc.SurgeODs)
	}
	if err := s.FailAll(sc.Failed.IDs()...); err != nil {
		return err
	}
	for _, d := range sc.Degraded {
		if err := s.Degrade(d.Link, d.Frac); err != nil {
			return err
		}
	}
	return nil
}

// FailAll applies a set of failures in the given order. Theorem 3
// guarantees the final state is order independent as long as no failure
// strands demand (p_e(e) = 1 never occurs mid-sequence); once a partition
// drops traffic, which demands were dropped — and therefore the exact
// final allocations — depends on the detection order.
//
// FailAll is all-or-nothing: the whole list is validated before anything
// is applied, so a mid-list error (an out-of-range ID, a link that
// already failed, or a duplicate within the list) leaves the state
// exactly as it was instead of with an applied prefix.
func (s *State) FailAll(links ...graph.LinkID) error {
	seen := graph.LinkSet{}
	for _, e := range links {
		if int(e) < 0 || int(e) >= s.G.NumLinks() {
			return fmt.Errorf("core: link %d out of range", e)
		}
		if s.failed.Contains(e) {
			return fmt.Errorf("core: link %d already failed", e)
		}
		if _, ok := s.degraded[e]; ok {
			return fmt.Errorf("core: link %d already degraded; cannot also fail it", e)
		}
		if seen.Contains(e) {
			return fmt.Errorf("core: link %d listed twice", e)
		}
		seen.Add(e)
	}
	for _, e := range links {
		if err := s.Fail(e); err != nil {
			// Unreachable after validation; surface it rather than hide it.
			return err
		}
	}
	return nil
}

// Loads returns the per-link load of the current base routing (demands ×
// reconfigured fractions) in a fresh slice the caller may keep. Failed
// links always carry zero load.
//
// Every load is the sum routing.Flow.Loads would form over the dense
// rows: the products d_k·r_k(l) with d_k and r_k(l) nonzero, added for
// ascending k. The state keeps the loads between queries and recomputes
// only the links rerouted since, each one whole, from its column; with
// the plan's demands the first query starts from the plan's loads.
func (s *State) Loads() []float64 {
	return append([]float64(nil), s.currentLoads()...)
}

// currentLoads brings the load cache up to date and returns it.
func (s *State) currentLoads() []float64 {
	ix := s.plan.baseIndex()
	if s.loads == nil {
		if s.demand != nil {
			s.loads = s.rowLoads()
			s.dirty.Clear()
			return s.loads
		}
		s.loads = append(make([]float64, 0, len(ix.loads)), ix.loads...)
	}
	s.dirty.Each(func(l graph.LinkID) { s.loads[l] = s.linkLoad(ix, int32(l)) })
	s.dirty.Clear()
	return s.loads
}

// linkLoad sums link l's load over its column, in ascending commodity
// order.
func (s *State) linkLoad(ix *baseIndex, l int32) float64 {
	var sum float64
	s.base.column(&ix.cols, l, func(k int32, _ int, v float64) {
		if v == 0 {
			return
		}
		if d := s.demandOf(int(k)); d != 0 {
			sum += d * v
		}
	})
	return sum
}

// rowLoads computes every link's load row by row, in commodity order:
// a row the state has not rerouted is streamed from the plan, a rerouted
// one is the plan's row merged with its overrides.
func (s *State) rowLoads() []float64 {
	loads := make([]float64, s.G.NumLinks())
	j := 0
	for k, pr := range s.plan.Base {
		var o override
		if j < len(s.base.own) && int(s.base.own[j]) == k {
			o = s.base.rows[j]
			j++
		}
		d := s.demand[k]
		if d == 0 {
			continue
		}
		li, lv := pr.Idx, pr.Val
		a := 0
		for b, l := range li {
			for ; a < len(o.idx) && o.idx[a] < l; a++ {
				if v := o.val[a]; v != 0 {
					loads[o.idx[a]] += d * v
				}
			}
			v := lv[b]
			if a < len(o.idx) && o.idx[a] == l {
				v = o.val[a]
				a++
			}
			if v != 0 {
				loads[l] += d * v
			}
		}
		for ; a < len(o.idx); a++ {
			if v := o.val[a]; v != 0 {
				loads[o.idx[a]] += d * v
			}
		}
	}
	return loads
}

// MLU returns the maximum utilization over surviving links, measured
// against effective capacities: a degraded link is judged at
// (1-frac)·c_e. It is NaN if any surviving link's utilization is.
func (s *State) MLU() float64 {
	worst := 0.0
	for e, l := range s.currentLoads() {
		if s.failed.Contains(graph.LinkID(e)) {
			continue
		}
		c := s.G.Link(graph.LinkID(e)).Capacity
		if f, ok := s.degraded[graph.LinkID(e)]; ok {
			c *= 1 - f
		}
		u := l / c
		if math.IsNaN(u) {
			return u
		}
		if u > worst {
			worst = u
		}
	}
	return worst
}

// delivered is the share of commodity k's demand that base row k, with
// overrides o, delivers: its inflow at the destination less its outflow,
// clamped to [0, 1].
func (p *Plan) delivered(k int, o override) float64 {
	row := &p.Base[k]
	dst := p.Comms[k].Dst
	var in, out float64
	for _, id := range p.G.In(dst) {
		in += o.at(int32(id), planCell(row, int32(id)))
	}
	for _, id := range p.G.Out(dst) {
		out += o.at(int32(id), planCell(row, int32(id)))
	}
	d := in - out
	if d < 0 {
		return 0
	}
	if d > 1 {
		return 1
	}
	return d
}

// SetDemands overwrites the demands of the state's base commodities, so a
// precomputed plan can be evaluated against a different traffic matrix
// (e.g. another interval of a diurnal series). Demands that reproduce the
// plan's bit for bit leave a state that still has the plan's demands as
// it was; anything else gives the state its own demand vector.
func (s *State) SetDemands(demand func(a, b graph.NodeID) float64) {
	for k, c := range s.plan.Comms {
		d := demand(c.Src, c.Dst)
		if s.demand == nil {
			if math.Float64bits(d) == math.Float64bits(c.Demand) {
				continue
			}
			s.ownDemands()
		}
		s.demand[k] = d
	}
	if s.demand != nil {
		s.loads = nil
	}
}

// touchesDst reports whether override o of base row k lists a link into
// or out of commodity k's destination: the only cells Plan.delivered
// reads.
func (p *Plan) touchesDst(k int, o override) bool {
	dst := p.Comms[k].Dst
	for _, l := range o.idx {
		if e := p.G.Link(graph.LinkID(l)); e.Src == dst || e.Dst == dst {
			return true
		}
	}
	return false
}

// LostDemand returns the total demand dropped because reconfiguration hit
// a partition (sum over commodities of demand × undelivered fraction).
// A rewritten row whose override lists none of its destination's links
// delivers the plan row's share bit for bit (DESIGN.md §9), so only the
// other rewritten rows are recomputed. The delivered share of a rewritten
// row is kept (overlay.dels) while the state alone holds its lists, so a
// clone computes only the rows its own reroutes rewrote.
func (s *State) LostDemand() float64 {
	ix := s.plan.baseIndex()
	h := &s.base
	if h.dels == nil && h.mine {
		h.dels = make([]float64, len(h.own))
		for j := range h.dels {
			h.dels[j] = -1
		}
	}
	var lost float64
	j := 0
	for k, del := range ix.delivered {
		if j < len(h.own) && int(h.own[j]) == k {
			if h.dels != nil && h.dels[j] >= 0 {
				del = h.dels[j]
			} else {
				if o := h.rows[j]; s.plan.touchesDst(k, o) {
					del = s.plan.delivered(k, o)
				}
				if h.mine {
					h.dels[j] = del
				}
			}
			j++
		}
		if d := s.demandOf(k); d != 0 {
			lost += d * (1 - del)
		}
	}
	return lost
}

// ProtEquals reports whether another state has the same protection
// routing within eps for every surviving link (used by order-independence
// tests). Rows of failed links are snapshots from the moment they failed
// and legitimately depend on the failure order, so they are not compared.
func (s *State) ProtEquals(o *State, eps float64) bool {
	return s.failed.Equal(o.failed) && rowsWithin(s.G.NumLinks(), eps, s.failed, &s.prot, s.plan.Prot, &o.prot, o.plan.Prot)
}

// BaseEquals reports whether another state has the same base routing
// within eps.
func (s *State) BaseEquals(o *State, eps float64) bool {
	return rowsWithin(s.G.NumLinks(), eps, graph.LinkSet{}, &s.base, s.plan.Base, &o.base, o.plan.Base)
}

// rowsWithin reports whether the rows of two overlays, over the plan rows
// a and b, agree within eps at each of nL links, but for the rows skip
// names.
func rowsWithin(nL int, eps float64, skip graph.LinkSet, ha *overlay, a []routing.SparseRow, hb *overlay, b []routing.SparseRow) bool {
	if len(a) != len(b) {
		return false
	}
	ra, rb := make([]float64, nL), make([]float64, nL)
	for k := range a {
		if skip.Contains(graph.LinkID(k)) {
			continue
		}
		ha.dense(a, k, ra)
		hb.dense(b, k, rb)
		for l := range ra {
			if math.Abs(ra[l]-rb[l]) > eps {
				return false
			}
		}
	}
	return true
}
