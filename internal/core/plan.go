package core

import (
	"fmt"
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
// from it reads the plan's base rows and demands in place, aliases the
// rows of Prot until it rewrites them (copy-on-write), and reads the base
// routing through an index the plan caches, so writing the plan afterwards
// silently corrupts every such state. The solvers and the codec finish all
// their writes before they return the plan; nothing else in the tree
// writes one. Pass plans by pointer (the cached index makes the struct
// non-copyable, and go vet's copylocks check enforces it).
type Plan struct {
	G *graph.Graph
	// Model is the failure model the plan protects against.
	Model FailureModel
	// Base is the base routing r with commodity demands set from d.
	Base *routing.Flow
	// Prot is the protection routing p: Prot[l][e] is the fraction of
	// link l's rerouted traffic carried by link e.
	Prot [][]float64
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

	// index is the base routing in the compressed forms State reads. The
	// first State that reroutes or asks for loads builds it (concurrent
	// callers included), and every State of the plan shares it; NewState
	// alone never does, so a plan nobody fails or queries never pays.
	indexOnce sync.Once
	index     *baseIndex
}

// baseIndex is a frozen plan's base routing r in the forms the online
// State works from (DESIGN.md §9). The plan never changes, so none of it
// goes stale.
type baseIndex struct {
	// rows is r by commodity: row k lists the links k uses.
	rows sparseRows
	// cols is its transpose: column l lists the commodities routed over
	// l, ascending, and their fractions — the rows a failure of l
	// rewrites and the terms of l's load.
	cols sparseRows
	// loads is r's per-link load under the plan's demands, with the bits
	// routing.Flow.Loads produces.
	loads []float64
}

// sparseRows is a compressed sparse matrix: row i's nonzero column
// indices are idx[off[i]:off[i+1]], ascending, and val holds the entries
// at them. (int32 offsets are ample: the dense rows of a plan with 2^31
// nonzeros would take 16 GiB first.)
type sparseRows struct {
	off []int32
	idx []int32
	val []float64
}

// row returns row i's indices and values.
func (m *sparseRows) row(i int) ([]int32, []float64) {
	lo, hi := m.off[i], m.off[i+1]
	return m.idx[lo:hi], m.val[lo:hi]
}

// baseIndex returns the plan's cached index, building it on first use:
// one pass over the dense rows to count, so every array is allocated
// exactly, and one to fill all three. Column entries are appended in
// ascending commodity order, and each link's load adds d_k·r_k(l) in that
// same order, skipping zero demands, as routing.Flow.Loads does.
func (p *Plan) baseIndex() *baseIndex {
	p.indexOnce.Do(func() {
		nK, nL := len(p.Base.Frac), p.G.NumLinks()
		ix := &baseIndex{
			rows:  sparseRows{off: make([]int32, nK+1)},
			cols:  sparseRows{off: make([]int32, nL+1)},
			loads: make([]float64, nL),
		}
		for k, fr := range p.Base.Frac {
			n := ix.rows.off[k]
			for l, v := range fr {
				if v != 0 {
					n++
					ix.cols.off[l+1]++
				}
			}
			ix.rows.off[k+1] = n
		}
		for l := 0; l < nL; l++ {
			ix.cols.off[l+1] += ix.cols.off[l]
		}
		nnz := ix.rows.off[nK]
		ix.rows.idx = make([]int32, 0, nnz)
		ix.rows.val = make([]float64, 0, nnz)
		ix.cols.idx = make([]int32, nnz)
		ix.cols.val = make([]float64, nnz)
		next := append([]int32(nil), ix.cols.off[:nL]...)
		for k, fr := range p.Base.Frac {
			d := p.Base.Comms[k].Demand
			for l, v := range fr {
				if v == 0 {
					continue
				}
				ix.rows.idx = append(ix.rows.idx, int32(l))
				ix.rows.val = append(ix.rows.val, v)
				ix.cols.idx[next[l]] = int32(k)
				ix.cols.val[next[l]] = v
				next[l]++
				if d != 0 {
					ix.loads[l] += d * v
				}
			}
		}
		p.index = ix
	})
	return p.index
}

// CongestionFree reports whether the plan carries Theorem 1's guarantee:
// every failure scenario covered by the model reroutes without overload.
func (p *Plan) CongestionFree() bool { return p.MLU <= 1+1e-9 }

// VirtualLoad returns the worst-case virtual (rerouted) load on link e
// under the plan's failure model.
func (p *Plan) VirtualLoad(e graph.LinkID) float64 {
	return p.virtualLoad(e, make([]float64, p.G.NumLinks()))
}

// virtualLoad is VirtualLoad with a caller-supplied column buffer v of
// length NumLinks, every entry of which it overwrites.
func (p *Plan) virtualLoad(e graph.LinkID, v []float64) float64 {
	for l := range v {
		v[l] = p.G.Link(graph.LinkID(l)).Capacity * p.Prot[l][e]
	}
	return p.Model.WorstLoad(v)
}

// Evaluate recomputes the plan objective from scratch: for every link,
// base load plus worst-case virtual load over capacity. It is the
// verification counterpart of the offline solvers.
func (p *Plan) Evaluate() float64 {
	baseLoads := p.Base.Loads()
	col := make([]float64, p.G.NumLinks())
	worst := 0.0
	for e := 0; e < p.G.NumLinks(); e++ {
		u := (baseLoads[e] + p.virtualLoad(graph.LinkID(e), col)) / p.G.Link(graph.LinkID(e)).Capacity
		if u > worst {
			worst = u
		}
	}
	return worst
}

// State is the online view of a router network running R3: the current
// (reconfigured) base and protection routings plus the set of failed
// links. Fail applies the paper's online reconfiguration — the rescaling
// of equation (8) and the updates (9), (10) — exactly.
//
// A State is an overlay on its plan (DESIGN.md §9). A rerouted base row
// is held as the cells the reroutes rewrote, over the plan's row; a
// protection row is the plan's until the state first writes it, then a
// private copy; demands are the plan's until SetDemands or ScaleDemands
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
	// own lists the base rows this state has rerouted, ascending, and
	// rows[i] holds row own[i]'s rewritten cells. A reroute replaces both
	// slices and never writes them or an override, so clones share them.
	own  []int32
	rows []override
	prot [][]float64
	// ownProt[u] marks the protection rows this state has copied and may
	// write; every other row still belongs to the plan.
	ownProt []bool
	failed  graph.LinkSet
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

// override is a rerouted base row: the absolute fractions at the links
// idx, ascending. Every cell not listed is the plan's.
type override struct {
	idx []int32
	val []float64
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

// NewState starts an online state from a plan. It allocates per-link
// headers only: base rows, protection rows and demands stay the plan's
// until the state changes them, so the plan must not be written once a
// State exists (see Plan).
func NewState(plan *Plan) *State {
	return &State{
		G:       plan.G,
		plan:    plan,
		prot:    shareRows(plan.Prot, nil),
		ownProt: make([]bool, len(plan.Prot)),
		detours: make(map[graph.LinkID][]float64),
	}
}

// Clone copies the state, so tentative failure sequences (the transition
// scheduler's feasibility search) can be explored without disturbing the
// live state. It shares the plan, the rerouted base rows (which are never
// written) and the protection rows still aliasing the plan; it copies the
// protection rows s owns, its demands and its load cache.
func (s *State) Clone() *State {
	detours := make(map[graph.LinkID][]float64, len(s.detours))
	for e, xi := range s.detours {
		detours[e] = append([]float64(nil), xi...)
	}
	var degraded map[graph.LinkID]float64
	if s.degraded != nil {
		degraded = make(map[graph.LinkID]float64, len(s.degraded))
		for e, f := range s.degraded {
			degraded[e] = f
		}
	}
	return &State{
		G:        s.G,
		plan:     s.plan,
		demand:   append([]float64(nil), s.demand...),
		own:      s.own,
		rows:     s.rows,
		prot:     shareRows(s.prot, s.ownProt),
		ownProt:  append([]bool(nil), s.ownProt...),
		failed:   s.failed.Clone(),
		detours:  detours,
		degraded: degraded,
		loads:    append([]float64(nil), s.loads...),
		dirty:    s.dirty.Clone(),
	}
}

// shareRows copies the row headers and, of the rows themselves, only the
// ones marked in own (none when own is nil); the rest stay shared.
func shareRows(rows [][]float64, own []bool) [][]float64 {
	out := append([][]float64(nil), rows...)
	for i, o := range own {
		if o {
			out[i] = append([]float64(nil), rows[i]...)
		}
	}
	return out
}

// ownRow returns rows[i] ready for writing, replacing the plan's row by a
// private copy the first time.
func ownRow(rows [][]float64, own []bool, i int) []float64 {
	if !own[i] {
		rows[i] = append([]float64(nil), rows[i]...)
		own[i] = true
	}
	return rows[i]
}

// demandOf returns commodity k's current demand.
func (s *State) demandOf(k int) float64 {
	if s.demand != nil {
		return s.demand[k]
	}
	return s.plan.Base.Comms[k].Demand
}

// ownDemands gives the state its own demand vector, if it has none yet,
// and drops the load cache the change is about to invalidate.
func (s *State) ownDemands() {
	if s.demand == nil {
		s.demand = make([]float64, len(s.plan.Base.Comms))
		for k, c := range s.plan.Base.Comms {
			s.demand[k] = c.Demand
		}
	}
	s.loads = nil
}

// column visits, in ascending commodity order, every base row that is
// either in the plan's column l or rerouted by this state, with its
// current fraction at l and its position in s.own (-1 if not rerouted).
// Every row with a nonzero cell at l is among them.
func (s *State) column(ix *baseIndex, l int32, visit func(k int32, j int, v float64)) {
	ck, cv := ix.cols.row(int(l))
	i, j := 0, 0
	for i < len(ck) || j < len(s.own) {
		if j == len(s.own) || (i < len(ck) && ck[i] < s.own[j]) {
			visit(ck[i], -1, cv[i])
			i++
			continue
		}
		k, plan := s.own[j], 0.0
		if i < len(ck) && ck[i] == k {
			plan = cv[i]
			i++
		}
		visit(k, j, s.rows[j].at(l, plan))
		j++
	}
}

// Failed returns the set of failed links applied so far.
func (s *State) Failed() graph.LinkSet { return s.failed.Clone() }

// HasFailed reports whether link e has failed, without cloning the set
// (the data plane consults this per packet).
func (s *State) HasFailed(e graph.LinkID) bool { return s.failed.Contains(e) }

// Base returns the current (reconfigured) base routing as a dense flow
// built on call: the commodities carry the state's demands, rerouted rows
// are fresh copies, and every other row is the plan's own. The caller
// must not modify the rows, since a write through a plan row would
// corrupt the plan and every state sharing it.
func (s *State) Base() *routing.Flow {
	pb := s.plan.Base
	f := &routing.Flow{
		G:     pb.G,
		Comms: append([]routing.Commodity(nil), pb.Comms...),
		Frac:  append([][]float64(nil), pb.Frac...),
	}
	for k := range f.Comms {
		f.Comms[k].Demand = s.demandOf(k)
	}
	for j, k := range s.own {
		row := append([]float64(nil), f.Frac[k]...)
		o := s.rows[j]
		for a, l := range o.idx {
			row[l] = o.val[a]
		}
		f.Frac[k] = row
	}
	return f
}

// Prot returns the current (reconfigured) protection routing. The caller
// must not modify it: untouched rows alias the plan.
func (s *State) Prot() [][]float64 { return s.prot }

// Detour returns ξ_e for a failed link e (nil if e has not failed).
func (s *State) Detour(e graph.LinkID) []float64 { return s.detours[e] }

// ComputeDetour returns the detour ξ_e that Fail would apply for link e:
// the rescaling of equation (8) of the current protection routing p'_e.
// It does not mutate the state, so alternative detours (e.g. an
// LP-optimal interim detour during a staged transition) can be compared
// against R3's own before committing via FailWith.
func (s *State) ComputeDetour(e graph.LinkID) []float64 {
	nL := s.G.NumLinks()
	pe := s.prot[e]
	pee := pe[e]

	xi := make([]float64, nL)
	// Below this remaining-fraction threshold the detour consists of
	// solver noise and rescaling would amplify loads unboundedly; treat
	// the link as unprotectable (the paper's pe(e)=1 case).
	const minDetourMass = 1e-3
	if pee < 1-minDetourMass {
		inv := 1 / (1 - pee)
		for l := 0; l < nL; l++ {
			if l == int(e) {
				continue
			}
			if pe[l] != 0 {
				xi[l] = pe[l] * inv
			}
		}
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
	s.rerouteBase(e, xi, cells, frac)
	for _, l := range cells {
		s.dirty.Add(graph.LinkID(l))
	}
	// (10): p'_uv(l) = p_uv(l) + p_uv(e)·frac·ξ_e(l) for surviving links
	// uv. Row e itself is left alone: a failed link's row is a snapshot,
	// and a degraded link keeps its remaining strength because further
	// disruption of it is forbidden.
	for u := range s.prot {
		if u == int(e) || s.failed.Contains(graph.LinkID(u)) {
			continue
		}
		v := s.prot[u][e]
		if v == 0 {
			continue
		}
		moved, left := split(v, frac)
		row := ownRow(s.prot, s.ownProt, u)
		for _, l := range cells {
			if l != int32(e) {
				row[l] += moved * xi[l]
			}
		}
		row[e] = left
	}
}

// rerouteBase applies update (9), r'_ab(l) = r_ab(l) + r_ab(e)·frac·ξ_e(l),
// to the base rows crossing e: column e of the plan merged with the rows
// the state has already rerouted. Each crossing row gets a new override —
// its old cells merged with cells, each new value computed with the float
// operations of a dense splice — carved from one slab per call.
func (s *State) rerouteBase(e graph.LinkID, xi []float64, cells []int32, frac float64) {
	ix := s.plan.baseIndex()
	le := int32(e)
	// Size the slab and the new owned list; no cells means no crossing row.
	nOwn, nCells := len(s.own), 0
	s.column(ix, le, func(_ int32, j int, v float64) {
		if v == 0 {
			return
		}
		nCells += len(cells)
		if j < 0 {
			nOwn++
		} else {
			nCells += len(s.rows[j].idx)
		}
	})
	if nCells == 0 {
		return
	}
	own := make([]int32, 0, nOwn)
	rows := make([]override, 0, nOwn)
	idx := make([]int32, 0, nCells)
	val := make([]float64, 0, nCells)
	s.column(ix, le, func(k int32, j int, v float64) {
		var old override
		if j >= 0 {
			old = s.rows[j]
		}
		if v == 0 {
			if j >= 0 {
				own = append(own, k)
				rows = append(rows, old)
			}
			return
		}
		moved, left := split(v, frac)
		// The plan's row is read from the index, which is sequential
		// where the dense row would cost a cache miss per cell.
		pi, pv := ix.rows.row(int(k))
		start, a, b := len(idx), 0, 0
		for _, l := range cells {
			for a < len(old.idx) && old.idx[a] < l {
				idx = append(idx, old.idx[a])
				val = append(val, old.val[a])
				a++
			}
			for b < len(pi) && pi[b] < l {
				b++
			}
			cur := 0.0
			if b < len(pi) && pi[b] == l {
				cur = pv[b]
			}
			if a < len(old.idx) && old.idx[a] == l {
				cur = old.val[a]
				a++
			}
			if l == le {
				cur = left
			} else {
				cur += moved * xi[l]
			}
			idx = append(idx, l)
			val = append(val, cur)
		}
		idx = append(idx, old.idx[a:]...)
		val = append(val, old.val[a:]...)
		end := len(idx)
		own = append(own, k)
		rows = append(rows, override{idx[start:end:end], val[start:end:end]})
	})
	s.own, s.rows = own, rows
}

// Degrade applies a partial capacity loss to link e: a fraction frac of
// its capacity disappears, so frac of the traffic on e moves through the
// same detour ξ_e a hard failure would use, scaled by frac — updates (9)
// and (10) with fe·frac instead of fe. The remaining (1-frac) of the
// traffic stays on e, whose effective capacity becomes (1-frac)·c_e;
// the link's own utilization is invariant ((1-frac)·load / (1-frac)·c),
// and every other link's certified bound covers the moved share because
// the degradation envelope's anchor keeps each protection row at full
// single-failure strength (DESIGN.md §15).
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

// DegradedFrac returns the lost capacity fraction of link e (0 when the
// link is not degraded).
func (s *State) DegradedFrac(e graph.LinkID) float64 { return s.degraded[e] }

// Degraded returns the degraded links and their lost fractions.
func (s *State) Degraded() map[graph.LinkID]float64 {
	out := make(map[graph.LinkID]float64, len(s.degraded))
	for e, f := range s.degraded {
		out[e] = f
	}
	return out
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
	for k, c := range s.plan.Base.Comms {
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
			s.loads = s.rowLoads(ix)
			s.dirty.Clear()
			return s.loads
		}
		s.loads = append(make([]float64, 0, len(ix.loads)), ix.loads...)
	}
	if !s.dirty.Empty() {
		for _, l := range s.dirty.IDs() {
			s.loads[l] = s.linkLoad(ix, int32(l))
		}
		s.dirty.Clear()
	}
	return s.loads
}

// linkLoad sums link l's load over its column, in ascending commodity
// order.
func (s *State) linkLoad(ix *baseIndex, l int32) float64 {
	var sum float64
	s.column(ix, l, func(k int32, _ int, v float64) {
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
// a row the state has not rerouted is streamed from the plan's index, a
// rerouted one is that row merged with its overrides.
func (s *State) rowLoads(ix *baseIndex) []float64 {
	loads := make([]float64, s.G.NumLinks())
	j := 0
	for k := range s.plan.Base.Frac {
		var o override
		if j < len(s.own) && int(s.own[j]) == k {
			o = s.rows[j]
			j++
		}
		d := s.demand[k]
		if d == 0 {
			continue
		}
		li, lv := ix.rows.row(k)
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

// Delivered returns the fraction of commodity k's demand that still
// reaches its destination (1 unless reconfiguration dropped traffic at a
// partition), measured as net inflow at the destination.
func (s *State) Delivered(k int) float64 {
	var o override
	if j, ok := slices.BinarySearch(s.own, int32(k)); ok {
		o = s.rows[j]
	}
	return s.delivered(k, o)
}

// delivered is Delivered for base row k with overrides o (none if the
// state has not rerouted it).
func (s *State) delivered(k int, o override) float64 {
	row := s.plan.Base.Frac[k]
	dst := s.plan.Base.Comms[k].Dst
	var in, out float64
	for _, id := range s.G.In(dst) {
		in += o.at(int32(id), row[id])
	}
	for _, id := range s.G.Out(dst) {
		out += o.at(int32(id), row[id])
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
	for k, c := range s.plan.Base.Comms {
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

// LostDemand returns the total demand dropped because reconfiguration hit
// a partition (sum over commodities of demand × undelivered fraction).
func (s *State) LostDemand() float64 {
	var lost float64
	j := 0
	for k := range s.plan.Base.Comms {
		var o override
		if j < len(s.own) && int(s.own[j]) == k {
			o = s.rows[j]
			j++
		}
		d := s.demandOf(k)
		if d == 0 {
			continue
		}
		lost += d * (1 - s.delivered(k, o))
	}
	return lost
}

// ProtEquals reports whether another state has the same protection
// routing within eps for every surviving link (used by order-independence
// tests). Rows of failed links are snapshots from the moment they failed
// and legitimately depend on the failure order, so they are not compared.
func (s *State) ProtEquals(o *State, eps float64) bool {
	if len(s.prot) != len(o.prot) || !s.failed.Equal(o.failed) {
		return false
	}
	for u := range s.prot {
		if s.failed.Contains(graph.LinkID(u)) {
			continue
		}
		for l := range s.prot[u] {
			if math.Abs(s.prot[u][l]-o.prot[u][l]) > eps {
				return false
			}
		}
	}
	return true
}

// BaseEquals reports whether another state has the same base routing
// within eps.
func (s *State) BaseEquals(o *State, eps float64) bool {
	a, b := s.Base().Frac, o.Base().Frac
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		for l := range a[k] {
			if math.Abs(a[k][l]-b[k][l]) > eps {
				return false
			}
		}
	}
	return true
}
