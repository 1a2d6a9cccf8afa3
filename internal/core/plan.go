package core

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/graph"
	"repro/internal/lp"
	"repro/internal/routing"
)

// Plan is the output of offline precomputation: the base routing r, the
// protection routing p, and the achieved objective over d + X_F.
//
// A plan is frozen once it has been handed to NewState: every State built
// from it aliases the rows of Base.Frac and Prot (copy-on-write) and reads
// them through a nonzero pattern the plan caches, so writing a row
// afterwards silently corrupts every such state. The solvers and the
// codec finish all their writes before they return the plan; nothing else
// in the tree writes one. Pass plans by pointer (the cached pattern makes
// the struct non-copyable, and go vet's copylocks check enforces it).
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

	// pattern is the nonzero pattern of Base.Frac, built by the first
	// NewState (concurrent callers included) and shared by every State.
	patternOnce sync.Once
	pattern     *rowPattern
}

// rowPattern is a plan's base routing in CSR form: row k's nonzero link
// indices are idx[off[k]:off[k+1]], ascending, and val holds the fractions
// at those indices. The plan is frozen, so the copies never go stale, and
// State.Loads streams them instead of making one scattered read per
// nonzero into rows that span tens of megabytes (DESIGN.md §9). (int32
// offsets are ample: the dense rows of a plan with 2^31 nonzeros would
// take 16 GiB first.)
type rowPattern struct {
	off []int32
	idx []int32
	val []float64
}

// basePattern returns the plan's cached base-routing pattern, building it
// on first use: one pass to count, so idx and val are allocated exactly.
func (p *Plan) basePattern() *rowPattern {
	p.patternOnce.Do(func() {
		pat := &rowPattern{off: make([]int32, len(p.Base.Frac)+1)}
		for k, fr := range p.Base.Frac {
			n := pat.off[k]
			for _, v := range fr {
				if v != 0 {
					n++
				}
			}
			pat.off[k+1] = n
		}
		nnz := pat.off[len(p.Base.Frac)]
		pat.idx = make([]int32, 0, nnz)
		pat.val = make([]float64, 0, nnz)
		for _, fr := range p.Base.Frac {
			for l, v := range fr {
				if v != 0 {
					pat.idx = append(pat.idx, int32(l))
					pat.val = append(pat.val, v)
				}
			}
		}
		p.pattern = pat
	})
	return p.pattern
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
// A State is a copy-on-write overlay on its plan: base.Frac[k] and prot[u]
// alias the plan's rows until the state first writes them, so a failure
// costs the rows it reroutes rather than a copy of the plan (DESIGN.md §9).
type State struct {
	G    *graph.Graph
	base *routing.Flow
	prot [][]float64
	// pattern is the plan's nonzero pattern; it describes exactly the base
	// rows this state does not own.
	pattern *rowPattern
	// ownBase[k] / ownProt[u] mark the rows this state has copied and may
	// write; every other row still belongs to the plan.
	ownBase []bool
	ownProt []bool
	failed  graph.LinkSet
	// detours remembers ξ_e for every failed link (diagnostics and the
	// MPLS-ff data plane read these).
	detours map[graph.LinkID][]float64
	// degraded maps partially degraded links to their lost capacity
	// fraction (effective capacity (1-frac)·c). Nil until the first
	// Degrade, so purely hard-failure replays allocate nothing new.
	degraded map[graph.LinkID]float64
}

// NewState starts an online state from a plan. It copies the commodities
// (demands are per-state) and the row headers only: the rows themselves
// stay the plan's until Fail, FailWith or Degrade rewrites them, so the
// plan must not be written once a State exists (see Plan).
func NewState(plan *Plan) *State {
	return &State{
		G:       plan.G,
		base:    shareFlow(plan.Base, nil),
		prot:    shareRows(plan.Prot, nil),
		pattern: plan.basePattern(),
		ownBase: make([]bool, len(plan.Base.Frac)),
		ownProt: make([]bool, len(plan.Prot)),
		detours: make(map[graph.LinkID][]float64),
	}
}

// Clone copies the state, so tentative failure sequences (the transition
// scheduler's feasibility search) can be explored without disturbing the
// live state. Only the rows s owns are copied; rows still aliasing the
// plan are shared, as in NewState.
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
		base:     shareFlow(s.base, s.ownBase),
		prot:     shareRows(s.prot, s.ownProt),
		pattern:  s.pattern,
		ownBase:  append([]bool(nil), s.ownBase...),
		ownProt:  append([]bool(nil), s.ownProt...),
		failed:   s.failed.Clone(),
		detours:  detours,
		degraded: degraded,
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

// shareFlow is shareRows for a flow; the commodities are always copied.
func shareFlow(f *routing.Flow, own []bool) *routing.Flow {
	return &routing.Flow{
		G:     f.G,
		Comms: append([]routing.Commodity(nil), f.Comms...),
		Frac:  shareRows(f.Frac, own),
	}
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

// Failed returns the set of failed links applied so far.
func (s *State) Failed() graph.LinkSet { return s.failed.Clone() }

// HasFailed reports whether link e has failed, without cloning the set
// (the data plane consults this per packet).
func (s *State) HasFailed(e graph.LinkID) bool { return s.failed.Contains(e) }

// Base returns the current (reconfigured) base routing. The caller must
// not modify it: rows the state has not rewritten are the plan's own, so a
// write through them would corrupt the plan and every state sharing it.
func (s *State) Base() *routing.Flow { return s.base }

// Prot returns the current (reconfigured) protection routing. The caller
// must not modify it, for the same reason as Base: untouched rows alias
// the plan.
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
// rerouted traffic carried by link l; xi[e] must be zero and len(xi)
// must be NumLinks. Updates (9) and (10) are applied exactly as in Fail.
// The state keeps its own copy of xi.
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

// reroute moves the share frac of everything routed over link e onto the
// detour xi: update (9) on every base row and update (10) on the
// protection row of every other surviving link. frac = 1 is a hard
// failure (nothing stays on e); frac in (0, 1) is a degradation, which
// leaves (1-frac) of each fraction on e. Only rows that cross e are
// written, and each is copied from the plan the first time.
func (s *State) reroute(e graph.LinkID, xi []float64, frac float64) {
	var nz []int32
	for l, x := range xi {
		if x != 0 {
			nz = append(nz, int32(l))
		}
	}
	splice := func(rows [][]float64, own []bool, i int) {
		v := rows[i][e]
		if v == 0 {
			return
		}
		moved, left := v, 0.0
		if frac < 1 {
			moved, left = v*frac, v*(1-frac)
		}
		row := ownRow(rows, own, i)
		for _, l := range nz {
			row[l] += moved * xi[l]
		}
		row[e] = left
	}
	// (9): r'_ab(l) = r_ab(l) + r_ab(e)·frac·ξ_e(l).
	for k := range s.base.Frac {
		splice(s.base.Frac, s.ownBase, k)
	}
	// (10): p'_uv(l) = p_uv(l) + p_uv(e)·frac·ξ_e(l) for surviving links
	// uv. Row e itself is left alone: a failed link's row is a snapshot,
	// and a degraded link keeps its remaining strength because further
	// disruption of it is forbidden.
	for u := range s.prot {
		if u != int(e) && !s.failed.Contains(graph.LinkID(u)) {
			splice(s.prot, s.ownProt, u)
		}
	}
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
// surge.
func (s *State) ScaleDemands(factor float64, ods []OD) {
	if ods == nil {
		for k := range s.base.Comms {
			s.base.Comms[k].Demand *= factor
		}
		return
	}
	set := make(map[OD]bool, len(ods))
	for _, od := range ods {
		set[od] = true
	}
	for k := range s.base.Comms {
		c := &s.base.Comms[k]
		if set[OD{c.Src, c.Dst}] {
			c.Demand *= factor
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
// reconfigured fractions). Failed links always carry zero load.
//
// Rows still aliasing the plan are read from the plan's cached nonzero
// pattern, rows the state owns densely. Both visit commodities in order
// and add the same d·v products routing.Flow.Loads would, so the sums are
// bit-identical to the dense pass.
func (s *State) Loads() []float64 {
	loads := make([]float64, s.G.NumLinks())
	off, idx, val := s.pattern.off, s.pattern.idx, s.pattern.val
	for k := range s.base.Comms {
		d := s.base.Comms[k].Demand
		if d == 0 {
			continue
		}
		if !s.ownBase[k] {
			lo, hi := off[k], off[k+1]
			vs := val[lo:hi]
			for j, l := range idx[lo:hi] {
				loads[l] += d * vs[j]
			}
			continue
		}
		for l, v := range s.base.Frac[k] {
			if v != 0 {
				loads[l] += d * v
			}
		}
	}
	return loads
}

// MLU returns the maximum utilization over surviving links, measured
// against effective capacities: a degraded link is judged at
// (1-frac)·c_e.
func (s *State) MLU() float64 {
	loads := s.Loads()
	worst := 0.0
	for e, l := range loads {
		if s.failed.Contains(graph.LinkID(e)) {
			continue
		}
		c := s.G.Link(graph.LinkID(e)).Capacity
		if f, ok := s.degraded[graph.LinkID(e)]; ok {
			c *= 1 - f
		}
		if u := l / c; u > worst {
			worst = u
		}
	}
	return worst
}

// Delivered returns the fraction of commodity k's demand that still
// reaches its destination (1 unless reconfiguration dropped traffic at a
// partition), measured as net inflow at the destination.
func (s *State) Delivered(k int) float64 {
	c := s.base.Comms[k]
	var in, out float64
	for _, id := range s.G.In(c.Dst) {
		in += s.base.Frac[k][id]
	}
	for _, id := range s.G.Out(c.Dst) {
		out += s.base.Frac[k][id]
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
// (e.g. another interval of a diurnal series).
func (s *State) SetDemands(demand func(a, b graph.NodeID) float64) {
	s.base.SetDemands(demand)
}

// LostDemand returns the total demand dropped because reconfiguration hit
// a partition (sum over commodities of demand × undelivered fraction).
func (s *State) LostDemand() float64 {
	var lost float64
	for k := range s.base.Comms {
		d := s.base.Comms[k].Demand
		if d == 0 {
			continue
		}
		lost += d * (1 - s.Delivered(k))
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
	if len(s.base.Frac) != len(o.base.Frac) {
		return false
	}
	for k := range s.base.Frac {
		for l := range s.base.Frac[k] {
			if math.Abs(s.base.Frac[k][l]-o.base.Frac[k][l]) > eps {
				return false
			}
		}
	}
	return true
}
