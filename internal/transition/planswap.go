package transition

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mcf"
	"repro/internal/mplsff"
	"repro/internal/routing"
)

// SchedulePlanSwap stages a transition between two arbitrary plans over
// the same topology — a re-precomputed plan after a traffic-matrix shift,
// or a rollback to a retained revision. Unlike Schedule, no links fail:
// the whole change is routing state, and the migration unit is the OD
// commodity, since routers apply a round asynchronously and a commodity
// is routed either entirely the old way or entirely the new way at each
// instant. The sound transient bound is therefore per-link
//
//	env(e) = static(e) + Σ_k max(old_k(e), new_k(e))
//
// over the commodities k in flight — which can exceed capacity even when
// both endpoint plans are congestion-free (two commodities trading
// places on a pair of links each push their max onto both). The
// scheduler decomposes the row-level delta into per-commodity migration
// batches so that every round's mixed old/new envelope is within
// tolerance:
//
//   - If the whole-delta envelope already fits, one swap round ships the
//     full diff (the common case for small shifts).
//   - Otherwise the shared search driver decides: for ≤ maxExactGroups
//     changed commodities the exact minimal-k BFS over the subset lattice
//     finds the fewest rounds whose every envelope fits; larger instances
//     use a greedy batcher that packs each round with the commodities
//     minimizing the post-round MLU.
//   - When no pure old→new ordering is feasible, the exact LP computes a
//     warm-started interim routing for the in-flight commodities
//     (changed ODs as LP commodities, unchanged ODs as fixed
//     background); commodities migrate old→interim→new in envelope-
//     checked batches. Only when that LP itself certifies infeasibility
//     (or fails) does the scheduler fall back to a single best-effort
//     round for the remainder, marked CongestionFree=false.
//
// Every round carries feasibility evidence: StateMLU (post-round mixed
// state), EnvelopeMLU (the asynchronous bound above), and LPMLU — the
// exact LP's optimal MLU for the round's post-state demand mix, the
// Theorem-2 certificate that the mix is routable at all. Certificates
// are warm-started via Options.Warm and chained across rounds; a solver
// failure is recorded on Round.CertifyErr and counted in
// transition.certify_errors rather than silently shipping NaN.
// Options.SkipCertify (rollbacks) skips per-round certificates but still
// decomposes, and the interim-routing fallback still uses the LP.
//
// An empty diff returns a zero-round sequence whose Final is simply the
// next plan's network. Applying rounds 1..k to mplsff.Build(old) — in
// order, or through any duplicated/reordered staged delivery — lands
// byte-identically on mplsff.Build(next).
func SchedulePlanSwap(old, next *core.Plan, opts Options) (*Sequence, error) {
	opts.defaults()
	if od, nd := graph.Digest(old.G), graph.Digest(next.G); od != nd {
		return nil, fmt.Errorf("transition: plan swap across different topologies (digest %016x vs %016x)", od, nd)
	}
	r := begin(old.G, opts, "plan_swap", "swap round certificate")
	startNet, targetNet := mplsff.Build(old), mplsff.Build(next)
	seq := r.seq
	seq.FinalMLU = routing.MLU(next.G, core.NewState(next).Loads())
	seq.TransientMLU = seq.FinalMLU

	whole := mplsff.Diff(startNet, targetNet)
	if whole.Empty() {
		seq.Basis = opts.Warm
		r.span.SetFloat("rounds", 0)
		r.span.End()
		return seq, nil
	}

	sw := newSwapper(old, next, r)
	sw.plan(opts.maxExactGroups)

	prev := startNet
	for bi := range sw.batches {
		b := &sw.batches[bi]
		// The last old→new batch lands on the target network itself,
		// sweeping along the ILM (protection) changes and any rows the
		// per-OD walk cannot express — staged and one-shot activation end
		// bit-identical.
		cu := targetNet
		if !b.done || b.interim {
			cu = prev.Clone()
			for _, i := range b.idx {
				if b.interim {
					sw.programInterim(cu, i)
				} else {
					cu.CopyFIBRow(targetNet, sw.groups[i].od)
				}
			}
		}
		delta := whole // a single whole-delta round: already diffed
		if bi > 0 || cu != targetNet {
			delta = mplsff.Diff(prev, cu)
		}
		round := &Round{
			Kind:        Swap,
			Delta:       delta,
			ODs:         sw.odsOf(b.idx),
			StateMLU:    b.stateMLU,
			EnvelopeMLU: b.envMLU,
			Fallback:    b.interim,
		}
		for i := range sw.comms {
			sw.comms[i].Demand = b.certDemands[i]
		}
		round.LPMLU, round.CertifyErr = r.cert.certify(sw.comms, mcf.Options{Background: sw.static})
		r.emit(round)
		prev = cu
	}

	r.cert.reg.Counter("transition.plan_swaps").Inc()
	// Not congestion-free counts as best-effort only when the exact LP
	// itself certified the in-flight demand mix unroutable; when it found
	// (or was never asked for) a feasible routing but the scheduler could
	// not reach it in envelope-safe batches, the swap is stuck.
	over := "transition.swap_stuck"
	if sw.feasRows != nil && sw.feasMLU > feasTol {
		over = "transition.best_effort"
	}
	return r.finish(len(sw.groups), over), nil
}

// OneShotEnvelope is the asynchronous mixing bound of shipping the whole
// old→next delta as a single round: what SchedulePlanSwap compares with
// capacity before it decomposes.
func OneShotEnvelope(old, next *core.Plan) float64 {
	sw := newSwapper(old, next, nil)
	return sw.mixing(sw.all(), false)
}

// swapGroup is one OD pair whose base routing differs between the two
// plans — the unit of migration. oldVec/newVec are the demand-weighted
// per-link load vectors of the commodity under each plan (all-zero where
// the OD is absent).
type swapGroup struct {
	od             [2]graph.NodeID
	oldVec, newVec []float64
	dOld, dNew     float64
	// demand is max(dOld, dNew): what the OD may offer mid-migration.
	demand float64
}

// swapBatch is one planned migration round.
type swapBatch struct {
	idx      []int // group indices migrating this round
	interim  bool  // migrate to the LP interim routing, not the final one
	done     bool  // after this batch every group is at its final routing
	envMLU   float64
	stateMLU float64
	// certDemands is the post-round demand per group (old, max, or new
	// depending on migration position) for the round's LP certificate.
	certDemands []float64
}

const (
	posOld = iota
	posInterim
	posNew
)

// swapper is the plan-swap model: additive per-OD load vectors, plus the
// migration's position in them.
type swapper struct {
	*run
	g *graph.Graph

	groups []swapGroup
	// static is the fixed background: commodities routed identically in
	// both plans, at the larger of their two demands.
	static []float64
	caps   []float64

	cur   [][]float64 // current load vector per group
	pos   []int
	loads []float64 // static + Σ cur

	batches []swapBatch

	// comms is the changed-OD commodity set shared by every LP in this
	// swap (certificates and the interim feasibility solve); only the
	// demands vary, and they are the LP's rhs, so bases chain warm.
	comms []routing.Commodity

	// Interim feasibility LP (solved at most once, on the first stuck
	// round): can the full in-flight demand mix be routed at all?
	feasRows []routing.SparseRow
	feasMLU  float64
	// interims is each group's demand-weighted load vector on that LP's
	// routing, at its worst-case migration demand.
	interims [][]float64

	envMemo map[uint64]float64
}

func newSwapper(old, next *core.Plan, r *run) *swapper {
	g := old.G
	E := g.NumLinks()
	sw := &swapper{
		run:    r,
		g:      g,
		static: make([]float64, E),
		caps:   make([]float64, E),
	}
	for e := 0; e < E; e++ {
		sw.caps[e] = g.Link(graph.LinkID(e)).Capacity
	}

	// Each OD's demand and base row under the old plan [0] and the new [1]
	// (zero where the plan lacks the OD), in OD order.
	type side struct {
		d   float64
		row *routing.SparseRow
	}
	sides := make(map[[2]graph.NodeID]*[2]side)
	var keys [][2]graph.NodeID
	for which, plan := range []*core.Plan{old, next} {
		for k, c := range plan.Comms {
			od := [2]graph.NodeID{c.Src, c.Dst}
			if sides[od] == nil {
				sides[od] = new([2]side)
				keys = append(keys, od)
			}
			sides[od][which] = side{c.Demand, &plan.Base[k]}
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})

	for _, od := range keys {
		dOld, frOld := sides[od][0].d, sides[od][0].row
		dNew, frNew := sides[od][1].d, sides[od][1].row
		d := max(dOld, dNew)
		if frOld != nil && frNew != nil && slices.Equal(frOld.Idx, frNew.Idx) && slices.Equal(frOld.Val, frNew.Val) {
			// Identical rows in both plans: the delta never touches this
			// OD, so it rides as background at the worse of its two loads
			// (only the demand may have shifted).
			addVec(sw.static, scaleVec(d, frOld, E))
			continue
		}
		sw.groups = append(sw.groups, swapGroup{
			od: od, oldVec: scaleVec(dOld, frOld, E), newVec: scaleVec(dNew, frNew, E),
			dOld: dOld, dNew: dNew, demand: d,
		})
		sw.comms = append(sw.comms, routing.Commodity{Src: od[0], Dst: od[1], Demand: d})
	}

	n := len(sw.groups)
	sw.cur = make([][]float64, n)
	sw.pos = make([]int, n)
	sw.loads = append([]float64(nil), sw.static...)
	for i := range sw.groups {
		sw.cur[i] = sw.groups[i].oldVec
		addVec(sw.loads, sw.cur[i])
	}
	return sw
}

// scaleVec returns d times the row (all zero without one) as a dense
// vector over E links.
func scaleVec(d float64, row *routing.SparseRow, E int) []float64 {
	v := make([]float64, E)
	if row == nil || d == 0 {
		return v
	}
	for j, l := range row.Idx {
		v[l] = d * row.Val[j]
	}
	return v
}

func addVec(dst, src []float64) {
	for e, v := range src {
		dst[e] += v
	}
}

// inFlight adds to env, link by link, what a commodity can put on top of
// the cur it already contributes while routers switch it to tgt one by
// one: max(cur, tgt) − cur. Every mixing bound of the swap model —
// static + Σ_k max(old_k, new_k) — is loads plus this, per commodity in
// flight.
func inFlight(env, cur, tgt []float64) {
	for e, c := range cur {
		if t := tgt[e]; t > c {
			env[e] += t - c
		}
	}
}

func (sw *swapper) odsOf(idx []int) [][2]graph.NodeID {
	ods := make([][2]graph.NodeID, len(idx))
	for j, i := range idx {
		ods[j] = sw.groups[i].od
	}
	return ods
}

func (sw *swapper) all() []int {
	all := make([]int, len(sw.groups))
	for i := range all {
		all[i] = i
	}
	return all
}

func (sw *swapper) mlu(loads []float64) float64 {
	worst := 0.0
	for e, l := range loads {
		if u := l / sw.caps[e]; u > worst {
			worst = u
		}
	}
	return worst
}

// target is the load vector group i migrates to this round.
func (sw *swapper) target(i int, interim bool) []float64 {
	if interim {
		return sw.interims[i]
	}
	return sw.groups[i].newVec
}

// plan decides the migration batches. It mutates the swapper's
// cur/pos/loads as it goes, so the recorded per-batch MLUs reflect the
// walked intermediate states.
func (sw *swapper) plan(maxExact int) {
	all := sw.all()
	// One round carries the full diff when nothing but the ILM changes
	// (protection routing differs, base identical), or when the true
	// asynchronous envelope of the whole delta fits.
	if len(all) == 0 || sw.mixing(all, false) <= feasTol {
		sw.applyBatch(all, false)
		return
	}
	search(len(all), maxExact, sw.maskEnvelope, func(idx []int) { sw.applyBatch(idx, false) }, sw.greedy)
}

// greedy packs envelope-safe batches toward the final routing,
// falling back to LP interim-routing rounds when stuck, and to a single
// forced best-effort round when even the LP cannot help.
func (sw *swapper) greedy() {
	for {
		var remaining []int
		for i, p := range sw.pos {
			if p != posNew {
				remaining = append(remaining, i)
			}
		}
		if len(remaining) == 0 {
			return
		}
		idx, interim := sw.pickBatch(remaining, false), false
		// Stuck: no commodity can migrate to its final routing within the
		// envelope. Ask the exact LP whether the in-flight demand mix is
		// routable at all; its routing becomes the interim target.
		if len(idx) == 0 && sw.interimFeasible() {
			idx, interim = sw.pickBatch(remaining, true), true
		}
		if len(idx) == 0 {
			// The LP cannot help, or it certifies a feasible routing
			// exists but no envelope-safe batch reaches it either: move
			// every remaining group to its final routing in one
			// best-effort round. The recorded envelope is honest (and over
			// tolerance, or the batch would have been pickable).
			sw.applyBatch(remaining, false)
			return
		}
		sw.applyBatch(idx, interim)
	}
}

// pickBatch grows a batch of groups migrating to their target (final or
// interim) such that the batch's asynchronous envelope stays within
// tolerance, greedily adding the group whose migration yields the lowest
// post-batch MLU. Returns nil when no candidate fits.
func (sw *swapper) pickBatch(cands []int, interim bool) []int {
	env := append([]float64(nil), sw.loads...)  // loads with the chosen groups in flight
	post := append([]float64(nil), sw.loads...) // loads once the chosen groups have landed
	trial := make([]float64, len(env))
	var batch []int
	inBatch := make(map[int]bool)
	for {
		best, bestMLU := -1, math.Inf(1)
		for _, i := range cands {
			if inBatch[i] || (interim && sw.pos[i] == posInterim) {
				continue
			}
			tgt := sw.target(i, interim)
			copy(trial, env)
			inFlight(trial, sw.cur[i], tgt)
			if sw.mlu(trial) > feasTol {
				continue
			}
			pm := 0.0
			for e, c := range sw.cur[i] {
				if u := (post[e] + tgt[e] - c) / sw.caps[e]; u > pm {
					pm = u
				}
			}
			if best < 0 || pm < bestMLU-1e-12 {
				best, bestMLU = i, pm
			}
		}
		if best < 0 {
			return batch
		}
		inBatch[best] = true
		batch = append(batch, best)
		tgt := sw.target(best, interim)
		inFlight(env, sw.cur[best], tgt)
		for e, c := range sw.cur[best] {
			post[e] += tgt[e] - c
		}
	}
}

// mixing is the asynchronous envelope of migrating idx in one round: the
// current loads with each migrating commodity at the max of its current
// and target vectors.
func (sw *swapper) mixing(idx []int, interim bool) float64 {
	env := append([]float64(nil), sw.loads...)
	for _, i := range idx {
		inFlight(env, sw.cur[i], sw.target(i, interim))
	}
	return sw.mlu(env)
}

// applyBatch commits a batch: records its envelope and post-state MLU,
// then advances cur/pos/loads.
func (sw *swapper) applyBatch(idx []int, interim bool) {
	b := swapBatch{idx: idx, interim: interim, envMLU: sw.mixing(idx, interim)}
	for _, i := range idx {
		tgt := sw.target(i, interim)
		for e, c := range sw.cur[i] {
			sw.loads[e] += tgt[e] - c
		}
		sw.cur[i] = tgt
		if interim {
			sw.pos[i] = posInterim
		} else {
			sw.pos[i] = posNew
		}
	}
	b.stateMLU = sw.mlu(sw.loads)
	b.certDemands = make([]float64, len(sw.groups))
	b.done = true
	for i, p := range sw.pos {
		switch p {
		case posNew:
			b.certDemands[i] = sw.groups[i].dNew
		case posInterim:
			b.certDemands[i] = sw.groups[i].demand
			b.done = false
		default:
			b.certDemands[i] = sw.groups[i].dOld
			b.done = false
		}
	}
	sw.batches = append(sw.batches, b)
}

// maskEnvelope is the lattice-search envelope: groups in cum at their
// new vector, groups in add in flight from old to new, the rest at old,
// plus the static background. Memoized; only used for n ≤
// maxExactGroups, before any batch has been applied.
func (sw *swapper) maskEnvelope(cum, add uint64) float64 {
	key := cum<<uint(len(sw.groups)) | add
	if m, ok := sw.envMemo[key]; ok {
		return m
	}
	env := append([]float64(nil), sw.static...)
	for i := range sw.groups {
		grp := &sw.groups[i]
		if cum&(1<<i) != 0 {
			addVec(env, grp.newVec)
			continue
		}
		addVec(env, grp.oldVec)
		if add&(1<<i) != 0 {
			inFlight(env, grp.oldVec, grp.newVec)
		}
	}
	m := sw.mlu(env)
	if sw.envMemo == nil {
		sw.envMemo = make(map[uint64]float64)
	}
	sw.envMemo[key] = m
	return m
}

// interimFeasible solves (once) the interim feasibility LP — every
// changed OD at its worst-case migration demand over the static
// background — and reports whether the in-flight demand mix is routable
// at all. Its optimal MLU decides best-effort vs stuck, and its flow
// supplies the interim routing targets. It rides the certificates' warm
// chain: same commodities, same LP shape.
func (sw *swapper) interimFeasible() bool {
	if sw.feasRows == nil {
		for i := range sw.comms {
			sw.comms[i].Demand = sw.groups[i].demand
		}
		res, err := sw.cert.chained(sw.comms, mcf.Options{Background: sw.static})
		if err != nil {
			return false
		}
		sw.feasRows, sw.feasMLU = res.Rows, res.MLU
		for i, grp := range sw.groups {
			sw.interims = append(sw.interims, scaleVec(grp.demand, &sw.feasRows[i], len(sw.caps)))
		}
	}
	return sw.feasMLU <= feasTol
}

// programInterim overwrites the network's FIB row for group i's OD with
// the LP interim routing fractions (same thresholding as Build).
func (sw *swapper) programInterim(cu *mplsff.Network, i int) {
	row := &sw.feasRows[i]
	var entries []mplsff.NHLFE
	for j, l := range row.Idx {
		if v := row.Val[j]; v > 1e-12 {
			entries = append(entries, mplsff.NHLFE{Out: graph.LinkID(l), Ratio: v})
		}
	}
	cu.SetFIBRow(sw.groups[i].od, entries)
}
