// Package transition implements congestion-free staged reconfiguration:
// turning a change of routing state into a sequence of k batched,
// versioned, idempotent table-update rounds such that every intermediate
// configuration — including the mixed ones routers pass through while
// they apply a round asynchronously — is capacity-feasible, with the
// exact LP's Theorem-2 certificate on every round.
//
// Two changes are staged, and both are the problem of the
// sequence-of-intermediate-configurations literature (DAG rerouting,
// reroutable flows): order groups of rule changes so that every mixed
// state fits. They differ in what a group is and in how a mixed state's
// load is bounded, so each keeps its own model:
//
//   - Schedule (activate.go) activates a failure set. A group is a duplex
//     link pair (a fiber cut takes both directions). Theorem 3 makes the
//     R3 state after activating a *set* order-independent, so states are
//     indexed by group subset; they are not additive across groups, and a
//     round's envelope is the worst MLU over every intermediate subset.
//     When no pure-R3 step fits but the scenario itself is routable, the
//     offending link gets an LP interim detour (core.FailWith) and a
//     final reconcile round returns every router to the canonical R3
//     state, so the staged end state is byte-identical to one-shot
//     activation.
//   - SchedulePlanSwap (planswap.go) swaps one plan for another. A group
//     is an OD commodity whose base rows differ; loads are additive per
//     commodity, and a round's envelope is static + Σ_k max(old_k, new_k)
//     over the commodities in flight. When no pure old→new order fits,
//     commodities migrate old→interim→new through an LP interim routing.
//
// Everything that does not depend on the model is written once: the
// search driver (search.go: exact minimal-k BFS over the subset lattice
// for small instances, the model's greedy otherwise), the certifier (the
// only caller of the exact LP: warm-chained basis, solve count,
// certify-error counter), and the run (run.emit is the only place a
// Round joins a Sequence; run.finish closes the span and the counters).
package transition

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/lp"
	"repro/internal/mcf"
	"repro/internal/mplsff"
	"repro/internal/obs"
	"repro/internal/routing"
)

// RoundKind distinguishes activation rounds from the final swap round.
type RoundKind int

const (
	// Activate rounds take a batch of links down and install their
	// detours (pure R3 rescaling, or an LP interim detour on fallback).
	Activate RoundKind = iota
	// Swap rounds shift routers from interim detours to the canonical R3
	// state; they change rows but no failure knowledge.
	Swap
)

func (k RoundKind) String() string {
	if k == Swap {
		return "swap"
	}
	return "activate"
}

// Round is one staged update: a versioned row-level delta plus the
// feasibility evidence the scheduler gathered for it.
type Round struct {
	// Seq is the 1-based round number (mplsff.ApplyRound sequence).
	Seq  int
	Kind RoundKind
	// Links are the directed links taken down this round (nil for swap).
	Links []graph.LinkID
	// Delta is the row-level table change distributed to every router.
	Delta *mplsff.Delta
	// StateMLU is the MLU of the configuration after the round completes.
	StateMLU float64
	// EnvelopeMLU bounds the transient MLU while routers apply the round
	// asynchronously. For an activation round it is the worst MLU over
	// every intermediate activation subset between the previous and the
	// new configuration; for a plan-swap round, static + Σ_k max(old_k,
	// new_k) over the commodities in flight; for a failure path's
	// reconcile round, the elementwise max of the two whole states' loads.
	EnvelopeMLU float64
	// LPMLU is the exact LP's optimal MLU for the post-round scenario —
	// the Theorem-2 certificate (≤ 1 means a feasible routing exists; it
	// lower-bounds StateMLU). NaN when certification was skipped or the
	// solver failed (CertifyErr distinguishes the two).
	LPMLU float64
	// CertifyErr records a certificate solver failure for this round; nil
	// when the LP solved or certification was skipped.
	CertifyErr error
	// ODs lists the OD pairs migrated in this round of a plan swap (nil
	// for failure-activation rounds, whose unit is Links).
	ODs [][2]graph.NodeID
	// Fallback marks rounds that installed an LP interim detour instead
	// of the pure R3 rescaling — for plan swaps, rounds that migrate
	// commodities onto the LP's interim routing rather than the final one.
	Fallback bool
	// CongestionFree reports StateMLU and EnvelopeMLU ≤ 1 (+tolerance).
	CongestionFree bool
}

// Sequence is a complete staged transition.
type Sequence struct {
	Rounds []*Round
	// CongestionFree reports every round stayed under capacity; when
	// false the sequence is best-effort and TransientMLU reports how far
	// over capacity the transition peaks.
	CongestionFree bool
	// TransientMLU is the worst EnvelopeMLU over all rounds.
	TransientMLU float64
	// FinalMLU is the MLU of the end state.
	FinalMLU float64
	// Fallbacks counts rounds that used an LP interim detour (for plan
	// swaps: interim-routing migration rounds); Swaps counts swap-kind
	// rounds (0 or 1 for failure activation, every round of a plan swap).
	Fallbacks, Swaps int
	// LPSolves counts exact-LP invocations (certificates + detours).
	LPSolves int
	// Basis is the last certificate's optimal simplex basis, for
	// warm-starting the next Schedule over the same plan via
	// Options.Warm.
	Basis *lp.Basis
}

// WireBytes totals the estimated control-plane bytes across rounds.
func (s *Sequence) WireBytes() int {
	n := 0
	for _, r := range s.Rounds {
		n += r.Delta.WireSize()
	}
	return n
}

// feasTol is the feasibility threshold: an MLU up to 1+1e-6 counts as
// congestion-free.
const feasTol = 1 + 1e-6

// Options configures Schedule and SchedulePlanSwap.
type Options struct {
	// maxExactGroups caps the exact subset-lattice search (default 6
	// groups = 64 subsets); larger instances go straight to the greedy
	// order, and the package's tests set -1 to force it.
	maxExactGroups int
	// SkipCertify disables the per-round exact-LP certificate (LPMLU
	// becomes NaN). The interim-detour fallback still uses the LP.
	SkipCertify bool
	// Warm seeds the first certificate solve with a basis from a prior
	// schedule over the same plan (the LP shape is scenario-invariant).
	Warm *lp.Basis
	// Obs receives transition.* counters and the "transition" trace.
	Obs *obs.Registry
}

func (o *Options) defaults() {
	if o.maxExactGroups == 0 {
		o.maxExactGroups = 6
	}
}

// solveExact indirects mcf.MinMLUExact so tests can inject solver
// failures; production code always points at the real solver.
var solveExact = mcf.MinMLUExact

// certifier is the only caller of the exact LP. It counts every solve
// and owns the warm chain: solves that share an LP shape (the round
// certificates, and a plan swap's interim feasibility solve) start from
// the previous one's optimal basis and leave theirs behind.
type certifier struct {
	g    *graph.Graph
	skip bool
	reg  *obs.Registry
	// what names the certificate in error texts.
	what   string
	basis  *lp.Basis
	solves int
}

// solve runs one exact LP outside the chain (a different LP shape).
func (c *certifier) solve(comms []routing.Commodity, o mcf.Options) (*mcf.Result, error) {
	o.Obs = c.reg
	c.solves++
	return solveExact(c.g, comms, o)
}

// chained runs one exact LP on the warm chain.
func (c *certifier) chained(comms []routing.Commodity, o mcf.Options) (*mcf.Result, error) {
	o.Warm = c.basis
	res, err := c.solve(comms, o)
	if err == nil {
		c.basis = res.Basis
	}
	return res, err
}

// certify runs the Theorem-2 certificate for a round's post-state: the
// exact LP's optimal MLU (≤ 1 means a feasible routing exists). Returns
// NaN when disabled; a solver failure returns NaN with the error and is
// counted, so callers record it on the round instead of silently
// shipping an uncertified sequence.
func (c *certifier) certify(comms []routing.Commodity, o mcf.Options) (float64, error) {
	if c.skip {
		return math.NaN(), nil
	}
	res, err := c.chained(comms, o)
	if err != nil {
		c.reg.Counter("transition.certify_errors").Inc()
		return math.NaN(), fmt.Errorf("transition: %s: %w", c.what, err)
	}
	return res.MLU, nil
}

// run is the model-independent half of a schedule in progress: the
// sequence being built, its certifier (which also holds the registry the
// epilogue reports to) and the span.
type run struct {
	seq  *Sequence
	cert certifier
	span obs.Span
}

func begin(g *graph.Graph, opts Options, spanName, certificate string) *run {
	return &run{
		seq: &Sequence{CongestionFree: true},
		cert: certifier{g: g, skip: opts.SkipCertify, reg: opts.Obs,
			what: certificate, basis: opts.Warm},
		span: opts.Obs.Trace("transition").Start(spanName),
	}
}

// emit numbers a round, derives its verdict and folds it into the
// sequence totals. The caller has filled in Kind, the unit (Links or
// ODs), Delta, the two MLUs, the certificate and Fallback.
func (r *run) emit(round *Round) {
	seq := r.seq
	round.Seq = len(seq.Rounds) + 1
	round.CongestionFree = round.StateMLU <= feasTol && round.EnvelopeMLU <= feasTol
	seq.Rounds = append(seq.Rounds, round)
	switch {
	case round.Fallback:
		seq.Fallbacks++
	case round.Kind == Swap:
		seq.Swaps++
	}
	seq.TransientMLU = max(seq.TransientMLU, round.EnvelopeMLU)
	seq.CongestionFree = seq.CongestionFree && round.CongestionFree
}

// finish closes the span and the counters. overCounter names what a
// sequence that is not congestion-free counts as.
func (r *run) finish(groups int, overCounter string) *Sequence {
	seq := r.seq
	seq.LPSolves, seq.Basis = r.cert.solves, r.cert.basis
	r.span.SetFloat("groups", float64(groups))
	r.span.SetFloat("rounds", float64(len(seq.Rounds)))
	r.span.SetFloat("transient_mlu", seq.TransientMLU)
	r.span.SetFloat("lp_solves", float64(seq.LPSolves))
	r.span.End()
	reg := r.cert.reg
	reg.Counter("transition.rounds").Add(int64(len(seq.Rounds)))
	reg.Counter("transition.lp_solves").Add(int64(seq.LPSolves))
	reg.Counter("transition.fallbacks").Add(int64(seq.Fallbacks))
	if !seq.CongestionFree {
		reg.Counter(overCounter).Inc()
	}
	return seq
}
