package core

import (
	"fmt"
	"math"
	"sort"
)

// DegradationModel is the capacity-degradation envelope X_D of Wireless
// Resilient Routing Reconfiguration: instead of F links failing outright,
// every link l may lose up to a fraction β_l of its capacity
// (capacity stays within [(1-β_l)·c_l, c_l], i.e. α_l = 1-β_l is the
// retained floor), subject to a budget B on the total degraded fraction:
//
//	X_D = { x : 0 ≤ x_l ≤ β_l·c_l,  Σ_l x_l/c_l ≤ B }
//
// With β_l = 1 and integer B the envelope contains X_B (B hard failures),
// and the inner maximization degenerates to the top-B sum; uniform β = 1
// models are canonicalized to ArbitraryFailures before solving so that
// hard-failure configurations stay byte-identical to the classic path.
//
// The inner maximization is a fractional knapsack: substituting
// u_l = x_l/c_l, maximize Σ u_l·v_l over 0 ≤ u_l ≤ β_l, Σ u_l ≤ B.
// On top of the knapsack the model keeps a full single-failure anchor
// max_l v_l over degradable links: the online rescaling procedure
// Degrade(e, θ) moves θ·load(e) through the same detour ξ_e as a hard
// failure, and its congestion-freedom argument needs each protection row
// covered at full strength, not β-scaled (see DESIGN.md §15). For β = 1,
// B ≥ 1 the knapsack already contains the anchor, so the hard-failure
// limit is unchanged.
type DegradationModel struct {
	// Beta is the uniform degradable fraction 1-α in [0, 1]: every link
	// may lose up to Beta of its capacity.
	Beta float64
	// Budget bounds the total degraded fraction Σ x_l/c_l. Must be > 0.
	Budget float64
	// LinkBeta optionally overrides Beta per link (indexed by LinkID).
	// Entries must lie in [0, 1]; a zero entry marks a link that cannot
	// degrade. Nil means the uniform Beta applies everywhere.
	LinkBeta []float64
}

// beta returns the degradable fraction of link l.
func (m DegradationModel) beta(l int) float64 {
	if m.LinkBeta != nil {
		if l < len(m.LinkBeta) {
			return m.LinkBeta[l]
		}
		return 0
	}
	return m.Beta
}

// Validate checks the model parameters: Beta and every LinkBeta entry in
// [0, 1], Budget positive and finite, nothing NaN.
func (m DegradationModel) Validate() error {
	if math.IsNaN(m.Beta) || m.Beta < 0 || m.Beta > 1 {
		return fmt.Errorf("degradation beta %v outside [0, 1]", m.Beta)
	}
	if math.IsNaN(m.Budget) || math.IsInf(m.Budget, 0) || m.Budget <= 0 {
		return fmt.Errorf("degradation budget %v must be positive and finite", m.Budget)
	}
	for l, b := range m.LinkBeta {
		if math.IsNaN(b) || b < 0 || b > 1 {
			return fmt.Errorf("degradation beta %v for link %d outside [0, 1]", b, l)
		}
	}
	return nil
}

// degenerate reports whether the envelope equals the classic hard-failure
// envelope X_F, and if so for which F: uniform β = 1 with an integer
// budget means every maximizer saturates whole links, which is exactly
// ArbitraryFailures{F: Budget}. PrecomputeVariations canonicalizes such
// models before dispatch so goldens, fast paths and the exact-LP branch
// are untouched.
func (m DegradationModel) degenerate() (f int, ok bool) {
	if m.LinkBeta != nil || m.Beta != 1 {
		return 0, false
	}
	if m.Budget < 1 || m.Budget != math.Trunc(m.Budget) || m.Budget > 1<<30 {
		return 0, false
	}
	return int(m.Budget), true
}

// WorstLoad implements FailureModel: the fractional-knapsack maximum of
// Σ u_l·v_l over the degradation polytope, floored by the single-failure
// anchor max v_l over degradable links.
func (m DegradationModel) WorstLoad(v []float64) float64 {
	return m.worst(v, nil)
}

// ActiveSet implements FailureModel: y[l] receives the maximizing u_l
// (the degraded fraction of link l), so y·v = WorstLoad(v) — the
// subgradient the Frank–Wolfe direction step needs.
func (m DegradationModel) ActiveSet(v []float64, y []float64) {
	for i := range y {
		y[i] = 0
	}
	m.worst(v, y)
}

// knapMaxSteps bounds the knapsack walk the allocation-free kernels
// handle: the uniform-β u-sequence must fit a colTop buffer (like
// sumTopK's k <= 32 insertion buffer). Longer walks and per-link β stay on
// the sort-based reference.
const knapMaxSteps = 32

// knapSteps computes the model's u-sequence into u: u_j is the degraded
// fraction the greedy knapsack assigns to the j-th ranked link,
// min(β, remaining budget), by the same repeated subtraction the reference
// walk performs — so a residual budget left by float rounding yields the
// same extra (tiny) step there and here. For uniform β the sequence depends
// on the rank alone, never on the values, which is what lets the colTop
// buffers answer the envelope. ok is false when the model needs the
// reference walk: per-link β, more than knapMaxSteps steps (tiny β, an
// infinite budget), or an unvalidated non-positive budget. β = 0 marks
// nothing degradable: n = 0 and every worst load is 0.
func (m DegradationModel) knapSteps(u *[knapMaxSteps]float64) (n int, ok bool) {
	if m.LinkBeta != nil || !(m.Budget > 0) {
		return 0, false
	}
	if !(m.Beta > 0) {
		return 0, true
	}
	for budget := m.Budget; budget > 0; n++ {
		if n == knapMaxSteps {
			return 0, false
		}
		step := m.Beta
		if step > budget {
			step = budget
		}
		u[n] = step
		budget -= step
	}
	return n, true
}

// worst evaluates the envelope, marking the maximizer into mark when
// non-nil. Uniform-β models with a short walk — every model the CLIs, r3d
// and WorkloadSpec.Model build — select the top len(u) entries into a
// stack colTop (an insertion buffer in rankBefore order, like sumTopK's)
// and walk it: no allocation, no sort, and the same entries, multipliers
// and summation order as worstSorted, hence the same bits.
func (m DegradationModel) worst(v []float64, mark []float64) float64 {
	var ub [knapMaxSteps]float64
	n, ok := m.knapSteps(&ub)
	if !ok {
		return m.worstSorted(v, mark)
	}
	if n == 0 {
		return 0
	}
	u := ub[:n]
	var t colTop
	t.rebuild(v, n)
	w, anchored := t.worstKnap(u)
	if mark == nil || t.n == 0 {
		return w
	}
	if anchored {
		mark[t.idx[0]] = 1
		return w
	}
	for j := 0; j < t.n; j++ {
		mark[t.idx[j]] = u[j]
	}
	return w
}

// worstSorted is the reference evaluation: rank every degradable positive
// entry with sort.Slice and walk the knapsack. It serves per-link β and
// long walks, and is the oracle the kernels are tested against.
func (m DegradationModel) worstSorted(v []float64, mark []float64) float64 {
	// Degradable links with positive value, ranked like sumTopK: value
	// descending, index ascending. The deterministic order makes the
	// greedy sum and the marked active set reproducible bit for bit.
	idx := make([]int, 0, len(v))
	for i, x := range v {
		if x > 0 && m.beta(i) > 0 {
			idx = append(idx, i)
		}
	}
	if len(idx) == 0 {
		return 0
	}
	sort.Slice(idx, func(a, b int) bool { return rankBefore(v, idx[a], idx[b]) })
	var knap float64
	budget := m.Budget
	for _, l := range idx {
		if budget <= 0 {
			break
		}
		u := m.beta(l)
		if u > budget {
			u = budget
		}
		knap += knapTerm(u, v[l])
		budget -= u
	}
	// Full single-failure anchor: idx[0] is the most valuable degradable
	// link. Strictly larger than the knapsack only when the budget or β
	// cap prevents taking it whole.
	if anchor := v[idx[0]]; anchor > knap {
		if mark != nil {
			mark[idx[0]] = 1
		}
		return anchor
	}
	if mark != nil {
		budget = m.Budget
		for _, l := range idx {
			if budget <= 0 {
				break
			}
			u := m.beta(l)
			if u > budget {
				u = budget
			}
			mark[l] = u
			budget -= u
		}
	}
	return knap
}

// knapTerm is one knapsack summand u·v. u == 1 adds v itself, which matches
// sumTopK bit for bit in the β = 1 limit; the explicit conversion rounds
// the product before the caller's add, so no platform fuses the two and
// every kernel sums the same terms as the reference.
func knapTerm(u, v float64) float64 {
	if u == 1 {
		return v
	}
	return float64(u * v)
}

// MaxFailures implements FailureModel: the envelope contains at most
// floor(Budget) full-strength link losses (and always covers one, through
// the anchor), which sizes evaluation scenarios.
func (m DegradationModel) MaxFailures() int {
	if m.Budget > 1<<30 {
		// Out-of-range float→int conversion is implementation-defined;
		// clamp like degenerate() does.
		return 1 << 30
	}
	if f := int(m.Budget); f > 1 {
		return f
	}
	return 1
}

// String identifies the model in logs and experiment output.
func (m DegradationModel) String() string {
	if m.LinkBeta != nil {
		return fmt.Sprintf("degradation(beta=per-link, budget=%g)", m.Budget)
	}
	return fmt.Sprintf("degradation(beta=%g, budget=%g)", m.Beta, m.Budget)
}
