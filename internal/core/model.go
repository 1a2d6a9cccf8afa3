// Package core implements R3 (Resilient Routing Reconfiguration): offline
// precomputation of a base routing r and a protection routing p that are
// congestion-free over the demand set d + X_F (the actual traffic matrix
// plus the rerouting virtual-demand envelope), and the online
// reconfiguration procedure that rescales p around failed links.
//
// The offline problem is the paper's equation (3)/(7); this package solves
// it either exactly (building LP (7) on internal/lp) or iteratively
// (smoothed Frank–Wolfe over the product of flow polytopes), exploiting
// the fractional-knapsack structure of the inner maximization: the
// worst-case virtual load on a link e is the sum of the F largest values
// of c_l · p_l(e).
package core

import (
	"sort"

	"repro/internal/graph"
)

// FailureModel describes which combinations of rerouting virtual demands
// can be active simultaneously — the feasible set of the inner
// maximization (5)/(18). Implementations must be safe for concurrent use.
type FailureModel interface {
	// WorstLoad returns max_x sum_l x_l p_l(e) given v[l] = c_l * p_l(e),
	// i.e. the worst-case virtual load on a link.
	WorstLoad(v []float64) float64
	// ActiveSet fills y with a maximizing selection (y[l] in [0,1] is the
	// fraction x_l/c_l of virtual demand l used by the maximizer); it is
	// the subgradient of WorstLoad at v. y must have len(v).
	ActiveSet(v []float64, y []float64)
	// MaxFailures reports the largest number of simultaneously failed
	// links the model covers (used to size evaluation scenarios).
	MaxFailures() int
}

// ArbitraryFailures is the basic R3 model X_F: up to F arbitrary link
// failures (equation (2)). The worst-case virtual load is the sum of the
// F largest v entries.
type ArbitraryFailures struct {
	F int
}

// WorstLoad implements FailureModel.
func (m ArbitraryFailures) WorstLoad(v []float64) float64 {
	return sumTopK(v, m.F, nil)
}

// ActiveSet implements FailureModel.
func (m ArbitraryFailures) ActiveSet(v []float64, y []float64) {
	for i := range y {
		y[i] = 0
	}
	sumTopK(v, m.F, y)
}

// MaxFailures implements FailureModel.
func (m ArbitraryFailures) MaxFailures() int { return m.F }

// sumTopK returns the sum of the k largest positive entries of v. When
// mark is non-nil, the selected indices are set to 1 in mark. It is
// allocation-free for k <= 32, the hot path (F is small in practice).
func sumTopK(v []float64, k int, mark []float64) float64 {
	if k <= 0 || len(v) == 0 {
		return 0
	}
	if k >= len(v) {
		var s float64
		for i, x := range v {
			if x > 0 {
				s += x
				if mark != nil {
					mark[i] = 1
				}
			}
		}
		return s
	}
	if k <= 32 {
		// Insertion-sorted descending buffer of the k best (value, index).
		var bv [32]float64
		var bi [32]int
		n := 0
		for i, x := range v {
			if x <= 0 {
				continue
			}
			if n == k && x <= bv[n-1] {
				continue
			}
			// Insert x keeping bv descending.
			j := n
			if j == k {
				j--
			}
			for j > 0 && bv[j-1] < x {
				bv[j], bi[j] = bv[j-1], bi[j-1]
				j--
			}
			bv[j], bi[j] = x, i
			if n < k {
				n++
			}
		}
		var s float64
		for i := 0; i < n; i++ {
			s += bv[i]
			if mark != nil {
				mark[bi[i]] = 1
			}
		}
		return s
	}
	// Large k: partial selection instead of a full sort. Quickselect on
	// the strict total order (value descending, index ascending) places
	// the k best entries first in O(n) expected time; only that prefix is
	// then sorted so the summation order — descending values — matches
	// the sorted reference bit for bit (entries tied in value contribute
	// identically in either order). Tie-broken selection also makes the
	// marked active set deterministic, where a full unstable sort was not.
	idx := make([]int, len(v))
	for i := range idx {
		idx[i] = i
	}
	topKSelect(v, idx, k)
	top := idx[:k]
	sort.Slice(top, func(a, b int) bool { return rankBefore(v, top[a], top[b]) })
	var s float64
	for i := 0; i < k; i++ {
		x := v[top[i]]
		if x <= 0 {
			break
		}
		s += x
		if mark != nil {
			mark[top[i]] = 1
		}
	}
	return s
}

// rankBefore reports whether entry a outranks entry b under the strict
// total order "value descending, index ascending".
func rankBefore(v []float64, a, b int) bool {
	return v[a] > v[b] || (v[a] == v[b] && a < b)
}

// topKSelect partially reorders idx (a permutation of [0, len(v))) so that
// idx[:k] holds the k highest-ranked entries under rankBefore, in
// arbitrary order. Hoare-partition quickselect with a middle pivot:
// expected O(n), no allocation.
func topKSelect(v []float64, idx []int, k int) {
	lo, hi := 0, len(idx)
	for hi-lo > 1 {
		if k <= lo || k >= hi {
			return
		}
		p := idx[lo+(hi-lo)/2]
		i, j := lo, hi-1
		for i <= j {
			for rankBefore(v, idx[i], p) {
				i++
			}
			for rankBefore(v, p, idx[j]) {
				j--
			}
			if i <= j {
				idx[i], idx[j] = idx[j], idx[i]
				i++
				j--
			}
		}
		// idx[lo..j] outrank idx[i..hi-1]; the gap (if any) equals p.
		if k <= j+1 {
			hi = j + 1
		} else if k >= i {
			lo = i
		} else {
			return
		}
	}
}

// GroupFailures is the structured model of equation (18): up to K
// simultaneous SRLG events plus at most one MLG (maintenance) event. A
// link's virtual demand can be active only when some covering group is
// down.
type GroupFailures struct {
	// SRLGs and MLGs hold the link IDs of each group. Groups are sets:
	// a link must appear at most once within a group (duplicates would
	// double-count its virtual demand).
	SRLGs [][]graph.LinkID
	MLGs  [][]graph.LinkID
	// K bounds the number of concurrent SRLG events.
	K int
}

// WorstLoad implements FailureModel: greedily take the K most valuable
// SRLGs plus the single most valuable MLG. Group values count each link
// once within a group; overlapping groups may double-count, which keeps
// the result a safe upper bound of the true maximum coverage.
func (m GroupFailures) WorstLoad(v []float64) float64 {
	return m.worst(v, nil)
}

// ActiveSet implements FailureModel.
func (m GroupFailures) ActiveSet(v []float64, y []float64) {
	for i := range y {
		y[i] = 0
	}
	m.worst(v, y)
}

// worst returns the greedy worst load — the K largest positive SRLG sums,
// added in descending order, plus the largest MLG sum — and, when mark is
// non-nil, sets mark to 1 on every link of the chosen groups.
func (m GroupFailures) worst(v []float64, mark []float64) float64 {
	total, ok := m.topSRLGs(v, mark)
	if !ok {
		total = m.topSRLGsSorted(v, mark)
	}
	// Best single MLG.
	bestV, bestI := 0.0, -1
	for i, grp := range m.MLGs {
		if s := groupSum(v, grp); s > bestV {
			bestV, bestI = s, i
		}
	}
	if bestI >= 0 {
		total += bestV
		if mark != nil {
			markLinks(mark, m.MLGs[bestI])
		}
	}
	return total
}

// groupSum is a group's value: the sum of its links' positive entries of
// v, in the group's order.
func groupSum(v []float64, grp []graph.LinkID) float64 {
	var s float64
	for _, l := range grp {
		if int(l) < len(v) && v[l] > 0 {
			s += v[l]
		}
	}
	return s
}

// markLinks sets mark to 1 on a group's links.
func markLinks(mark []float64, grp []graph.LinkID) {
	for _, l := range grp {
		if int(l) < len(mark) {
			mark[l] = 1
		}
	}
}

// topSRLGs adds the K largest positive SRLG sums in descending order, and
// marks their groups, through an insertion-sorted buffer of the K best
// (K <= 32) that allocates nothing. The sum is topSRLGsSorted's bit for
// bit: the same values in the same order, tied values adding the same
// bits. The marks are too unless a group left out ties the K-th sum, where
// the choice among the tied groups is sort.Slice's; so with mark non-nil
// it then reports false, having marked nothing, as it does for K > 32.
func (m GroupFailures) topSRLGs(v []float64, mark []float64) (float64, bool) {
	k := m.K
	if k <= 0 {
		return 0, true
	}
	if k > 32 {
		return 0, false
	}
	var bv [32]float64
	var bi [32]int
	n := 0
	out := 0.0 // the largest sum left out of the buffer
	for i, grp := range m.SRLGs {
		x := groupSum(v, grp)
		if x <= 0 {
			continue
		}
		if n == k {
			if x <= bv[n-1] {
				out = max(out, x)
				continue
			}
			out = max(out, bv[n-1])
		}
		j := n
		if j == k {
			j--
		}
		for j > 0 && bv[j-1] < x {
			bv[j], bi[j] = bv[j-1], bi[j-1]
			j--
		}
		bv[j], bi[j] = x, i
		if n < k {
			n++
		}
	}
	if mark != nil && n == k && out == bv[k-1] {
		return 0, false
	}
	var total float64
	for i := 0; i < n; i++ {
		total += bv[i]
		if mark != nil {
			markLinks(mark, m.SRLGs[bi[i]])
		}
	}
	return total, true
}

// topSRLGsSorted is topSRLGs by sort.Slice over every SRLG sum: the path
// for K > 32 and for marks on a tie at the K-th sum.
func (m GroupFailures) topSRLGsSorted(v []float64, mark []float64) float64 {
	vals := make([]float64, len(m.SRLGs))
	idx := make([]int, len(m.SRLGs))
	for i, grp := range m.SRLGs {
		vals[i] = groupSum(v, grp)
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return vals[idx[a]] > vals[idx[b]] })
	var total float64
	for i := 0; i < m.K && i < len(idx); i++ {
		gi := idx[i]
		if vals[gi] <= 0 {
			break
		}
		total += vals[gi]
		if mark != nil {
			markLinks(mark, m.SRLGs[gi])
		}
	}
	return total
}

// MaxFailures implements FailureModel: the largest union of K SRLGs plus
// one MLG.
func (m GroupFailures) MaxFailures() int {
	sizes := make([]int, len(m.SRLGs))
	for i, grp := range m.SRLGs {
		sizes[i] = len(grp)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(sizes)))
	n := 0
	for i := 0; i < m.K && i < len(sizes); i++ {
		n += sizes[i]
	}
	maxMLG := 0
	for _, grp := range m.MLGs {
		if len(grp) > maxMLG {
			maxMLG = len(grp)
		}
	}
	return n + maxMLG
}

// ModelFromGraph builds a GroupFailures model from the SRLGs and MLGs
// registered on g, allowing up to k concurrent SRLG events.
func ModelFromGraph(g *graph.Graph, k int) GroupFailures {
	return GroupFailures{SRLGs: g.SRLGs(), MLGs: g.MLGs(), K: k}
}
