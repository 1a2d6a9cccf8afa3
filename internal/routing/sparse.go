package routing

import "repro/internal/graph"

// SparseRow is one commodity's row of a routing in flow representation
// holding only the links the commodity has used: Val[j] is the fraction on
// link Idx[j], and every link absent from Idx carries exactly zero. The
// support is append-only and in order of entry (a cell that decays to zero
// keeps its slot), which is all the Frank–Wolfe planners need: their
// iterates are convex combinations of a few paths, so a row touches a small
// share of the links and every pass over it costs its support, not the
// link count.
//
// Each operation performs, cell for cell, the float64 arithmetic of the
// dense loop it stands in for, with every product rounded before it is
// added (the explicit float64 conversions keep a fusing platform from
// contracting them), and skips only cells whose dense value is an exact
// zero. Dense and sparse iterates therefore agree bit for bit.
type SparseRow struct {
	Idx []int32
	Val []float64
}

// SetDense makes the row the nonzero cells of a dense row, in ascending
// link order.
func (r *SparseRow) SetDense(dense []float64) {
	r.Idx, r.Val = r.Idx[:0], r.Val[:0]
	for e, v := range dense {
		if v != 0 {
			r.Idx = append(r.Idx, int32(e))
			r.Val = append(r.Val, v)
		}
	}
}

// Pack moves the rows into one shared array of links and one of
// fractions, in row order and without spare capacity, and returns them:
// a frozen routing's rows then lie side by side, as a compressed matrix's.
func Pack(rows []SparseRow) []SparseRow {
	n := 0
	for _, r := range rows {
		n += len(r.Idx)
	}
	idx, val := make([]int32, 0, n), make([]float64, 0, n)
	for k, r := range rows {
		lo, hi := len(idx), len(idx)+len(r.Idx)
		idx, val = append(idx, r.Idx...), append(val, r.Val...)
		rows[k] = SparseRow{Idx: idx[lo:hi:hi], Val: val[lo:hi:hi]}
	}
	return rows
}

// SetPath makes the row the indicator of a simple path.
func (r *SparseRow) SetPath(path []graph.LinkID) {
	if cap(r.Idx) < len(path) || cap(r.Val) < len(path) {
		r.Idx, r.Val = make([]int32, 0, len(path)), make([]float64, 0, len(path))
	}
	r.Idx, r.Val = r.Idx[:0], r.Val[:0]
	for _, id := range path {
		r.Idx = append(r.Idx, int32(id))
		r.Val = append(r.Val, 1)
	}
}

// CopyFrom makes the row a copy of src, reusing the row's own storage: the
// snapshot and the restore of a best iterate.
func (r *SparseRow) CopyFrom(src *SparseRow) {
	r.Idx = append(r.Idx[:0], src.Idx...)
	r.Val = append(r.Val[:0], src.Val...)
}

// Scatter writes the row's cells into a dense row, which holds the row
// exactly when it was all zero before.
func (r *SparseRow) Scatter(dst []float64) {
	for j, e := range r.Idx {
		dst[e] = r.Val[j]
	}
}

// Clear zeroes a dense row on the row's support: it undoes a Scatter into a
// row that was all zero before.
func (r *SparseRow) Clear(dst []float64) {
	for _, e := range r.Idx {
		dst[e] = 0
	}
}

// Gather reads the row back from a dense row that was edited on the row's
// support and on path: support cells take their dense values, and path
// cells outside the support join it when nonzero. Every cell read is
// zeroed, so a dense row that held nothing else is all zero again.
func (r *SparseRow) Gather(src []float64, path []graph.LinkID) {
	for j, e := range r.Idx {
		r.Val[j] = src[e]
		src[e] = 0
	}
	r.absorb(src, path)
}

// absorb appends the path cells still nonzero in src — those the support
// pass before it did not consume — and zeroes them.
func (r *SparseRow) absorb(src []float64, path []graph.LinkID) {
	for _, id := range path {
		if v := src[id]; v != 0 {
			r.Idx = append(r.Idx, int32(id))
			r.Val = append(r.Val, v)
			src[id] = 0
		}
	}
}

// MoveToward steps the row toward the indicator x of path:
// v ← (1-γ)·v + γ·x, the dense update with x ∈ {0, 1}. scratch is a dense
// row of link count length that is all zero on entry and on return; it is
// how a path cell finds its slot in the support.
func (r *SparseRow) MoveToward(gamma float64, path []graph.LinkID, scratch []float64) {
	for _, id := range path {
		scratch[id] = gamma
	}
	for j, e := range r.Idx {
		r.Val[j] = float64((1-gamma)*r.Val[j]) + scratch[e]
		scratch[e] = 0
	}
	r.absorb(scratch, path)
}

// SelfMix steps the row toward itself, v ← (1-γ)·v + γ·v: what the dense
// update does to a commodity whose direction is its current routing. The
// result differs from v by rounding only, and that rounding is part of the
// planners' pinned trajectories.
func (r *SparseRow) SelfMix(gamma float64) {
	for j, v := range r.Val {
		r.Val[j] = float64((1-gamma)*v) + float64(gamma*v)
	}
}

// AddLoads accumulates d × fraction into loads on the row's nonzero cells.
func (r *SparseRow) AddLoads(d float64, loads []float64) {
	for j, v := range r.Val {
		if v != 0 {
			loads[r.Idx[j]] += float64(d * v)
		}
	}
}
