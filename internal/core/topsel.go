package core

import "repro/internal/routing"

// colTop maintains the largest positive entries of one pcol column across
// the p block sweep, so per-link line searches read their insertion stats
// (top-F) or knapsack walk (degradation envelopes) in O(K) instead of
// rescanning the whole column per cell.
//
// Invariants. Entries are ordered by the strict total order "value
// descending, index ascending among equal values" — exactly the order the
// insertion buffers in sumTopK and insertionStats produce — and the buffer
// always holds the first min(K, #positives) entries of the column in that
// order, where K is the configured capacity (max F over requirements — or
// the longest knapsack walk when the buffers serve degradation envelopes —
// plus one). capped reports that positive entries beyond the buffer exist;
// capped implies a full buffer, so every query for F <= K-1 is answered
// from buffered entries alone and never needs the tail. Sums are taken in
// buffer order (descending), matching the reference summation order bit
// for bit.
//
// Incremental updates are exact: an accepted p block changes a single
// index l in every column, and update either re-ranks l inside the buffer
// (when the buffer provably still holds the true top-K) or asks for a full
// column rescan (only when l leaves a full buffer with unknown entries
// behind it — bounded by one rescan per column per accepted block). The
// buffer also serves columns that exist only for one line-search probe:
// the global step rebuilds one per mixed column.
type colTop struct {
	n      int
	capped bool
	val    [33]float64
	idx    [33]int32
}

// topBefore reports whether entry (v1, i1) precedes (v2, i2) in the
// buffer's total order.
func topBefore(v1 float64, i1 int32, v2 float64, i2 int32) bool {
	return v1 > v2 || (v1 == v2 && i1 < i2)
}

// rebuild recomputes the buffer from a dense column with capacity K.
func (t *colTop) rebuild(col []float64, K int) {
	t.n, t.capped = 0, false
	for i, x := range col {
		if x > 0 {
			t.push(x, int32(i), K)
		}
	}
}

// rebuildSparse recomputes the buffer from a column held as its entries in
// ascending index order — the solver's pcol columns. Absent entries are
// zeros, which rebuild skips too, so both see the same positives in the
// same order and fill the same buffer.
func (t *colTop) rebuildSparse(col *routing.SparseRow, K int) {
	t.n, t.capped = 0, false
	for j, x := range col.Val {
		if x > 0 {
			t.push(x, col.Idx[j], K)
		}
	}
}

// push offers the positive entry (x, i) of a scan in ascending index order.
func (t *colTop) push(x float64, i int32, K int) {
	if t.n == K && !topBefore(x, i, t.val[K-1], t.idx[K-1]) {
		t.capped = true
		return
	}
	t.insert(x, i, K)
}

// insert places (nv, l) at its ordered position, dropping the last entry
// when the buffer is at capacity K.
func (t *colTop) insert(nv float64, l int32, K int) {
	j := t.n
	if j == K {
		j--
		t.capped = true
	}
	for j > 0 && topBefore(nv, l, t.val[j-1], t.idx[j-1]) {
		t.val[j], t.idx[j] = t.val[j-1], t.idx[j-1]
		j--
	}
	t.val[j], t.idx[j] = nv, l
	if t.n < K {
		t.n++
	}
}

// remove deletes the entry at position p.
func (t *colTop) remove(p int) {
	copy(t.val[p:t.n-1], t.val[p+1:t.n])
	copy(t.idx[p:t.n-1], t.idx[p+1:t.n])
	t.n--
}

// find returns the buffer position of index l, or -1.
func (t *colTop) find(l int32) int {
	for p := 0; p < t.n; p++ {
		if t.idx[p] == l {
			return p
		}
	}
	return -1
}

// update re-establishes the invariants after entry l of the column changed
// to nv. It reports false when it cannot — the K-th entry may now be one
// the buffer never saw — and the caller must rebuild the buffer from the
// updated column.
func (t *colTop) update(l int32, nv float64, K int) bool {
	p := t.find(l)
	if p < 0 {
		// l was not buffered: its old value ranks behind the buffer tail.
		if nv <= 0 {
			return true
		}
		if t.n < K {
			// Uncapped buffers hold every positive entry; add the new one.
			t.insert(nv, l, K)
			return true
		}
		if topBefore(nv, l, t.val[t.n-1], t.idx[t.n-1]) {
			// Beats the buffered minimum, which itself beats every
			// unbuffered entry: (nv, l) is in the true top-K.
			t.insert(nv, l, K)
			return true
		}
		// Still behind the buffer: now a positive exists outside it.
		t.capped = true
		return true
	}
	// l was buffered. Removing it is exact unless the buffer is capped and
	// the new entry may fall behind unknown unbuffered entries.
	if t.capped {
		bv, bi := t.val[t.n-1], t.idx[t.n-1]
		if p == t.n-1 {
			bv, bi = t.val[p], t.idx[p] // l itself was the boundary
		}
		if nv <= 0 || !(topBefore(nv, l, bv, bi) || (nv == bv && l == bi)) {
			return false
		}
		t.remove(p)
		t.insert(nv, l, K)
		return true
	}
	t.remove(p)
	if nv > 0 {
		t.insert(nv, l, K)
	}
	return true
}

// worstArb returns the sum of the top-F entries — sumTopK(col, F, nil)
// bit for bit, valid for F < len(col) (the reference's small-F branch;
// F >= len(col) switches to index-order summation and must use sumTopK
// directly).
func (t *colTop) worstArb(F int) float64 {
	n := t.n
	if F < n {
		n = F
	}
	var s float64
	for i := 0; i < n; i++ {
		s += t.val[i]
	}
	return s
}

// stats returns insertionStats(col, skip, F) bit for bit: the sum of the
// top-(F-1) positive entries with index skip excluded, and the F-th
// largest such entry (0 when fewer than F exist). Requires F <= K-1.
func (t *colTop) stats(skip int32, F int) (sFm1, aF float64) {
	if F <= 0 {
		return 0, 0
	}
	// The first F entries excluding skip, in buffer order. With a capped
	// buffer n = K >= F+1 entries are present, so the window never runs
	// out; uncapped buffers hold every positive and may run short, which
	// is exactly insertionStats' fewer-than-F tail.
	m := 0
	for p := 0; p < t.n && m < F; p++ {
		if t.idx[p] == skip {
			continue
		}
		if m < F-1 {
			sFm1 += t.val[p]
		} else {
			aF = t.val[p]
		}
		m++
	}
	if m == F {
		return sFm1, aF
	}
	// Fewer than F positives besides skip: the top-(F-1) sum holds all of
	// them and no F-th largest exists.
	return sFm1, 0
}

// worstKnap returns DegradationModel.WorstLoad(col) bit for bit for a
// uniform-β model whose knapsack walk is u (see knapSteps): the buffer
// holds the column's positives in the reference's rankBefore order, so the
// walk takes the same entries with the same multipliers in the same
// summation order, floored by the same single-failure anchor val[0].
// anchored reports that the anchor won (the maximizer is link idx[0] at
// full strength). Requires len(u) <= K; an empty u (β = 0) yields 0.
//
// Top-F and the knapsack share the buffer, not the sum: stats feeds
// "others first, x last" sums that the top-F goldens depend on, while the
// knapsack must add in rank order to match its reference.
func (t *colTop) worstKnap(u []float64) (w float64, anchored bool) {
	n := t.n
	if len(u) < n {
		n = len(u)
	}
	if n == 0 {
		return 0, false
	}
	var knap float64
	for j := 0; j < n; j++ {
		knap += knapTerm(u[j], t.val[j])
	}
	if a := t.val[0]; a > knap {
		return a, true
	}
	return knap, false
}

// worstKnapAt returns the same maximum for the column with entry l
// replaced by x — the p sweep's line-search probe — without materializing
// it: the walk skips index l and merges (x, l) at its topBefore rank when
// x is positive. Requires len(u) <= K-1, so that a capped buffer still
// holds len(u) entries besides l. With x = +0 and l absent from the buffer
// (a static cell) this is worstKnap exactly.
func (t *colTop) worstKnapAt(u []float64, l int32, x float64) float64 {
	var knap, anchor float64
	j := 0
	pending := x > 0
	for p := 0; p < t.n && j < len(u); p++ {
		i := t.idx[p]
		if i == l {
			continue
		}
		v := t.val[p]
		if pending && topBefore(x, l, v, i) {
			pending = false
			if j == 0 {
				anchor = x
			}
			knap += knapTerm(u[j], x)
			if j++; j == len(u) {
				break
			}
		}
		if j == 0 {
			anchor = v
		}
		knap += knapTerm(u[j], v)
		j++
	}
	if pending && j < len(u) {
		if j == 0 {
			anchor = x
		}
		knap += knapTerm(u[j], x)
	}
	if anchor > knap {
		return anchor
	}
	return knap
}
