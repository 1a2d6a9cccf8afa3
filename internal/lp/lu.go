package lp

import "math"

const (
	// luTiny is the pivot magnitude below which a basis matrix is declared
	// numerically singular during factorization.
	luTiny = 1e-11
	// luThreshold is the threshold-partial-pivoting factor: an entry may
	// pivot only if it is at least this share of the largest magnitude in
	// its row, which bounds every U row's off-diagonals by 1/luThreshold
	// times its pivot while leaving Markowitz room to choose for sparsity.
	luThreshold = 0.25
	// luSearch caps the rows and columns, taken in order of increasing
	// nonzero count, that one pivot search inspects once it holds a
	// candidate.
	luSearch = 4
)

// luFact is a sparse LU factorization of a basis matrix B (rows are
// constraint rows, columns are basis positions). Step k of a right-looking
// elimination picks the pivot (prow[k], pcol[k]) by Markowitz count under
// threshold partial pivoting — singleton columns and rows are the cost-0
// case, so a near-triangular basis is peeled without arithmetic — and
// records
//
//   - the multipliers a_iq/a_pq of the rows it eliminated, as one L column
//     (idx = constraint row), and
//   - what was left of the pivot row, as one U row (idx = basis position)
//     with the pivot itself in diag[k].
//
// Each factor is one slab with a start offset per step. FTRAN runs L
// forward as scatters and U backward as dot products; BTRAN runs Uᵀ forward
// as scatters and Lᵀ backward as dot products, so all four sweeps walk
// their nonzeros contiguously and touch nothing else.
type luFact struct {
	m              int
	prow, pcol     []int
	diag           []float64
	l, u           []entry
	lStart, uStart []int
	work           []float64 // solve scratch: one index space in, the other out
	probe          []float64 // factorize's conditioning probe

	// Factorization workspace: the active submatrix by row with values,
	// its pattern by column, both threaded by nonzero count, and the
	// scatter marks of the row being updated.
	rows       [][]entry
	cols       [][]int
	rowQ, colQ countList
	mark       []int
}

func newLU(m int) *luFact {
	return &luFact{
		m:      m,
		prow:   make([]int, m),
		pcol:   make([]int, m),
		diag:   make([]float64, m),
		lStart: make([]int, m+1),
		uStart: make([]int, m+1),
		work:   make([]float64, m),
		probe:  make([]float64, m),
		rows:   make([][]entry, m),
		cols:   make([][]int, m),
		rowQ:   newCountList(m),
		colQ:   newCountList(m),
		mark:   make([]int, m),
	}
}

// nnz reports the nonzeros held by the factors, pivots included.
func (f *luFact) nnz() int { return len(f.l) + len(f.u) + f.m }

// countList threads the active rows (or columns) into one doubly linked
// list per nonzero count, so a pivot search starts at the sparsest lines.
// A line enters at the head of its list, which makes the search order —
// and through it every tie-break — a function of the matrix alone.
type countList struct {
	head       []int // by count; -1 when empty
	next, prev []int // by line
}

func newCountList(m int) countList {
	return countList{head: make([]int, m+1), next: make([]int, m), prev: make([]int, m)}
}

func (q *countList) reset() {
	for c := range q.head {
		q.head[c] = -1
	}
}

func (q *countList) push(id, count int) {
	n := q.head[count]
	q.next[id], q.prev[id] = n, -1
	if n >= 0 {
		q.prev[n] = id
	}
	q.head[count] = id
}

// drop unlinks id from the list of the count it was pushed with.
func (q *countList) drop(id, count int) {
	p, n := q.prev[id], q.next[id]
	if p >= 0 {
		q.next[p] = n
	} else {
		q.head[count] = n
	}
	if n >= 0 {
		q.prev[n] = p
	}
}

// factorize decomposes the basis given by the column indices in basis
// (into sf's sparse columns). It reports false when the basis is
// numerically singular, leaving the factorization unusable.
func (f *luFact) factorize(sf *stdForm, basis []int) bool {
	m := f.m
	for i := range f.rows {
		f.rows[i] = f.rows[i][:0]
	}
	for c, col := range basis {
		f.cols[c] = f.cols[c][:0]
		for _, e := range sf.cols[col] {
			f.rows[e.idx] = append(f.rows[e.idx], entry{c, e.val})
			f.cols[c] = append(f.cols[c], e.idx)
		}
	}
	f.rowQ.reset()
	f.colQ.reset()
	for i := m - 1; i >= 0; i-- { // descending, so each list starts at its lowest index
		f.rowQ.push(i, len(f.rows[i]))
		f.colQ.push(i, len(f.cols[i]))
	}
	f.l, f.u = f.l[:0], f.u[:0]
	for k := 0; k < m; k++ {
		p, q, ok := f.choosePivot()
		if !ok {
			return false
		}
		f.eliminate(k, p, q)
	}
	// Under threshold pivoting a rank deficiency can hide in U's
	// off-diagonals with every pivot above luTiny, so the verdict also asks
	// what a solve would see: |B⁻¹·1| past 1/luTiny is the same singularity.
	x := f.probe
	for i := range x {
		x[i] = 1
	}
	f.ftran(x)
	for _, v := range x {
		if !(math.Abs(v) < 1/luTiny) { // also catches NaN
			return false
		}
	}
	return true
}

// choosePivot searches the active submatrix for the entry of least
// Markowitz cost (row count − 1)·(column count − 1) among those that pass
// the threshold test, visiting columns and then rows of count 1, 2, … and
// stopping once no unvisited line can beat the candidate in hand, or
// luSearch lines have been inspected. Ties keep the first candidate found.
// ok is false when an active line is empty or no entry is usable: the
// basis is singular.
func (f *luFact) choosePivot() (p, q int, ok bool) {
	if f.rowQ.head[0] >= 0 || f.colQ.head[0] >= 0 {
		return 0, 0, false
	}
	best, searched := -1, 0
	for count := 1; count <= f.m; count++ {
		for j := f.colQ.head[count]; j >= 0; j = f.colQ.next[j] {
			for _, i := range f.cols[j] {
				a, rowMax := 0.0, 0.0
				for _, e := range f.rows[i] {
					v := math.Abs(e.val)
					if e.idx == j {
						a = v
					}
					if v > rowMax {
						rowMax = v
					}
				}
				// A singleton column eliminates nothing, so it needs no
				// growth bound, only a pivot that is not noise.
				if a < luTiny || (count > 1 && a < luThreshold*rowMax) {
					continue
				}
				if cost := (len(f.rows[i]) - 1) * (count - 1); best < 0 || cost < best {
					best, p, q = cost, i, j
				}
			}
			searched++
			if best >= 0 && (best <= (count-1)*(count-1) || searched >= luSearch) {
				return p, q, true
			}
		}
		for i := f.rowQ.head[count]; i >= 0; i = f.rowQ.next[i] {
			rowMax := 0.0
			for _, e := range f.rows[i] {
				if v := math.Abs(e.val); v > rowMax {
					rowMax = v
				}
			}
			for _, e := range f.rows[i] {
				if a := math.Abs(e.val); a < luTiny || a < luThreshold*rowMax {
					continue
				}
				if cost := (count - 1) * (len(f.cols[e.idx]) - 1); best < 0 || cost < best {
					best, p, q = cost, i, e.idx
				}
			}
			searched++
			if best >= 0 && (best <= count*(count-1) || searched >= luSearch) {
				return p, q, true
			}
		}
	}
	return p, q, best >= 0
}

// eliminate performs step k on pivot (p, q): the pivot row leaves the
// active submatrix as U row k, every other row with an entry in column q
// has it cancelled by a multiple of the pivot row (the multiplier joins L
// column k, fill joins the row, exact cancellations leave it), and every
// line whose count moved is re-threaded.
func (f *luFact) eliminate(k, p, q int) {
	f.rowQ.drop(p, len(f.rows[p]))
	f.colQ.drop(q, len(f.cols[q]))
	var piv float64
	for _, e := range f.rows[p] {
		if e.idx == q {
			piv = e.val
			continue
		}
		f.colQ.drop(e.idx, len(f.cols[e.idx]))
		f.cols[e.idx] = removeInt(f.cols[e.idx], p)
		f.u = append(f.u, e)
	}
	f.prow[k], f.pcol[k], f.diag[k] = p, q, piv
	f.uStart[k+1] = len(f.u)
	urow := f.u[f.uStart[k]:]

	for _, i := range f.cols[q] {
		if i == p {
			continue
		}
		row := f.rows[i]
		f.rowQ.drop(i, len(row))
		at := 0
		for row[at].idx != q {
			at++
		}
		mult := row[at].val / piv
		row[at] = row[len(row)-1]
		row = row[:len(row)-1]
		for t, e := range row {
			f.mark[e.idx] = t + 1
		}
		cancelled := false
		for _, e := range urow {
			if t := f.mark[e.idx]; t > 0 {
				row[t-1].val -= mult * e.val
				cancelled = cancelled || row[t-1].val == 0
			} else {
				row = append(row, entry{e.idx, -mult * e.val})
				f.cols[e.idx] = append(f.cols[e.idx], i)
			}
		}
		for _, e := range row {
			f.mark[e.idx] = 0
		}
		if cancelled {
			n := 0
			for _, e := range row {
				if e.val == 0 {
					f.cols[e.idx] = removeInt(f.cols[e.idx], i)
					continue
				}
				row[n] = e
				n++
			}
			row = row[:n]
		}
		f.rows[i] = row
		f.rowQ.push(i, len(row))
		f.l = append(f.l, entry{i, mult})
	}
	f.lStart[k+1] = len(f.l)
	for _, e := range urow {
		f.colQ.push(e.idx, len(f.cols[e.idx]))
	}
}

// removeInt deletes the one occurrence of x from s, order not preserved.
func removeInt(s []int, x int) []int {
	t := 0
	for s[t] != x {
		t++
	}
	s[t] = s[len(s)-1]
	return s[:len(s)-1]
}

// ftran solves B·x = v in place (forward transformation): v comes in
// indexed by constraint row and leaves indexed by basis position.
func (f *luFact) ftran(v []float64) {
	for k, p := range f.prow {
		t := v[p]
		if t == 0 {
			continue
		}
		for _, e := range f.l[f.lStart[k]:f.lStart[k+1]] {
			v[e.idx] -= e.val * t
		}
	}
	x := f.work
	for k := f.m - 1; k >= 0; k-- {
		s := v[f.prow[k]]
		for _, e := range f.u[f.uStart[k]:f.uStart[k+1]] {
			s -= e.val * x[e.idx]
		}
		x[f.pcol[k]] = s / f.diag[k]
	}
	copy(v, x)
}

// btran solves Bᵀ·y = c in place (backward transformation): Uᵀz = c, then
// Lᵀ's steps newest first; c comes in indexed by basis position and y
// leaves indexed by constraint row.
func (f *luFact) btran(v []float64) {
	y := f.work
	for k, q := range f.pcol {
		z := v[q] / f.diag[k]
		y[f.prow[k]] = z
		if z == 0 {
			continue
		}
		for _, e := range f.u[f.uStart[k]:f.uStart[k+1]] {
			v[e.idx] -= e.val * z
		}
	}
	for k := f.m - 1; k >= 0; k-- {
		s := y[f.prow[k]]
		for _, e := range f.l[f.lStart[k]:f.lStart[k+1]] {
			s -= e.val * y[e.idx]
		}
		y[f.prow[k]] = s
	}
	copy(v, y)
}
