package lp

import (
	"fmt"
	"math"
	"sort"
)

// entry is one nonzero of a sparse vector: idx is the constraint row in a
// stdForm column, and whatever the owning slab says in the basis
// factorization and the eta file.
type entry struct {
	idx int
	val float64
}

// stdForm is the equilibrated standard form of a Problem:
//
//	minimize cost·x  subject to  A·x = b,  x >= 0,  b >= 0
//
// with columns laid out [structural | slack/surplus | artificial]. Rows
// and structural columns are scaled by powers of two (lossless in binary
// floating point) so pivot and feasibility tolerances are scale-free; the
// objective value is invariant because cost is scaled with the columns.
type stdForm struct {
	m, n     int // constraint rows, structural columns
	nSlack   int
	nArt     int
	total    int // n + nSlack + nArt
	artStart int // first artificial column (= n + nSlack)
	cols     [][]entry
	b        []float64
	cost     []float64 // phase-2 cost over all columns, column-scaled
	colScale []float64 // structural unscaling: x_orig[j] = colScale[j]·x[j]
	// initBasis is the cold-start basis: the LE slack or the artificial
	// of each row (an identity matrix, trivially factorizable).
	initBasis []int
	bNorm     float64 // max |b|, anchoring relative feasibility tolerances
	p1cost    []float64
}

// phase1Cost returns the phase-1 objective (1 on artificials, 0
// elsewhere), built lazily.
func (sf *stdForm) phase1Cost() []float64 {
	if sf.p1cost == nil {
		sf.p1cost = make([]float64, sf.total)
		for j := sf.artStart; j < sf.total; j++ {
			sf.p1cost[j] = 1
		}
	}
	return sf.p1cost
}

// pow2Inv returns the power of two closest to 1/v (1 for v <= 0 or
// non-finite), so scaled magnitudes land in [1, 2).
func pow2Inv(v float64) float64 {
	if v <= 0 || math.IsInf(v, 0) || math.IsNaN(v) {
		return 1
	}
	return math.Ldexp(1, -math.Ilogb(v))
}

// buildStdForm converts p into equilibrated standard form. Duplicate
// terms are summed, rows are normalized to rhs >= 0 (flipping LE/GE),
// and every GE/EQ row receives an artificial variable.
func buildStdForm(p *Problem) (*stdForm, error) {
	n := len(p.cost)
	m := len(p.cons)

	type rowData struct {
		idx []int
		val []float64
		op  Op
		rhs float64
	}
	rows := make([]rowData, m)
	scratch := make([]float64, n)
	var touched []int
	for i, c := range p.cons {
		touched = touched[:0]
		for _, t := range c.terms {
			if t.Var < 0 || t.Var >= n {
				return nil, fmt.Errorf("lp: constraint %d references variable %d of %d", i, t.Var, n)
			}
			if scratch[t.Var] == 0 {
				touched = append(touched, t.Var)
			}
			scratch[t.Var] += t.Coef
		}
		sort.Ints(touched)
		r := rowData{op: c.op, rhs: c.rhs}
		for _, j := range touched {
			if v := scratch[j]; v != 0 {
				r.idx = append(r.idx, j)
				r.val = append(r.val, v)
			}
			scratch[j] = 0
		}
		if r.rhs < 0 {
			for k := range r.val {
				r.val[k] = -r.val[k]
			}
			r.rhs = -r.rhs
			switch r.op {
			case LE:
				r.op = GE
			case GE:
				r.op = LE
			}
		}
		rows[i] = r
	}

	// Powers-of-two row/column equilibration over the structural block.
	// Slack and artificial columns are appended after scaling so they
	// keep exact ±1 entries.
	rowScale := make([]float64, m)
	for i := range rows {
		maxA := 0.0
		for _, v := range rows[i].val {
			if a := math.Abs(v); a > maxA {
				maxA = a
			}
		}
		rowScale[i] = pow2Inv(maxA)
	}
	colMax := make([]float64, n)
	for i := range rows {
		for k, j := range rows[i].idx {
			if a := math.Abs(rows[i].val[k]) * rowScale[i]; a > colMax[j] {
				colMax[j] = a
			}
		}
	}
	colScale := make([]float64, n)
	for j := range colScale {
		colScale[j] = pow2Inv(colMax[j])
	}

	nSlack, nArt := 0, 0
	for i := range rows {
		if rows[i].op != EQ {
			nSlack++
		}
		if rows[i].op != LE {
			nArt++
		}
	}
	total := n + nSlack + nArt
	sf := &stdForm{
		m: m, n: n, nSlack: nSlack, nArt: nArt, total: total,
		artStart:  n + nSlack,
		cols:      make([][]entry, total),
		b:         make([]float64, m),
		cost:      make([]float64, total),
		colScale:  colScale,
		initBasis: make([]int, m),
	}
	for i := range rows {
		for k, j := range rows[i].idx {
			v := rows[i].val[k] * rowScale[i] * colScale[j]
			sf.cols[j] = append(sf.cols[j], entry{i, v})
		}
	}
	slackCol, artCol := n, n+nSlack
	for i := range rows {
		sf.b[i] = rows[i].rhs * rowScale[i]
		if sf.b[i] > sf.bNorm {
			sf.bNorm = sf.b[i]
		}
		switch rows[i].op {
		case LE:
			sf.cols[slackCol] = []entry{{i, 1}}
			sf.initBasis[i] = slackCol
			slackCol++
		case GE:
			sf.cols[slackCol] = []entry{{i, -1}}
			slackCol++
			sf.cols[artCol] = []entry{{i, 1}}
			sf.initBasis[i] = artCol
			artCol++
		case EQ:
			sf.cols[artCol] = []entry{{i, 1}}
			sf.initBasis[i] = artCol
			artCol++
		}
	}
	for j := 0; j < n; j++ {
		sf.cost[j] = p.cost[j] * colScale[j]
	}
	return sf, nil
}

// colDot returns y·a_j over column j's nonzeros.
func colDot(sf *stdForm, y []float64, j int) float64 {
	s := 0.0
	for _, e := range sf.cols[j] {
		s += y[e.idx] * e.val
	}
	return s
}
