package lp

import (
	"math"
	"math/rand"
	"testing"
)

// basisOf wraps explicit sparse columns as a stdForm whose basis is all
// of them, which is everything factorize reads.
func basisOf(cols [][]entry) (*stdForm, []int) {
	basis := make([]int, len(cols))
	for c := range basis {
		basis[c] = c
	}
	return &stdForm{m: len(cols), cols: cols}, basis
}

func maxAbs(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// holdToDense factorizes the basis with the sparse factorization and with
// the dense oracle, requires the same singularity verdict and, when the
// basis is nonsingular, FTRAN and BTRAN results within 1e-9 of the
// oracle's relative to the solution's size, for a unit, a sparse and a
// dense right-hand side. It reports the shared verdict.
func holdToDense(t testing.TB, sf *stdForm, basis []int, rng *rand.Rand) (nonsingular bool) {
	t.Helper()
	m := sf.m
	sparse, dense := newLU(m), newDenseLU(m)
	ok, okDense := sparse.factorize(sf, basis), dense.factorize(sf, basis)
	if ok != okDense {
		t.Fatalf("m=%d: sparse factorization nonsingular=%v, dense oracle nonsingular=%v", m, ok, okDense)
	}
	if !ok {
		return false
	}
	rhs := make([][]float64, 3)
	for r := range rhs {
		rhs[r] = make([]float64, m)
	}
	rhs[0][rng.Intn(m)] = 1
	for _, e := range sf.cols[basis[rng.Intn(m)]] {
		rhs[1][e.idx] = e.val
	}
	for i := range rhs[2] {
		rhs[2][i] = rng.NormFloat64()
	}
	got, want := make([]float64, m), make([]float64, m)
	for r, v := range rhs {
		for dir, solve := range []struct{ sparse, dense func([]float64) }{
			{sparse.ftran, dense.ftran}, {sparse.btran, dense.btran},
		} {
			copy(got, v)
			copy(want, v)
			solve.sparse(got)
			solve.dense(want)
			tol := 1e-9 * (maxAbs(want) + 1e-300)
			for i := range got {
				if math.Abs(got[i]-want[i]) > tol {
					t.Fatalf("m=%d rhs %d dir %d: x[%d] = %v, oracle %v (|x|∞ = %v)", m, r, dir, i, got[i], want[i], maxAbs(want))
				}
			}
		}
	}
	return true
}

// randomBasis draws an m×m sparse matrix that is nonsingular by
// construction: a row-permuted diagonal with magnitudes in [1, 2) plus
// extra off-diagonal entries per column whose magnitudes sum to under a
// half, so every column is strictly dominated by its diagonal entry.
func randomBasis(rng *rand.Rand, m, extra int) [][]entry {
	perm := rng.Perm(m)
	cols := make([][]entry, m)
	for c := range cols {
		used := map[int]bool{perm[c]: true}
		sign := float64(1 - 2*rng.Intn(2))
		cols[c] = append(cols[c], entry{perm[c], sign * (1 + rng.Float64())})
		for k := 0; k < extra && k < m-1; k++ {
			i := rng.Intn(m)
			if used[i] {
				continue
			}
			used[i] = true
			cols[c] = append(cols[c], entry{i, (rng.Float64() - 0.5) / float64(extra)})
		}
	}
	return cols
}

// withDependentColumn replaces one column of a nonsingular basis by a
// combination of two others plus eps times itself, so the
// determinant is eps times the original's: singular at
// eps = 0, and as close to it as eps says otherwise.
func withDependentColumn(rng *rand.Rand, cols [][]entry, eps float64) [][]entry {
	m := len(cols)
	p := rng.Perm(m)
	a, b, dst := p[0], p[1], p[2]
	acc := make([]float64, m)
	for _, e := range cols[a] {
		acc[e.idx] += 0.75 * e.val
	}
	for _, e := range cols[b] {
		acc[e.idx] -= 1.25 * e.val
	}
	for _, e := range cols[dst] {
		acc[e.idx] += eps * e.val
	}
	out := append([][]entry(nil), cols...)
	out[dst] = nil
	for i, v := range acc {
		if v != 0 {
			out[dst] = append(out[dst], entry{i, v})
		}
	}
	return out
}

func TestLUMatchesDenseOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		m := 3 + rng.Intn(60)
		cols := randomBasis(rng, m, rng.Intn(6))
		sf, basis := basisOf(cols)
		if !holdToDense(t, sf, basis, rng) {
			t.Fatalf("trial %d: diagonally dominant basis judged singular", trial)
		}
		// eps 1e-5 leaves a smallest pivot far above luTiny; 0 and 1e-14
		// leave one far below it.
		for _, eps := range []float64{1e-5, 0, 1e-14} {
			sf, basis := basisOf(withDependentColumn(rng, cols, eps))
			if got, want := holdToDense(t, sf, basis, rng), eps == 1e-5; got != want {
				t.Fatalf("trial %d eps %g: nonsingular=%v, want %v", trial, eps, got, want)
			}
		}
	}
}

func TestLUStructurallySingular(t *testing.T) {
	for name, cols := range map[string][][]entry{
		"empty column":   {{{0, 1}}, {}, {{2, 1}}},
		"empty row":      {{{0, 1}}, {{0, 2}}, {{0, 1}, {2, 1}}},
		"two on one row": {{{0, 1}, {1, 1}}, {{1, 1}}, {{1, -1}}},
	} {
		sf, basis := basisOf(cols)
		if holdToDense(t, sf, basis, rand.New(rand.NewSource(1))) {
			t.Fatalf("%s: judged nonsingular", name)
		}
	}
}

// TestLUFillStaysSparse pins the point of the ordering: a basis that is a
// permuted triangle is peeled as singletons, with no multipliers and no
// fill, whatever order its rows and columns arrive in.
func TestLUFillStaysSparse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const m = 200
	rowPerm, colPerm := rng.Perm(m), rng.Perm(m)
	cols := make([][]entry, m)
	nnz := 0
	for c := 0; c < m; c++ {
		for r := c; r < m; r += 1 + rng.Intn(40) {
			cols[colPerm[c]] = append(cols[colPerm[c]], entry{rowPerm[r], 1 + rng.Float64()})
			nnz++
		}
	}
	sf, basis := basisOf(cols)
	f := newLU(m)
	if !f.factorize(sf, basis) {
		t.Fatal("permuted triangle judged singular")
	}
	if len(f.l) != 0 || f.nnz() != nnz {
		t.Fatalf("permuted triangle with %d nonzeros factorized to %d multipliers, %d factor nonzeros", nnz, len(f.l), f.nnz())
	}
}

// gridFlowProblem is a min-cost flow on a k×k grid with capacitated arcs:
// a few hundred rows, degenerate, and long enough to refactorize.
func gridFlowProblem(k int) *Problem {
	rng := rand.New(rand.NewSource(3))
	p := NewProblem()
	node := func(r, c int) int { return r*k + c }
	in := make([][]Term, k*k)
	out := make([][]Term, k*k)
	arc := func(a, b int) {
		v := p.AddVariable("", 1+rng.Float64())
		out[a] = append(out[a], Term{v, 1})
		in[b] = append(in[b], Term{v, -1})
		p.AddConstraint([]Term{{v, 1}}, LE, 0.6+rng.Float64())
	}
	for r := 0; r < k; r++ {
		for c := 0; c < k; c++ {
			if c+1 < k {
				arc(node(r, c), node(r, c+1))
				arc(node(r, c+1), node(r, c))
			}
			if r+1 < k {
				arc(node(r, c), node(r+1, c))
				arc(node(r+1, c), node(r, c))
			}
		}
	}
	for n := 0; n < k*k; n++ {
		rhs := 0.0
		switch n {
		case 0:
			rhs = 1
		case k*k - 1:
			rhs = -1
		}
		p.AddConstraint(append(out[n], in[n]...), EQ, rhs)
	}
	return p
}

// TestWarmSolverDoesNotAllocate: once a solver has been through one run,
// a whole second run from the cold basis — every pivot, FTRAN, BTRAN,
// refactorization and computeXB of it — allocates nothing.
func TestWarmSolverDoesNotAllocate(t *testing.T) {
	sf, err := buildStdForm(gridFlowProblem(8))
	if err != nil {
		t.Fatal(err)
	}
	s := newSolver(sf, 100000, nil)
	s.refactEvery = 8 // cycle the eta file many times within a short run
	if st, _, err := s.cold(); st != Optimal || err != nil {
		t.Fatalf("cold solve: %v %v", st, err)
	}
	if s.refactors < 5 {
		t.Fatalf("run refactorized %d times; want a run that cycles the eta file", s.refactors)
	}
	v := make([]float64, s.sf.m)
	for name, fn := range map[string]func(){
		"cold run": func() {
			if st, _, err := s.cold(); st != Optimal || err != nil {
				t.Fatalf("re-run: %v %v", st, err)
			}
		},
		"colFtran":  func() { s.colFtran(0, s.w) },
		"btranVec":  func() { copy(v, s.sf.cost[:s.sf.m]); s.btranVec(v) },
		"computeXB": s.computeXB,
	} {
		if n := testing.AllocsPerRun(5, fn); n != 0 {
			t.Errorf("%s: %v allocations per run on a warm solver, want 0", name, n)
		}
	}
}

// TestEtaFileMatchesRefactorization: solving through the factorization
// plus the eta file agrees with solving through a fresh factorization of
// the same basis, after every pivot of a phase-1 run taken one pivot at a
// time (a one-pivot budget puts the pricing on Bland's rule, which is as
// good a pivot sequence as any for this).
func TestEtaFileMatchesRefactorization(t *testing.T) {
	sf, err := buildStdForm(gridFlowProblem(5))
	if err != nil {
		t.Fatal(err)
	}
	s := newSolver(sf, 1, nil)
	s.refactEvery = 8 // so the run crosses several resets of the eta file
	s.setBasis(sf.initBasis)
	if err := s.refactor(); err != nil {
		t.Fatal(err)
	}
	m := sf.m
	fresh := newLU(m)
	got, want := make([]float64, m), make([]float64, m)
	rng := rand.New(rand.NewSource(5))
	for st := IterLimit; st != Optimal; {
		if st, err = s.primal(sf.phase1Cost(), sf.artStart); err != nil {
			t.Fatal(err)
		}
		if !fresh.factorize(sf, s.basis) {
			t.Fatalf("pivot %d: fresh factorization judged the basis singular", s.pivots)
		}
		for dir := 0; dir < 2; dir++ {
			for i := range got {
				got[i] = rng.NormFloat64()
			}
			copy(want, got)
			if dir == 0 {
				s.ftranVec(got)
				fresh.ftran(want)
			} else {
				s.btranVec(got)
				fresh.btran(want)
			}
			tol := 1e-9 * maxAbs(want)
			for i := range got {
				if math.Abs(got[i]-want[i]) > tol {
					t.Fatalf("pivot %d dir %d: [%d] = %v through the eta file, %v refactorized", s.pivots, dir, i, got[i], want[i])
				}
			}
		}
	}
	if s.refactors < 3 {
		t.Fatalf("run of %d pivots refactorized %d times; want several eta-file resets", s.pivots, s.refactors)
	}
}
