package lp

import (
	"errors"
	"math"

	"repro/internal/obs"
)

// defaultRefactorEvery bounds the product-form eta file: the basis is
// refactorized from scratch after this many pivots, shedding the drift
// the etas accumulate. Recovery restarts tighten the cadence.
const defaultRefactorEvery = 64

// tolDual is the reduced-cost tolerance used to judge dual feasibility
// of a warm-start basis.
const tolDual = 1e-7

var errSingular = errors.New("singular basis during refactorization")

// solver is one revised-simplex run over a stdForm: a basis maintained
// as a sparse LU factorization plus a product-form eta file, periodically
// refactorized.
type solver struct {
	sf    *stdForm
	basis []int // basic column per row
	pos   []int // column -> basic row, or -1
	lu    *luFact
	// The eta file, one product-form update per pivot since the last
	// refactorization: replacing the basis column at position etaR[t]
	// gives B_new⁻¹ = E·B_old⁻¹, E the identity but for column etaR[t],
	// whose nonzeros (pivot included, in index order) are
	// eta[etaStart[t]:etaStart[t+1]].
	etaR, etaStart []int
	eta            []entry
	xB             []float64 // current basic values (B⁻¹b)
	refactEvery    int
	maxIter        int
	feasTol        float64

	pivots, refactors, repairs, recoveries int

	// Passive fill telemetry (nil without a registry): factor and basis
	// nonzeros at the latest refactorization, eta nonzeros appended.
	luNnz, basisNnz *obs.Gauge
	etaNnz          *obs.Counter

	// scratch vectors, length m
	y, w, cB, rho []float64
}

func newSolver(sf *stdForm, maxIter int, reg *obs.Registry) *solver {
	m := sf.m
	return &solver{
		sf:          sf,
		basis:       make([]int, m),
		pos:         make([]int, sf.total),
		lu:          newLU(m),
		etaStart:    make([]int, 1, defaultRefactorEvery+1),
		xB:          make([]float64, m),
		luNnz:       reg.Gauge("lp.lu_nnz"),
		basisNnz:    reg.Gauge("lp.basis_nnz"),
		etaNnz:      reg.Counter("lp.eta_nnz"),
		refactEvery: defaultRefactorEvery,
		maxIter:     maxIter,
		feasTol:     tolZero * (1 + sf.bNorm),
		y:           make([]float64, m),
		w:           make([]float64, m),
		cB:          make([]float64, m),
		rho:         make([]float64, m),
	}
}

func (s *solver) setBasis(cols []int) {
	copy(s.basis, cols)
	for j := range s.pos {
		s.pos[j] = -1
	}
	for i, b := range s.basis {
		s.pos[b] = i
	}
}

// setBasisChecked installs a caller-provided (warm) basis, rejecting
// out-of-range or duplicate columns.
func (s *solver) setBasisChecked(cols []int) bool {
	if len(cols) != s.sf.m {
		return false
	}
	for j := range s.pos {
		s.pos[j] = -1
	}
	for i, c := range cols {
		if c < 0 || c >= s.sf.total || s.pos[c] >= 0 {
			for j := range s.pos {
				s.pos[j] = -1
			}
			return false
		}
		s.basis[i] = c
		s.pos[c] = i
	}
	return true
}

// ftranVec solves B·x = v through the factorization and the eta file.
func (s *solver) ftranVec(v []float64) {
	s.lu.ftran(v)
	for t, r := range s.etaR {
		xr := v[r]
		if xr == 0 {
			continue
		}
		v[r] = 0 // the slab holds E's pivot entry, not the identity's 1
		for _, e := range s.eta[s.etaStart[t]:s.etaStart[t+1]] {
			v[e.idx] += e.val * xr
		}
	}
}

// btranVec solves Bᵀ·y = c: eta transposes newest-first, then the LU.
func (s *solver) btranVec(v []float64) {
	for t := len(s.etaR) - 1; t >= 0; t-- {
		sum := 0.0
		for _, e := range s.eta[s.etaStart[t]:s.etaStart[t+1]] {
			sum += e.val * v[e.idx]
		}
		v[s.etaR[t]] = sum
	}
	s.lu.btran(v)
}

func (s *solver) computeXB() {
	copy(s.xB, s.sf.b)
	s.ftranVec(s.xB)
}

// testRefactor, when non-nil, is shown every basis about to be
// refactorized, so tests can hold the factorization of the bases a real
// solve visits against the dense oracle.
var testRefactor func(sf *stdForm, basis []int)

// refactor rebuilds the LU from the current basis, discards the eta
// file, and recomputes the basic values from scratch.
func (s *solver) refactor() error {
	if testRefactor != nil {
		testRefactor(s.sf, s.basis)
	}
	if !s.lu.factorize(s.sf, s.basis) {
		return errSingular
	}
	s.refactors++
	s.etaR, s.etaStart, s.eta = s.etaR[:0], s.etaStart[:1], s.eta[:0]
	s.computeXB()
	s.luNnz.Set(int64(s.lu.nnz()))
	if s.basisNnz != nil {
		n := 0
		for _, b := range s.basis {
			n += len(s.sf.cols[b])
		}
		s.basisNnz.Set(int64(n))
	}
	return nil
}

// colFtran writes B⁻¹·a_j into w.
func (s *solver) colFtran(j int, w []float64) {
	for i := range w {
		w[i] = 0
	}
	for _, e := range s.sf.cols[j] {
		w[e.idx] = e.val
	}
	s.ftranVec(w)
}

// pivot swaps column enter into the basis at row leave, appending an eta
// update and refactorizing when the eta file reaches its cap. w must be
// B⁻¹·a_enter.
func (s *solver) pivot(enter, leave int, w []float64) error {
	inv := 1 / w[leave]
	t := s.xB[leave] * inv
	for i, wi := range w {
		switch {
		case i == leave:
			s.eta = append(s.eta, entry{i, inv})
			s.xB[i] = t
		case wi != 0:
			s.eta = append(s.eta, entry{i, -wi * inv})
			s.xB[i] -= t * wi
		}
	}
	s.etaNnz.Add(int64(len(s.eta) - s.etaStart[len(s.etaR)]))
	s.etaR = append(s.etaR, leave)
	s.etaStart = append(s.etaStart, len(s.eta))
	old := s.basis[leave]
	s.pos[old] = -1
	s.basis[leave] = enter
	s.pos[enter] = leave
	s.pivots++
	if len(s.etaR) >= s.refactEvery {
		return s.refactor()
	}
	return nil
}

// primal runs primal simplex on the given cost vector until optimal,
// unbounded, or the iteration budget runs out. Entering columns are
// restricted to [0, enterLimit) (barring artificials). Pricing is
// Dantzig's rule with a switch to Bland's rule after maxIter/2 pivots to
// guarantee termination on degenerate problems; ratio-test ties go to
// the smallest basis index.
func (s *solver) primal(cost []float64, enterLimit int) (Status, error) {
	m := s.sf.m
	blandAfter := s.maxIter / 2
	for it := 0; it < s.maxIter; it++ {
		for i, b := range s.basis {
			s.cB[i] = cost[b]
		}
		copy(s.y, s.cB)
		s.btranVec(s.y)
		enter := -1
		if it < blandAfter {
			best := -tolZero
			for j := 0; j < enterLimit; j++ {
				if s.pos[j] >= 0 {
					continue
				}
				if d := cost[j] - colDot(s.sf, s.y, j); d < best {
					best, enter = d, j
				}
			}
		} else {
			for j := 0; j < enterLimit; j++ {
				if s.pos[j] >= 0 {
					continue
				}
				if cost[j]-colDot(s.sf, s.y, j) < -tolZero {
					enter = j
					break
				}
			}
		}
		if enter < 0 {
			return Optimal, nil
		}
		s.colFtran(enter, s.w)
		leave := -1
		bestRatio := math.Inf(1)
		for i := 0; i < m; i++ {
			a := s.w[i]
			// A basic artificial sits at ~0 in a dependent row, where the
			// entering column's true component is 0: only accept a pivot
			// there when it is decisively nonzero, else tolerance-level
			// noise becomes a 1/w blowup in the eta.
			thr := tolPivot
			if s.basis[i] >= s.sf.artStart {
				thr = 1e-6
			}
			if a > thr {
				x := s.xB[i]
				if x < 0 {
					x = 0 // tolerance-level infeasibility must not flip the ratio sign
				}
				r := x / a
				if r < bestRatio-tolPivot || (r < bestRatio+tolPivot && (leave < 0 || s.basis[i] < s.basis[leave])) {
					bestRatio, leave = r, i
				}
			}
		}
		if leave < 0 {
			return Unbounded, nil
		}
		if err := s.pivot(enter, leave, s.w); err != nil {
			return IterLimit, err
		}
	}
	return IterLimit, nil
}

// dualSimplex restores primal feasibility of a dual-feasible basis after
// an rhs change (the warm-start workhorse): it pivots on negative basic
// values, keeping reduced costs nonnegative. Infeasible means the dual
// is unbounded, i.e. the primal has no feasible point.
func (s *solver) dualSimplex(cost []float64, enterLimit int) (Status, error) {
	m := s.sf.m
	blandAfter := s.maxIter / 2
	for it := 0; it < s.maxIter; it++ {
		leave := -1
		if it < blandAfter {
			worst := -s.feasTol
			for i := 0; i < m; i++ {
				if s.xB[i] < worst {
					worst, leave = s.xB[i], i
				}
			}
		} else {
			// Bland-style anti-cycling: smallest basis index among the
			// infeasible rows.
			for i := 0; i < m; i++ {
				if s.xB[i] < -s.feasTol && (leave < 0 || s.basis[i] < s.basis[leave]) {
					leave = i
				}
			}
		}
		if leave < 0 {
			return Optimal, nil
		}
		for i := range s.rho {
			s.rho[i] = 0
		}
		s.rho[leave] = 1
		s.btranVec(s.rho)
		for i, b := range s.basis {
			s.cB[i] = cost[b]
		}
		copy(s.y, s.cB)
		s.btranVec(s.y)
		enter := -1
		bestRatio := math.Inf(1)
		for j := 0; j < enterLimit; j++ {
			if s.pos[j] >= 0 {
				continue
			}
			alpha := colDot(s.sf, s.rho, j)
			if alpha >= -tolPivot {
				continue
			}
			d := cost[j] - colDot(s.sf, s.y, j)
			if d < 0 {
				d = 0 // dual feasibility holds up to tolerance
			}
			if r := d / (-alpha); r < bestRatio-tolPivot {
				bestRatio, enter = r, j
			}
		}
		if enter < 0 {
			return Infeasible, nil
		}
		s.colFtran(enter, s.w)
		if math.Abs(s.w[leave]) < tolPivot {
			return IterLimit, nil // numerically unusable pivot; caller falls back
		}
		if err := s.pivot(enter, leave, s.w); err != nil {
			return IterLimit, err
		}
	}
	return IterLimit, nil
}

// dualFeasible reports whether every nonbasic reduced cost is
// nonnegative (within tolerance) for the given cost vector.
func (s *solver) dualFeasible(cost []float64) bool {
	for i, b := range s.basis {
		s.cB[i] = cost[b]
	}
	copy(s.y, s.cB)
	s.btranVec(s.y)
	for j := 0; j < s.sf.artStart; j++ {
		if s.pos[j] >= 0 {
			continue
		}
		if cost[j]-colDot(s.sf, s.y, j) < -tolDual {
			return false
		}
	}
	return true
}

// artificialInfeasibility sums the magnitudes of basic artificials — the
// phase-1 residual.
func (s *solver) artificialInfeasibility() float64 {
	sum := 0.0
	for i, b := range s.basis {
		if b >= s.sf.artStart {
			sum += math.Abs(s.xB[i])
		}
	}
	return sum
}

// driveOutArtificials pivots basic artificials left over from phase 1
// out of the basis where a structural or slack column can replace them;
// artificials on linearly dependent rows stay basic at zero (the
// entering columns' components there are zero, so they never move).
func (s *solver) driveOutArtificials() error {
	for i := 0; i < s.sf.m; i++ {
		if s.basis[i] < s.sf.artStart {
			continue
		}
		for k := range s.rho {
			s.rho[k] = 0
		}
		s.rho[i] = 1
		s.btranVec(s.rho)
		enter := -1
		for j := 0; j < s.sf.artStart; j++ {
			if s.pos[j] >= 0 {
				continue
			}
			if math.Abs(colDot(s.sf, s.rho, j)) > 1e-7 {
				enter = j
				break
			}
		}
		s.repairs++
		if enter < 0 {
			continue
		}
		s.colFtran(enter, s.w)
		if math.Abs(s.w[i]) < tolPivot {
			continue
		}
		if err := s.pivot(enter, i, s.w); err != nil {
			return err
		}
	}
	return nil
}

// cold runs the two-phase method from the all-slack/artificial basis.
// The returned phase labels iteration-limit errors.
func (s *solver) cold() (Status, int, error) {
	s.setBasis(s.sf.initBasis)
	if err := s.refactor(); err != nil {
		return IterLimit, 1, err
	}
	if s.sf.nArt > 0 {
		st, err := s.primal(s.sf.phase1Cost(), s.sf.artStart)
		if err != nil {
			return IterLimit, 1, err
		}
		if st != Optimal {
			// Unbounded is impossible for the phase-1 objective (bounded
			// below by 0); fold it into the iteration-limit outcome.
			return IterLimit, 1, nil
		}
		if s.artificialInfeasibility() > s.feasTol {
			return Infeasible, 1, nil
		}
		if err := s.driveOutArtificials(); err != nil {
			return IterLimit, 1, err
		}
	}
	st, err := s.primal(s.sf.cost, s.sf.artStart)
	return st, 2, err
}

// warm attempts to solve from a caller-provided basis. handled=false
// means the basis was unusable (shape mismatch, singular, infeasible
// artificials, or a dead-ended dual repair) and the caller must fall
// back to a cold solve; any pivots spent stay counted.
func (s *solver) warm(cols []int) (handled bool, st Status) {
	if !s.setBasisChecked(cols) {
		return false, IterLimit
	}
	if s.refactor() != nil {
		return false, IterLimit
	}
	// A basic artificial off zero encodes a violated row that the
	// phase-2-only repairs below cannot fix.
	for i, b := range s.basis {
		if b >= s.sf.artStart && math.Abs(s.xB[i]) > s.feasTol {
			return false, IterLimit
		}
	}
	minX := 0.0
	for _, v := range s.xB {
		if v < minX {
			minX = v
		}
	}
	if minX >= -s.feasTol {
		st, err := s.primal(s.sf.cost, s.sf.artStart)
		if err != nil {
			return false, IterLimit
		}
		return true, st
	}
	// Primal infeasible after an rhs change: if the basis is still dual
	// feasible (it is when only rhs entries moved), the dual simplex
	// walks back to feasibility in few pivots. Any ambiguity — dual
	// infeasibility included — defers to the cold two-phase method
	// rather than declaring the problem infeasible from a warm path.
	if !s.dualFeasible(s.sf.cost) {
		return false, IterLimit
	}
	if st, err := s.dualSimplex(s.sf.cost, s.sf.artStart); err != nil || st != Optimal {
		return false, IterLimit
	}
	st2, err := s.primal(s.sf.cost, s.sf.artStart)
	if err != nil {
		return false, IterLimit
	}
	return true, st2
}

// reoptimize resumes optimization of the current (just refactorized)
// basis, repairing primal infeasibility through the dual simplex first.
func (s *solver) reoptimize() bool {
	minX := 0.0
	for _, v := range s.xB {
		if v < minX {
			minX = v
		}
	}
	if minX < -s.feasTol {
		if !s.dualFeasible(s.sf.cost) {
			return false
		}
		if st, err := s.dualSimplex(s.sf.cost, s.sf.artStart); err != nil || st != Optimal {
			return false
		}
	}
	st, err := s.primal(s.sf.cost, s.sf.artStart)
	return err == nil && st == Optimal
}

// recover reacts to a failed post-solve verification: first refactorize
// the current basis in place (an exact LU and fresh basic values shed
// the drift) and re-optimize; on the next attempt restart cold with a
// tighter refactorization cadence. Reports whether a new claimed-optimal
// point is available.
func (s *solver) recover(attempt int) bool {
	s.recoveries++
	if attempt == 0 && s.refactor() == nil && s.reoptimize() {
		return true
	}
	s.refactEvery /= 4
	if s.refactEvery < 8 {
		s.refactEvery = 8
	}
	st, _, err := s.cold()
	return err == nil && st == Optimal
}

// extract writes the structural solution in original (unscaled) units.
func (s *solver) extract(x []float64) {
	for j := range x {
		x[j] = 0
	}
	for i, b := range s.basis {
		if b < s.sf.n {
			x[b] = s.xB[i] * s.sf.colScale[b]
		}
	}
}

// fill copies the run's telemetry into a Solution.
func (s *solver) fill(sol *Solution) {
	sol.Iterations = s.pivots
	sol.BasisRepairs = s.repairs
	sol.Refactorizations = s.refactors
	sol.Recoveries = s.recoveries
}
