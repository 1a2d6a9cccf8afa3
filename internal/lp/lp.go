// Package lp implements a revised-simplex solver for linear programs in
// the form
//
//	minimize  c·x
//	subject to  a_i·x (<=|=|>=) b_i   for each constraint i
//	            x >= 0
//
// It substitutes for the CPLEX solver the paper uses in its offline
// precomputation (equation (7)). The solver is exact up to floating-point
// tolerances; its per-pivot cost follows the nonzeros of the basis, not
// its dimension squared (the 1 436-row min-MLU LP on Abilene solves cold
// in about 0.1 s), but pricing is still a full Dantzig scan, so the
// largest topologies use the iterative solver in internal/core instead.
//
// The core is a two-phase revised simplex over a basis maintained as a
// sparse LU factorization (Markowitz ordering under threshold pivoting,
// lu.go) plus a product-form eta file that stores only nonzeros,
// refactorized every few dozen pivots so long degenerate runs cannot
// drift. Rows and structural columns are equilibrated with powers of two
// before phase 1, making every tolerance scale-free. Solve verifies the
// final point against the original constraints, and a failed check
// triggers recovery — refactorize and re-optimize, then a tightened cold
// restart — before any error is reported. SolveFrom warm-starts from a previous solution's
// Basis, repairing rhs-only changes with the dual simplex; hot re-solve
// paths (per-scenario optimal baselines, min-MLU solves) use it to cut
// pivot counts dramatically.
package lp

import (
	"fmt"
	"math"

	"repro/internal/obs"
)

// Op is a constraint comparison operator.
type Op int

// Constraint operators.
const (
	LE Op = iota // <=
	GE           // >=
	EQ           // ==
)

// Status reports the outcome of Solve.
type Status int

// Solve outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
	IterLimit
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterLimit:
		return "iteration limit"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Term is one coefficient of a constraint row: Coef * x[Var].
type Term struct {
	Var  int
	Coef float64
}

type constraint struct {
	terms []Term
	op    Op
	rhs   float64
}

// Problem is an LP under construction. The zero value is an empty
// minimization problem.
type Problem struct {
	cost []float64
	cons []constraint
	// MaxIter overrides the default pivot limit when nonzero.
	MaxIter int
	// Obs, when non-nil, receives solver counters under the "lp." prefix:
	// solves, pivots (simplex iterations across all phases), basis
	// repairs (artificials driven out after phase 1), refactorizations,
	// warm_starts, recoveries, eta_nnz (nonzeros appended to the eta
	// file) and terminal statuses, plus the lu_nnz and basis_nnz gauges
	// (factor and basis nonzeros at the latest refactorization; their gap
	// is the fill). Nil costs nothing, and a registry changes no result.
	Obs *obs.Registry
}

// NewProblem returns an empty problem.
func NewProblem() *Problem { return &Problem{} }

// AddVariable adds a nonnegative variable with the given objective
// coefficient and returns its index. The name labels the call site only;
// the problem does not keep it.
func (p *Problem) AddVariable(name string, cost float64) int {
	p.cost = append(p.cost, cost)
	return len(p.cost) - 1
}

// NumVariables reports the number of variables added so far.
func (p *Problem) NumVariables() int { return len(p.cost) }

// SetCost updates the objective coefficient of variable v.
func (p *Problem) SetCost(v int, cost float64) { p.cost[v] = cost }

// AddConstraint adds the row terms (op) rhs. Terms may repeat a variable;
// coefficients are summed.
func (p *Problem) AddConstraint(terms []Term, op Op, rhs float64) {
	cp := append([]Term(nil), terms...)
	p.cons = append(p.cons, constraint{cp, op, rhs})
}

// Basis is the optimal simplex basis of a solved Problem, opaque to
// callers. Passing it to SolveFrom on a structurally identical problem —
// same variables and same constraint rows up to rhs values — re-solves
// warm: from an unchanged problem the solve is pivot-free, and after an
// rhs change the dual simplex repairs feasibility in a handful of pivots
// instead of a full two-phase run. A basis whose shape does not match
// the receiving problem is ignored and the solve falls back to cold, so
// callers may pass candidates optimistically.
type Basis struct {
	cols      []int
	n, m, tot int
}

// matches reports whether the basis fits a problem of the given shape.
func (b *Basis) matches(n, m, total int) bool {
	return b != nil && b.n == n && b.m == m && b.tot == total && len(b.cols) == m
}

// Solution is the result of Solve.
type Solution struct {
	Status Status
	// Value is the objective value (meaningful only when Status ==
	// Optimal).
	Value float64
	// X holds the variable values.
	X []float64
	// Iterations is the number of simplex pivots performed.
	Iterations int
	// BasisRepairs counts post-phase-1 basis surgery: artificial
	// variables examined for drive-out after phase 1.
	BasisRepairs int
	// Refactorizations counts LU factorizations of the basis (the
	// periodic-refactorization cadence plus warm starts and recoveries).
	Refactorizations int
	// Recoveries counts verification failures repaired by refactorizing
	// and re-optimizing instead of returning an error.
	Recoveries int
	// WarmStarted reports whether the solve ran from the caller's basis
	// (false when the basis was unusable and the solve fell back cold).
	WarmStarted bool
	// Basis is the optimal basis, for warm-starting a later solve of a
	// structurally identical problem via SolveFrom. Nil unless Status ==
	// Optimal.
	Basis *Basis
}

const (
	tolPivot      = 1e-9
	tolZero       = 1e-7
	maxRecoveries = 2
)

// Solve runs the revised simplex cold and returns the solution. It never
// mutates the problem, so a Problem can be re-solved after modification.
func (p *Problem) Solve() (*Solution, error) { return p.SolveFrom(nil) }

// SolveFrom is Solve warm-started from a previous solution's Basis (nil
// means cold). See Basis for the warm-start contract.
func (p *Problem) SolveFrom(warm *Basis) (*Solution, error) {
	sol, err := p.solve(warm)
	if reg := p.Obs; reg != nil && sol != nil {
		reg.Counter("lp.solves").Inc()
		reg.Counter("lp.pivots").Add(int64(sol.Iterations))
		reg.Counter("lp.basis_repairs").Add(int64(sol.BasisRepairs))
		reg.Counter("lp.refactorizations").Add(int64(sol.Refactorizations))
		reg.Counter("lp.recoveries").Add(int64(sol.Recoveries))
		if sol.WarmStarted {
			reg.Counter("lp.warm_starts").Inc()
		}
		reg.Vec("lp.status", 4, func(i int) string { return Status(i).String() }).Add(int(sol.Status), 1)
	}
	return sol, err
}

func (p *Problem) solve(warm *Basis) (*Solution, error) {
	n := len(p.cost)
	if n == 0 {
		return &Solution{Status: Optimal, X: nil}, nil
	}
	sf, err := buildStdForm(p)
	if err != nil {
		return nil, err
	}
	maxIter := p.MaxIter
	if maxIter == 0 {
		maxIter = 50 * (sf.m + sf.total + 10)
	}
	s := newSolver(sf, maxIter, p.Obs)
	sol := &Solution{X: make([]float64, n)}

	st := IterLimit
	phase := 2
	handled := false
	if warm.matches(n, sf.m, sf.total) {
		handled, st = s.warm(warm.cols)
		sol.WarmStarted = handled
	}
	var serr error
	if !handled {
		st, phase, serr = s.cold()
	}

	if st != Optimal {
		s.fill(sol)
		sol.Status = st
		switch st {
		case Infeasible, Unbounded:
			return sol, nil
		default:
			if serr != nil {
				return sol, fmt.Errorf("lp: %v", serr)
			}
			return sol, fmt.Errorf("lp: phase-%d iteration limit", phase)
		}
	}

	// Verify the claimed optimum against the original constraints; on
	// failure, recover (refactorize + re-optimize, then a tightened cold
	// restart) before giving up.
	for attempt := 0; ; attempt++ {
		s.extract(sol.X)
		verr := p.verifySolution(sol.X)
		if verr == nil {
			break
		}
		if attempt >= maxRecoveries || !s.recover(attempt) {
			s.fill(sol)
			sol.Status = IterLimit
			return sol, fmt.Errorf("lp: solution failed verification after %d recovery attempts: %v", s.recoveries, verr)
		}
	}
	// Clamp tolerance-level negatives left by floating point.
	for j, v := range sol.X {
		if v < 0 {
			sol.X[j] = 0
		}
	}
	var val float64
	for j, c := range p.cost {
		val += c * sol.X[j]
	}
	sol.Value = val
	sol.Status = Optimal
	s.fill(sol)
	sol.Basis = &Basis{cols: append([]int(nil), s.basis...), n: n, m: sf.m, tot: sf.total}
	return sol, nil
}

// testVerify, when non-nil, replaces checkFeasible in the post-solve
// verification loop so tests can force the recovery path.
var testVerify func(p *Problem, x []float64) error

func (p *Problem) verifySolution(x []float64) error {
	if testVerify != nil {
		return testVerify(p, x)
	}
	return p.checkFeasible(x)
}

// checkFeasible verifies x against the problem's constraints within a
// relative tolerance. Both checks are scale-aware: the nonnegativity
// bound is relative to the largest |x| and each row's bound to the
// largest term in the row, so Gbps-scale capacities next to unit demands
// neither false-fail nor mask real violations.
func (p *Problem) checkFeasible(x []float64) error {
	const tol = 1e-5
	xScale := 1.0
	for _, v := range x {
		if a := math.Abs(v); a > xScale {
			xScale = a
		}
	}
	for _, v := range x {
		if v < -tol*xScale {
			return fmt.Errorf("negative variable %v (scale %v)", v, xScale)
		}
	}
	for i, c := range p.cons {
		var lhs, scale float64
		scale = math.Abs(c.rhs)
		for _, t := range c.terms {
			lhs += t.Coef * x[t.Var]
			if s := math.Abs(t.Coef * x[t.Var]); s > scale {
				scale = s
			}
		}
		if scale < 1 {
			scale = 1
		}
		viol := 0.0
		switch c.op {
		case LE:
			viol = lhs - c.rhs
		case GE:
			viol = c.rhs - lhs
		case EQ:
			viol = math.Abs(lhs - c.rhs)
		}
		if viol > tol*scale {
			return fmt.Errorf("constraint %d violated by %v", i, viol)
		}
	}
	return nil
}
