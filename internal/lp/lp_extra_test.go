package lp

import (
	"math"
	"strings"
	"testing"
)

func TestMaxIterOverride(t *testing.T) {
	p := NewProblem()
	x := p.AddVariable("x", 1)
	p.AddConstraint([]Term{{x, 1}}, GE, 2)
	p.maxIter = 1
	sol, err := p.SolveFrom(nil)
	if err == nil && sol.Status == Optimal {
		// A single pivot can suffice here; force an even smaller budget by
		// adding constraints.
		q := NewProblem()
		vars := make([]int, 12)
		for i := range vars {
			vars[i] = q.AddVariable("", 1)
		}
		for i := range vars {
			q.AddConstraint([]Term{{vars[i], 1}}, GE, float64(i+1))
		}
		q.maxIter = 1
		if _, err := q.SolveFrom(nil); err == nil {
			t.Fatalf("maxIter=1 solved a 12-pivot problem")
		}
		return
	}
	if err != nil && !strings.Contains(err.Error(), "iteration limit") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestIterationsReported(t *testing.T) {
	p := NewProblem()
	x := p.AddVariable("x", -1)
	y := p.AddVariable("y", -1)
	p.AddConstraint([]Term{{x, 1}, {y, 1}}, LE, 4)
	p.AddConstraint([]Term{{x, 2}, {y, 1}}, LE, 6)
	sol, err := p.SolveFrom(nil)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Iterations <= 0 {
		t.Fatalf("Iterations = %d", sol.Iterations)
	}
}

func TestCheckFeasibleUnit(t *testing.T) {
	p := NewProblem()
	x := p.AddVariable("x", 1)
	y := p.AddVariable("y", 1)
	p.AddConstraint([]Term{{x, 1}, {y, 2}}, LE, 10)
	p.AddConstraint([]Term{{x, 1}}, GE, 1)
	p.AddConstraint([]Term{{y, 1}}, EQ, 2)

	if err := p.checkFeasible([]float64{1, 2}); err != nil {
		t.Fatalf("feasible point rejected: %v", err)
	}
	if err := p.checkFeasible([]float64{20, 2}); err == nil {
		t.Fatalf("LE violation accepted")
	}
	if err := p.checkFeasible([]float64{0, 2}); err == nil {
		t.Fatalf("GE violation accepted")
	}
	if err := p.checkFeasible([]float64{1, 3}); err == nil {
		t.Fatalf("EQ violation accepted")
	}
	if err := p.checkFeasible([]float64{-1, 2}); err == nil {
		t.Fatalf("negative variable accepted")
	}
}

func TestLargeScaleRelativeTolerance(t *testing.T) {
	// Feasibility checking must be relative: huge coefficients with tiny
	// relative error pass.
	p := NewProblem()
	x := p.AddVariable("x", 1)
	p.AddConstraint([]Term{{x, 1e12}}, LE, 1e12)
	if err := p.checkFeasible([]float64{1 + 1e-9}); err != nil {
		t.Fatalf("relative tolerance too strict: %v", err)
	}
}

func TestDualPairObjectives(t *testing.T) {
	// Weak duality smoke test: primal min c·x (Ax >= b, x >= 0) and its
	// dual max b·y (A^T y <= c, y >= 0) meet at the same value.
	// Primal: min 3x1 + 2x2 s.t. x1+x2 >= 4, x1 >= 1.
	p := NewProblem()
	x1 := p.AddVariable("x1", 3)
	x2 := p.AddVariable("x2", 2)
	p.AddConstraint([]Term{{x1, 1}, {x2, 1}}, GE, 4)
	p.AddConstraint([]Term{{x1, 1}}, GE, 1)
	ps, err := p.SolveFrom(nil)
	if err != nil {
		t.Fatal(err)
	}

	// Dual: max 4y1 + 1y2 s.t. y1+y2 <= 3, y1 <= 2 → min of negation.
	d := NewProblem()
	y1 := d.AddVariable("y1", -4)
	y2 := d.AddVariable("y2", -1)
	d.AddConstraint([]Term{{y1, 1}, {y2, 1}}, LE, 3)
	d.AddConstraint([]Term{{y1, 1}}, LE, 2)
	ds, err := d.SolveFrom(nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(value(p, ps)-(-value(d, ds))) > 1e-9 {
		t.Fatalf("duality gap: primal %v, dual %v", value(p, ps), -value(d, ds))
	}
}
