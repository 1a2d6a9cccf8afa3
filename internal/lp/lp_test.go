package lp

import (
	"math"
	"math/rand"
	"testing"
)

// value is p's objective at sol's point, summed as SolveFrom sums it.
func value(p *Problem, sol *Solution) float64 {
	var v float64
	for j, c := range p.cost {
		v += c * sol.X[j]
	}
	return v
}

func solveOK(t *testing.T, p *Problem) *Solution {
	t.Helper()
	sol, err := p.SolveFrom(nil)
	if err != nil {
		t.Fatalf("Solve error: %v", err)
	}
	return sol
}

func TestSimpleMaximizeViaNegation(t *testing.T) {
	// max 3x+2y s.t. x+y<=4, x+3y<=6  => x=4,y=0, value 12.
	p := NewProblem()
	x := p.AddVariable("x", -3)
	y := p.AddVariable("y", -2)
	p.AddConstraint([]Term{{x, 1}, {y, 1}}, LE, 4)
	p.AddConstraint([]Term{{x, 1}, {y, 3}}, LE, 6)
	sol := solveOK(t, p)
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if math.Abs(value(p, sol)+12) > 1e-9 {
		t.Fatalf("value = %v, want -12", value(p, sol))
	}
	if math.Abs(sol.X[x]-4) > 1e-9 || math.Abs(sol.X[y]) > 1e-9 {
		t.Fatalf("x = %v", sol.X)
	}
}

func TestEqualityAndGE(t *testing.T) {
	// min x+2y s.t. x+y=10, x>=3, y>=2  => x=8,y=2, value 12.
	p := NewProblem()
	x := p.AddVariable("x", 1)
	y := p.AddVariable("y", 2)
	p.AddConstraint([]Term{{x, 1}, {y, 1}}, EQ, 10)
	p.AddConstraint([]Term{{x, 1}}, GE, 3)
	p.AddConstraint([]Term{{y, 1}}, GE, 2)
	sol := solveOK(t, p)
	if sol.Status != Optimal || math.Abs(value(p, sol)-12) > 1e-9 {
		t.Fatalf("status %v value %v", sol.Status, value(p, sol))
	}
	if math.Abs(sol.X[x]-8) > 1e-9 || math.Abs(sol.X[y]-2) > 1e-9 {
		t.Fatalf("x = %v", sol.X)
	}
}

func TestInfeasible(t *testing.T) {
	p := NewProblem()
	x := p.AddVariable("x", 1)
	p.AddConstraint([]Term{{x, 1}}, LE, 1)
	p.AddConstraint([]Term{{x, 1}}, GE, 2)
	sol := solveOK(t, p)
	if sol.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestUnbounded(t *testing.T) {
	p := NewProblem()
	x := p.AddVariable("x", -1) // maximize x
	y := p.AddVariable("y", 0)
	p.AddConstraint([]Term{{x, 1}, {y, -1}}, LE, 1)
	sol := solveOK(t, p)
	if sol.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", sol.Status)
	}
}

func TestNegativeRHSNormalization(t *testing.T) {
	// -x <= -5  means x >= 5; min x => 5.
	p := NewProblem()
	x := p.AddVariable("x", 1)
	p.AddConstraint([]Term{{x, -1}}, LE, -5)
	sol := solveOK(t, p)
	if sol.Status != Optimal || math.Abs(value(p, sol)-5) > 1e-9 {
		t.Fatalf("status %v value %v", sol.Status, value(p, sol))
	}
}

func TestDuplicateTermsSummed(t *testing.T) {
	p := NewProblem()
	x := p.AddVariable("x", 1)
	p.AddConstraint([]Term{{x, 1}, {x, 2}}, GE, 9) // 3x >= 9
	sol := solveOK(t, p)
	if math.Abs(value(p, sol)-3) > 1e-9 {
		t.Fatalf("value = %v, want 3", value(p, sol))
	}
}

func TestDegenerateTermination(t *testing.T) {
	// Classic degenerate LP (Beale-like structure); must terminate and be
	// optimal.
	p := NewProblem()
	x1 := p.AddVariable("x1", -0.75)
	x2 := p.AddVariable("x2", 150)
	x3 := p.AddVariable("x3", -0.02)
	x4 := p.AddVariable("x4", 6)
	p.AddConstraint([]Term{{x1, 0.25}, {x2, -60}, {x3, -0.04}, {x4, 9}}, LE, 0)
	p.AddConstraint([]Term{{x1, 0.5}, {x2, -90}, {x3, -0.02}, {x4, 3}}, LE, 0)
	p.AddConstraint([]Term{{x3, 1}}, LE, 1)
	sol := solveOK(t, p)
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if math.Abs(value(p, sol)-(-0.05)) > 1e-6 {
		t.Fatalf("value = %v, want -0.05", value(p, sol))
	}
}

func TestRedundantEqualityRows(t *testing.T) {
	// x+y=4 appears twice: redundant but consistent.
	p := NewProblem()
	x := p.AddVariable("x", 1)
	y := p.AddVariable("y", 1)
	p.AddConstraint([]Term{{x, 1}, {y, 1}}, EQ, 4)
	p.AddConstraint([]Term{{x, 1}, {y, 1}}, EQ, 4)
	sol := solveOK(t, p)
	if sol.Status != Optimal || math.Abs(value(p, sol)-4) > 1e-9 {
		t.Fatalf("status %v value %v", sol.Status, value(p, sol))
	}
}

func TestEmptyProblem(t *testing.T) {
	sol := solveOK(t, NewProblem())
	if sol.Status != Optimal {
		t.Fatalf("empty problem status = %v", sol.Status)
	}
}

func TestBadVariableIndex(t *testing.T) {
	p := NewProblem()
	p.AddVariable("x", 1)
	p.AddConstraint([]Term{{7, 1}}, LE, 1)
	if _, err := p.SolveFrom(nil); err == nil {
		t.Fatalf("bad index accepted")
	}
}

func TestMinCostFlowAsLP(t *testing.T) {
	// Min-cost unit flow on the diamond a->{b,c}->d, cost a->b->d = 2,
	// a->c->d = 3. Optimal cost 2.
	p := NewProblem()
	ab := p.AddVariable("ab", 1)
	ac := p.AddVariable("ac", 2)
	bd := p.AddVariable("bd", 1)
	cd := p.AddVariable("cd", 1)
	p.AddConstraint([]Term{{ab, 1}, {ac, 1}}, EQ, 1)  // out of a
	p.AddConstraint([]Term{{ab, 1}, {bd, -1}}, EQ, 0) // conservation at b
	p.AddConstraint([]Term{{ac, 1}, {cd, -1}}, EQ, 0) // conservation at c
	sol := solveOK(t, p)
	if math.Abs(value(p, sol)-2) > 1e-9 {
		t.Fatalf("value = %v, want 2", value(p, sol))
	}
	if math.Abs(sol.X[ab]-1) > 1e-9 {
		t.Fatalf("flow not on cheap path: %v", sol.X)
	}
}

// TestRandomLPsAgainstBruteForce cross-checks small random LPs against an
// exhaustive vertex enumeration solver.
func TestRandomLPsAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		// 2 variables, 3 <= constraints with positive rhs: always feasible
		// (x=0), bounded iff costs >= 0; use nonneg costs with one negative
		// sometimes bounded by constraints.
		p := NewProblem()
		c := []float64{rng.Float64()*4 - 2, rng.Float64()*4 - 2}
		x := p.AddVariable("x", c[0])
		y := p.AddVariable("y", c[1])
		rowsA := make([][2]float64, 3)
		rowsB := make([]float64, 3)
		for i := 0; i < 3; i++ {
			rowsA[i] = [2]float64{rng.Float64()*2 + 0.1, rng.Float64()*2 + 0.1}
			rowsB[i] = rng.Float64()*5 + 1
			p.AddConstraint([]Term{{x, rowsA[i][0]}, {y, rowsA[i][1]}}, LE, rowsB[i])
		}
		sol := solveOK(t, p)
		if sol.Status != Optimal {
			// With all-positive constraint coefficients the polytope is
			// bounded, so the LP must be optimal.
			t.Fatalf("trial %d: status %v", trial, sol.Status)
		}
		// Brute force over vertices: intersections of pairs of active
		// constraints plus axes.
		best := math.Inf(1)
		check := func(vx, vy float64) {
			if vx < -1e-9 || vy < -1e-9 {
				return
			}
			for i := 0; i < 3; i++ {
				if rowsA[i][0]*vx+rowsA[i][1]*vy > rowsB[i]+1e-7 {
					return
				}
			}
			if v := c[0]*vx + c[1]*vy; v < best {
				best = v
			}
		}
		check(0, 0)
		for i := 0; i < 3; i++ {
			check(rowsB[i]/rowsA[i][0], 0)
			check(0, rowsB[i]/rowsA[i][1])
			for j := i + 1; j < 3; j++ {
				det := rowsA[i][0]*rowsA[j][1] - rowsA[i][1]*rowsA[j][0]
				if math.Abs(det) < 1e-12 {
					continue
				}
				vx := (rowsB[i]*rowsA[j][1] - rowsA[i][1]*rowsB[j]) / det
				vy := (rowsA[i][0]*rowsB[j] - rowsB[i]*rowsA[j][0]) / det
				check(vx, vy)
			}
		}
		if math.Abs(value(p, sol)-best) > 1e-6*(1+math.Abs(best)) {
			t.Fatalf("trial %d: simplex %v, brute force %v", trial, value(p, sol), best)
		}
	}
}

func TestSolveIsRepeatable(t *testing.T) {
	p := NewProblem()
	x := p.AddVariable("x", 1)
	p.AddConstraint([]Term{{x, 1}}, GE, 2)
	a := solveOK(t, p)
	b := solveOK(t, p)
	if value(p, a) != value(p, b) {
		t.Fatalf("re-solve differs: %v vs %v", value(p, a), value(p, b))
	}
	// Modify and re-solve.
	p.cost[x] = 5
	c := solveOK(t, p)
	if math.Abs(value(p, c)-10) > 1e-9 {
		t.Fatalf("after a cost change value = %v", value(p, c))
	}
}

func TestStatusString(t *testing.T) {
	for s, want := range map[Status]string{
		Optimal: "optimal", Infeasible: "infeasible",
		Unbounded: "unbounded", IterLimit: "iteration limit",
		Status(9): "Status(9)",
	} {
		if s.String() != want {
			t.Fatalf("Status(%d).String() = %q", int(s), s)
		}
	}
}

func BenchmarkSimplexMedium(b *testing.B) {
	// A 60-variable, 40-constraint random dense LP.
	rng := rand.New(rand.NewSource(3))
	build := func() *Problem {
		p := NewProblem()
		for j := 0; j < 60; j++ {
			p.AddVariable("", rng.Float64())
		}
		for i := 0; i < 40; i++ {
			terms := make([]Term, 60)
			for j := 0; j < 60; j++ {
				terms[j] = Term{j, rng.Float64()}
			}
			p.AddConstraint(terms, GE, 1+rng.Float64())
		}
		return p
	}
	p := build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.SolveFrom(nil); err != nil {
			b.Fatal(err)
		}
	}
}
