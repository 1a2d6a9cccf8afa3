package lp

import (
	"errors"
	"math"
	"strings"
	"testing"
)

var errInjected = errors.New("injected verification failure")

// transportProblem builds a small min-cost transport LP whose rhs (the
// supply) is a parameter, so warm re-solves after rhs-only changes can
// be exercised.
func transportProblem(supply float64) *Problem {
	p := NewProblem()
	ab := p.AddVariable("ab", 1)
	ac := p.AddVariable("ac", 2)
	bd := p.AddVariable("bd", 1)
	cd := p.AddVariable("cd", 1)
	p.AddConstraint([]Term{{ab, 1}, {ac, 1}}, EQ, supply)
	p.AddConstraint([]Term{{ab, 1}, {bd, -1}}, EQ, 0)
	p.AddConstraint([]Term{{ac, 1}, {cd, -1}}, EQ, 0)
	p.AddConstraint([]Term{{ab, 1}}, LE, 0.75) // cheap arc capacity
	return p
}

func TestSolveFromSameProblemIsPivotFree(t *testing.T) {
	p := transportProblem(1)
	cold, err := p.SolveFrom(nil)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Basis == nil {
		t.Fatalf("optimal solve returned nil basis")
	}
	warm, err := p.SolveFrom(cold.Basis)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.WarmStarted {
		t.Fatalf("warm solve fell back cold")
	}
	if warm.Iterations != 0 {
		t.Fatalf("re-solve from the optimal basis took %d pivots", warm.Iterations)
	}
	if value(p, warm) != value(p, cold) {
		t.Fatalf("warm value %v != cold value %v", value(p, warm), value(p, cold))
	}
}

func TestSolveFromRHSChangeMatchesColdWithFewerPivots(t *testing.T) {
	base, err := transportProblem(1).SolveFrom(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, supply := range []float64{0.5, 0.9, 1.25, 1.5} {
		q := transportProblem(supply)
		cold, err := q.SolveFrom(nil)
		if err != nil {
			t.Fatal(err)
		}
		warm, err := q.SolveFrom(base.Basis)
		if err != nil {
			t.Fatal(err)
		}
		if !warm.WarmStarted {
			t.Fatalf("supply %v: warm solve fell back cold", supply)
		}
		if math.Abs(value(q, warm)-value(q, cold)) > 1e-9*(1+math.Abs(value(q, cold))) {
			t.Fatalf("supply %v: warm value %v != cold value %v", supply, value(q, warm), value(q, cold))
		}
		if warm.Iterations > cold.Iterations {
			t.Fatalf("supply %v: warm took %d pivots, cold %d", supply, warm.Iterations, cold.Iterations)
		}
		if err := q.checkFeasible(warm.X); err != nil {
			t.Fatalf("supply %v: warm solution infeasible: %v", supply, err)
		}
	}
}

func TestSolveFromMismatchedBasisFallsBackCold(t *testing.T) {
	other, err := transportProblem(1).SolveFrom(nil)
	if err != nil {
		t.Fatal(err)
	}
	// A problem with a different shape must ignore the basis entirely.
	p := NewProblem()
	x := p.AddVariable("x", 1)
	p.AddConstraint([]Term{{x, 1}}, GE, 3)
	sol, err := p.SolveFrom(other.Basis)
	if err != nil {
		t.Fatal(err)
	}
	if sol.WarmStarted {
		t.Fatalf("mismatched basis accepted as warm start")
	}
	if sol.Status != Optimal || math.Abs(value(p, sol)-3) > 1e-9 {
		t.Fatalf("fallback cold solve wrong: %v %v", sol.Status, value(p, sol))
	}
}

func TestSolveFromNeverDeclaresInfeasibleWarm(t *testing.T) {
	// Push the rhs far from the warm basis: the dual simplex (or the cold
	// fallback) must still land on the true optimum, never a spurious
	// Infeasible.
	base, err := transportProblem(1).SolveFrom(nil)
	if err != nil {
		t.Fatal(err)
	}
	q := transportProblem(40) // cheap arc saturates; everything else via ac
	sol, err := q.SolveFrom(base.Basis)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status %v", sol.Status)
	}
	want := 0.75*2 + 39.25*3 // ab+bd for 0.75 units, ac+cd for the rest
	if math.Abs(value(q, sol)-want) > 1e-6 {
		t.Fatalf("value %v, want %v", value(q, sol), want)
	}
}

func TestRecoveryRepairsCorruptedBasics(t *testing.T) {
	// Whitebox: emulate eta-file drift by corrupting the basic values
	// after a successful solve, then ask the solver to recover. This is
	// the path Solve takes instead of erroring when verification fails.
	p := transportProblem(1)
	sf, err := buildStdForm(p)
	if err != nil {
		t.Fatal(err)
	}
	s := newSolver(sf, 10000, nil)
	st, _, err := s.cold()
	if st != Optimal || err != nil {
		t.Fatalf("cold solve: %v %v", st, err)
	}
	x := make([]float64, sf.n)
	for i := range s.xB {
		s.xB[i] += 0.4 // drift far past every tolerance
	}
	s.extract(x)
	if p.checkFeasible(x) == nil {
		t.Fatalf("corrupted point passed verification")
	}
	if !s.recover(0) {
		t.Fatalf("recover failed")
	}
	s.extract(x)
	if err := p.checkFeasible(x); err != nil {
		t.Fatalf("recovered point infeasible: %v", err)
	}
	if s.recoveries != 1 {
		t.Fatalf("recoveries = %d, want 1", s.recoveries)
	}
}

func TestSolveRecoversFromTransientVerificationFailure(t *testing.T) {
	// Force one verification failure through the test hook: Solve must
	// recover and return Optimal instead of the old hard error.
	failures := 1
	testVerify = func(p *Problem, x []float64) error {
		if failures > 0 {
			failures--
			return errInjected
		}
		return p.checkFeasible(x)
	}
	defer func() { testVerify = nil }()
	sol, err := transportProblem(1).SolveFrom(nil)
	if err != nil {
		t.Fatalf("transient verification failure not recovered: %v", err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status %v", sol.Status)
	}
	if sol.Recoveries != 1 {
		t.Fatalf("Recoveries = %d, want 1", sol.Recoveries)
	}
}

func TestVerificationErrorOnlyAfterRecoveryAttempts(t *testing.T) {
	// With verification always failing, the terminal error must report
	// that recovery was attempted first — the hard-failure path is
	// unreachable without it.
	testVerify = func(*Problem, []float64) error { return errInjected }
	defer func() { testVerify = nil }()
	sol, err := transportProblem(1).SolveFrom(nil)
	if err == nil {
		t.Fatalf("persistent verification failure returned no error")
	}
	if !strings.Contains(err.Error(), "recovery attempts") {
		t.Fatalf("error %q does not mention recovery attempts", err)
	}
	if sol.Recoveries != maxRecoveries {
		t.Fatalf("Recoveries = %d, want %d", sol.Recoveries, maxRecoveries)
	}
}

func TestBadlyScaledProblemSolves(t *testing.T) {
	// Gbps capacities next to unit demand fractions: min u subject to
	// f1+f2 = 1, 5e8·f1 <= 1e9·u, 5e8·f2 <= 4e9·u. Optimum balances the
	// two links: f1 = 0.2, u = 0.1. The old absolute tolerances were not
	// scale-aware; equilibration plus the relative checks must handle
	// this without drama.
	p := NewProblem()
	u := p.AddVariable("u", 1)
	f1 := p.AddVariable("f1", 0)
	f2 := p.AddVariable("f2", 0)
	p.AddConstraint([]Term{{f1, 1}, {f2, 1}}, EQ, 1)
	p.AddConstraint([]Term{{f1, 5e8}, {u, -1e9}}, LE, 0)
	p.AddConstraint([]Term{{f2, 5e8}, {u, -4e9}}, LE, 0)
	sol, err := p.SolveFrom(nil)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || math.Abs(value(p, sol)-0.1) > 1e-9 {
		t.Fatalf("status %v value %v, want optimal 0.1", sol.Status, value(p, sol))
	}
}

func TestCheckFeasibleScaleAwareNegativity(t *testing.T) {
	p := NewProblem()
	x := p.AddVariable("x", 1)
	y := p.AddVariable("y", 1)
	p.AddConstraint([]Term{{x, 1}, {y, 1}}, LE, 2e9)
	// -1 absolute is far under the old -1e-5 cutoff but is tolerance-level
	// relative to a 1e9-scale solution; the scale-aware check accepts it.
	if err := p.checkFeasible([]float64{-1, 1e9}); err != nil {
		t.Fatalf("scale-aware negativity rejected tolerance-level value: %v", err)
	}
	// At unit scale the same -1 is a gross violation.
	if err := p.checkFeasible([]float64{-1, 1}); err == nil {
		t.Fatalf("unit-scale negative accepted")
	}
}

func TestSolveFromIsDeterministic(t *testing.T) {
	base, err := transportProblem(1).SolveFrom(nil)
	if err != nil {
		t.Fatal(err)
	}
	q := transportProblem(1.5)
	a, err := q.SolveFrom(base.Basis)
	if err != nil {
		t.Fatal(err)
	}
	b, err := q.SolveFrom(base.Basis)
	if err != nil {
		t.Fatal(err)
	}
	if value(q, a) != value(q, b) || a.Iterations != b.Iterations {
		t.Fatalf("warm re-solve not deterministic: (%v,%d) vs (%v,%d)", value(q, a), a.Iterations, value(q, b), b.Iterations)
	}
	for j := range a.X {
		if a.X[j] != b.X[j] {
			t.Fatalf("X[%d] differs: %v vs %v", j, a.X[j], b.X[j])
		}
	}
}
