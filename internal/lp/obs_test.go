package lp

import (
	"reflect"
	"testing"

	"repro/internal/obs"
)

// TestObsIsPassive: a registry sees the solve's fill telemetry and changes
// nothing about the solve — same point, same pivot count, same basis.
func TestObsIsPassive(t *testing.T) {
	p := gridFlowProblem(6)
	plain, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	p.Obs = reg
	seen, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.X, seen.X) || plain.Iterations != seen.Iterations || !reflect.DeepEqual(plain.Basis, seen.Basis) {
		t.Fatalf("a registry changed the solve: %d pivots without, %d with", plain.Iterations, seen.Iterations)
	}
	snap := reg.Snapshot()
	m := int64(len(p.cons))
	if lu, basis := snap.Gauges["lp.lu_nnz"], snap.Gauges["lp.basis_nnz"]; lu < m || basis < m {
		t.Fatalf("lp.lu_nnz = %d, lp.basis_nnz = %d; a %d-row basis holds at least %d of each", lu, basis, m, m)
	}
	if eta := snap.Counters["lp.eta_nnz"]; eta < int64(seen.Iterations) {
		t.Fatalf("lp.eta_nnz = %d after %d pivots", eta, seen.Iterations)
	}
}
