package lp_test

import (
	"testing"

	"repro/internal/lp"
	"repro/internal/mcf"
	"repro/internal/routing"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// TestAbileneRefactorsMatchDense holds every basis refactorized during the
// cold exact min-MLU solve on Abilene (1 436 rows, the LP behind r3d's
// certificate) against the dense oracle: nonsingular for both, FTRAN and
// BTRAN within 1e-9.
func TestAbileneRefactorsMatchDense(t *testing.T) {
	if testing.Short() {
		t.Skip("a few seconds of dense m×m sweeps")
	}
	g := topo.Abilene()
	d := traffic.Gravity(g, 0.15*g.TotalCapacity(), 1)
	comms := routing.ODCommodities(g.NumNodes(), d.At)
	bases := lp.HoldRefactorsToDense(t)
	if _, err := mcf.MinMLUExact(g, comms, mcf.Options{}); err != nil {
		t.Fatal(err)
	}
	if *bases < 20 {
		t.Fatalf("only %d bases refactorized", *bases)
	}
}
