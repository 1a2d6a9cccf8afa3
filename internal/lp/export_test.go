package lp

import (
	"math/rand"
	"testing"
)

// HoldRefactorsToDense makes every basis that any solve refactorizes,
// for the rest of the test, also go through holdToDense, and counts them
// in *bases. It exists for the tests in package lp_test, which may import
// the packages that build real LPs on top of this one.
func HoldRefactorsToDense(t testing.TB) (bases *int) {
	rng := rand.New(rand.NewSource(1))
	bases = new(int)
	testRefactor = func(sf *stdForm, basis []int) {
		if !holdToDense(t, sf, basis, rng) {
			t.Fatalf("basis %d of the solve judged singular", *bases)
		}
		*bases++
	}
	t.Cleanup(func() { testRefactor = nil })
	return bases
}
