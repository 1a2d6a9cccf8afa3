package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/traffic"
)

// TestInsertionStatsAgainstGeneric pins the O(1) block-line-search
// evaluation against the generic WorstLoad: for random columns, indexes
// and replacement values, sFm1 + max(x, aF) must equal top-F of the
// column with entry skip set to x.
func TestInsertionStatsAgainstGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 500; trial++ {
		n := 3 + rng.Intn(30)
		v := make([]float64, n)
		for i := range v {
			if rng.Intn(4) == 0 {
				v[i] = 0
			} else {
				v[i] = rng.Float64() * 10
			}
		}
		F := 1 + rng.Intn(6)
		skip := rng.Intn(n)
		x := 0.0
		if rng.Intn(3) != 0 {
			x = rng.Float64() * 12
		}

		sFm1, aF := insertionStats(v, skip, F)
		got := sFm1 + math.Max(x, aF)

		cp := append([]float64(nil), v...)
		cp[skip] = x
		want := ArbitraryFailures{F: F}.WorstLoad(cp)
		if math.Abs(got-want) > 1e-9*(1+want) {
			t.Fatalf("trial %d (n=%d F=%d skip=%d x=%v): fast %v != generic %v\ncol=%v",
				trial, n, F, skip, x, got, want, v)
		}
	}
}

func TestInsertionStatsEdges(t *testing.T) {
	if s, a := insertionStats([]float64{1, 2, 3}, 0, 0); s != 0 || a != 0 {
		t.Fatalf("F=0: %v %v", s, a)
	}
	// All entries negative-or-zero except skip.
	s, a := insertionStats([]float64{-1, 0, 5}, 2, 2)
	if s != 0 || a != 0 {
		t.Fatalf("skip-only column: %v %v", s, a)
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("F>32 accepted")
		}
	}()
	insertionStats(make([]float64, 40), 0, 33)
}

// TestGroupStatsAgainstGeneric pins the K=1 group fast path: for random
// group structures and columns, max(0,sS,mSl+x) + max(0,sM,mMl+x) must
// equal GroupFailures{K:1}.WorstLoad with entry skip set to x.
func TestGroupStatsAgainstGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 300; trial++ {
		n := 4 + rng.Intn(20)
		mkGroups := func(count int) [][]graph.LinkID {
			var gs [][]graph.LinkID
			for i := 0; i < count; i++ {
				size := 1 + rng.Intn(4)
				seen := map[graph.LinkID]bool{}
				var grp []graph.LinkID
				for j := 0; j < size; j++ {
					id := graph.LinkID(rng.Intn(n))
					if !seen[id] {
						seen[id] = true
						grp = append(grp, id)
					}
				}
				gs = append(gs, grp)
			}
			return gs
		}
		m := GroupFailures{SRLGs: mkGroups(1 + rng.Intn(5)), MLGs: mkGroups(rng.Intn(3)), K: 1}
		col := make([]float64, n)
		for i := range col {
			col[i] = rng.Float64() * 5
		}
		skip := graph.LinkID(rng.Intn(n))
		x := rng.Float64() * 8

		// Fast path, restricted to a single "link e" column.
		pcol := make([]routing.SparseRow, 1)
		pcol[0].SetDense(col)
		sS := make([]float64, 1)
		mSl := make([]float64, 1)
		sM := make([]float64, 1)
		mMl := make([]float64, 1)
		zero := make([]float64, n)
		groupStats(m.SRLGs, pcol, skip, sS, mSl, zero)
		groupStats(m.MLGs, pcol, skip, sM, mMl, zero)
		srlg := math.Max(0, math.Max(sS[0], mSl[0]+x))
		mlg := math.Max(0, math.Max(sM[0], mMl[0]+x))
		got := srlg + mlg

		cp := append([]float64(nil), col...)
		cp[skip] = x
		want := m.WorstLoad(cp)
		if math.Abs(got-want) > 1e-9*(1+want) {
			t.Fatalf("trial %d: fast %v != generic %v (srlgs=%v mlgs=%v skip=%d x=%v col=%v)",
				trial, got, want, m.SRLGs, m.MLGs, skip, x, col)
		}
	}
}

func TestTernaryMinFindsMinimum(t *testing.T) {
	for _, tc := range []struct {
		f    func(float64) float64
		want float64
	}{
		{func(x float64) float64 { return (x - 0.3) * (x - 0.3) }, 0.3},
		{func(x float64) float64 { return x }, 0},
		{func(x float64) float64 { return -x }, 1},
		{func(x float64) float64 { return math.Abs(x - 0.85) }, 0.85},
	} {
		got := ternaryMin(func(a, b float64) (float64, float64) { return tc.f(a), tc.f(b) }, 40)
		if math.Abs(got-tc.want) > 1e-6 {
			t.Fatalf("ternaryMin = %v, want %v", got, tc.want)
		}
	}
}

func TestUnionCommoditiesAndDemandVector(t *testing.T) {
	g := ring5(t)
	d1 := ring5Demand(g, 50)
	d2 := ring5Demand(g, 80)
	comms := unionCommodities([]*traffic.Matrix{d1, d2})
	// Union support equals the full off-diagonal (gravity has full
	// support).
	n := g.NumNodes()
	if len(comms) != n*(n-1) {
		t.Fatalf("comms = %d, want %d", len(comms), n*(n-1))
	}
	v1 := demandVector(comms, d1)
	for k, c := range comms {
		if v1[k] != d1.At(c.Src, c.Dst) {
			t.Fatalf("demandVector mismatch at %d", k)
		}
	}
}
