package traffic

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/topo"
)

func TestMatrixSetAt(t *testing.T) {
	m := NewMatrix(3)
	m.Set(0, 1, 5)
	m.Set(2, 1, 7)
	if m.At(0, 1) != 5 || m.At(2, 1) != 7 || m.At(1, 0) != 0 {
		t.Fatalf("At/Set mismatch")
	}
	if m.Total() != 12 {
		t.Fatalf("Total = %v", m.Total())
	}
	if n := numPairs(m); n != 2 {
		t.Fatalf("pairs = %d", n)
	}
}

func TestMatrixDiagonalPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("diagonal Set did not panic")
		}
	}()
	NewMatrix(2).Set(1, 1, 3)
}

func TestMatrixNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("negative Set did not panic")
		}
	}()
	NewMatrix(2).Set(0, 1, -1)
}

func TestMatrixArithmetic(t *testing.T) {
	a := NewMatrix(2)
	a.Set(0, 1, 4)
	b := NewMatrix(2)
	b.Set(0, 1, 1)
	sum := a.Add(b)
	if sum.At(0, 1) != 5 {
		t.Fatalf("Add = %v", sum.At(0, 1))
	}
	// Original unchanged.
	if a.At(0, 1) != 4 {
		t.Fatalf("Add mutated receiver")
	}
	a.Scale(0.5)
	if a.At(0, 1) != 2 {
		t.Fatalf("Scale = %v", a.At(0, 1))
	}
	cp := a.Clone()
	cp.Set(0, 1, 9)
	if a.At(0, 1) != 2 {
		t.Fatalf("Clone shares storage")
	}
}

func TestGravityTotalAndSupport(t *testing.T) {
	g := topo.Abilene()
	m := Gravity(g, 500, 1)
	if math.Abs(m.Total()-500) > 1e-6 {
		t.Fatalf("Total = %v, want 500", m.Total())
	}
	// Gravity model has full support off the diagonal.
	n := g.NumNodes()
	if got := numPairs(m); got != n*(n-1) {
		t.Fatalf("pairs = %d, want %d", got, n*(n-1))
	}
	for a := 0; a < n; a++ {
		if m.At(graph.NodeID(a), graph.NodeID(a)) != 0 {
			t.Fatalf("diagonal not zero")
		}
	}
}

func TestGravityDeterministic(t *testing.T) {
	g := topo.SBC()
	a := Gravity(g, 100, 7)
	b := Gravity(g, 100, 7)
	c := Gravity(g, 100, 8)
	same, diff := true, false
	a.Pairs(func(x, y graph.NodeID, v float64) {
		if b.At(x, y) != v {
			same = false
		}
		if c.At(x, y) != v {
			diff = true
		}
		_ = diff
	})
	if !same {
		t.Fatalf("same seed produced different matrices")
	}
	if c.At(0, 1) == a.At(0, 1) {
		t.Fatalf("different seeds produced identical entry")
	}
}

func TestDiurnalSeries(t *testing.T) {
	g := topo.USISP()
	base := Gravity(g, 1000, 3)
	series := DiurnalSeries(base, 168, 4)
	if len(series) != 168 {
		t.Fatalf("len = %d", len(series))
	}
	// The trough must be meaningfully below the peak.
	lo, hi := math.Inf(1), 0.0
	for _, m := range series {
		tt := m.Total()
		if tt < lo {
			lo = tt
		}
		if tt > hi {
			hi = tt
		}
	}
	if hi/lo < 1.5 {
		t.Fatalf("diurnal swing too small: lo=%v hi=%v", lo, hi)
	}
	// Peak hours are in the evening (hour of day 16..23).
	pk := PeakIndex(series)
	if hod := pk % 24; hod < 14 {
		t.Errorf("peak at hour-of-day %d, expected evening", hod)
	}
}

func TestSplitClasses(t *testing.T) {
	g := topo.USISP()
	total := Gravity(g, 1000, 5)
	classes := SplitClasses(total, 0.1, 0.2, 6)
	sum := classes[TPRT].Add(classes[TPP]).Add(classes[IP])
	total.Pairs(func(a, b graph.NodeID, v float64) {
		if math.Abs(sum.At(a, b)-v) > 1e-9*v {
			t.Fatalf("classes do not sum to total at %d->%d: %v vs %v", a, b, sum.At(a, b), v)
		}
	})
	// TPRT is the smallest class overall.
	if classes[TPRT].Total() >= classes[IP].Total() {
		t.Errorf("TPRT (%v) should be far smaller than IP (%v)",
			classes[TPRT].Total(), classes[IP].Total())
	}
}

func TestSplitClassesBadFractions(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("bad fractions did not panic")
		}
	}()
	SplitClasses(NewMatrix(2), 0.8, 0.5, 1)
}

func TestClassString(t *testing.T) {
	if TPRT.String() != "TPRT" || TPP.String() != "TPP" || IP.String() != "IP" {
		t.Fatalf("Class.String wrong")
	}
	if Class(9).String() != "Class(9)" {
		t.Fatalf("unknown class string: %s", Class(9))
	}
}

func TestScaleQuickNonNegative(t *testing.T) {
	f := func(vals []float64, scale float64) bool {
		scale = math.Abs(scale)
		if math.IsNaN(scale) || math.IsInf(scale, 0) {
			return true
		}
		m := NewMatrix(4)
		i := 0
		for a := 0; a < 4 && i < len(vals); a++ {
			for b := 0; b < 4 && i < len(vals); b++ {
				if a == b {
					continue
				}
				v := math.Abs(vals[i])
				if math.IsNaN(v) || math.IsInf(v, 0) {
					v = 1
				}
				m.Set(graph.NodeID(a), graph.NodeID(b), v)
				i++
			}
		}
		m.Scale(scale)
		neg := false
		m.Pairs(func(a, b graph.NodeID, v float64) {
			if v < 0 {
				neg = true
			}
		})
		return !neg
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestGravityTopK pins the sparse gravity contract: exactly k pairs in
// the support, total preserved, the support is the k heaviest dense
// pairs, and the result is deterministic per seed.
func TestGravityTopK(t *testing.T) {
	g := topo.Abilene()
	const total, seed, k = 500.0, 3, 12
	dense := Gravity(g, total, seed)
	sparse := GravityTopK(g, total, seed, k)
	if got := numPairs(sparse); got != k {
		t.Fatalf("support = %d pairs, want %d", got, k)
	}
	if math.Abs(sparse.Total()-total) > 1e-9*total {
		t.Fatalf("total = %v, want %v", sparse.Total(), total)
	}
	// Every kept pair must be at least as heavy (pre-rescale) as every
	// dropped pair.
	minKept, maxDropped := math.Inf(1), 0.0
	for a := 0; a < dense.N; a++ {
		for b := 0; b < dense.N; b++ {
			if a == b {
				continue
			}
			dv := dense.At(graph.NodeID(a), graph.NodeID(b))
			if sparse.At(graph.NodeID(a), graph.NodeID(b)) > 0 {
				if dv < minKept {
					minKept = dv
				}
			} else if dv > maxDropped {
				maxDropped = dv
			}
		}
	}
	if minKept < maxDropped {
		t.Fatalf("kept pair weight %v below dropped pair weight %v", minKept, maxDropped)
	}
	if GravityTopK(g, total, seed, k).Fingerprint() != sparse.Fingerprint() {
		t.Fatal("GravityTopK not deterministic")
	}
	// k past the support degenerates to the dense matrix.
	if GravityTopK(g, total, seed, 0).Fingerprint() != dense.Fingerprint() {
		t.Fatal("k<=0 should return the dense gravity matrix")
	}
}

// numPairs counts the OD pairs with nonzero demand.
func numPairs(m *Matrix) int {
	n := 0
	m.Pairs(func(a, b graph.NodeID, v float64) { n++ })
	return n
}
