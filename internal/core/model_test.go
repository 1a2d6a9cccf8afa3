package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/topo"
)

func TestSumTopKAgainstSort(t *testing.T) {
	f := func(raw []float64, kRaw uint8) bool {
		v := make([]float64, len(raw))
		for i, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				x = 0
			}
			v[i] = math.Mod(math.Abs(x), 1000)
		}
		k := int(kRaw%40) + 1
		got := sumTopK(v, k, nil)
		sorted := append([]float64(nil), v...)
		sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
		var want float64
		for i := 0; i < k && i < len(sorted); i++ {
			if sorted[i] > 0 {
				want += sorted[i]
			}
		}
		return math.Abs(got-want) <= 1e-9*(1+want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSumTopKMarks(t *testing.T) {
	v := []float64{5, 1, 9, 0, 7, 3}
	mark := make([]float64, len(v))
	got := sumTopK(v, 3, mark)
	if got != 21 {
		t.Fatalf("sum = %v, want 21", got)
	}
	wantMark := []float64{1, 0, 1, 0, 1, 0}
	for i := range wantMark {
		if mark[i] != wantMark[i] {
			t.Fatalf("mark = %v", mark)
		}
	}
}

func TestSumTopKEdgeCases(t *testing.T) {
	if sumTopK(nil, 3, nil) != 0 {
		t.Fatalf("nil slice")
	}
	if sumTopK([]float64{1, 2}, 0, nil) != 0 {
		t.Fatalf("k=0")
	}
	if sumTopK([]float64{1, 2}, 5, nil) != 3 {
		t.Fatalf("k > len")
	}
	// Negative entries never contribute.
	if sumTopK([]float64{-5, 2, -1}, 2, nil) != 2 {
		t.Fatalf("negatives counted")
	}
	// Large k path (k > 32 triggers the sort fallback).
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i)
	}
	want := 0.0
	for i := 60; i < 100; i++ {
		want += float64(i)
	}
	if got := sumTopK(v, 40, nil); got != want {
		t.Fatalf("k=40: got %v want %v", got, want)
	}
}

func TestArbitraryFailuresModel(t *testing.T) {
	m := ArbitraryFailures{F: 2}
	v := []float64{4, 1, 3, 2}
	if got := m.WorstLoad(v); got != 7 {
		t.Fatalf("WorstLoad = %v, want 7", got)
	}
	y := make([]float64, 4)
	m.ActiveSet(v, y)
	if y[0] != 1 || y[2] != 1 || y[1] != 0 || y[3] != 0 {
		t.Fatalf("ActiveSet = %v", y)
	}
	if m.MaxFailures() != 2 {
		t.Fatalf("MaxFailures = %d", m.MaxFailures())
	}
}

func TestGroupFailuresModel(t *testing.T) {
	m := GroupFailures{
		SRLGs: [][]graph.LinkID{{0, 1}, {2}, {3}},
		MLGs:  [][]graph.LinkID{{4, 5}, {6}},
		K:     1,
	}
	v := []float64{3, 4, 10, 1, 2, 2, 5}
	// Best SRLG: {2} with 10 (vs {0,1}=7). Best MLG: {4,5} = 4 vs {6} = 5.
	if got := m.WorstLoad(v); got != 15 {
		t.Fatalf("WorstLoad = %v, want 15", got)
	}
	y := make([]float64, 7)
	m.ActiveSet(v, y)
	want := []float64{0, 0, 1, 0, 0, 0, 1}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("ActiveSet = %v", y)
		}
	}
	// MaxFailures: largest SRLG (2 links) + largest MLG (2 links) = 3?
	// K=1 takes the single largest SRLG {0,1} (2 links) + MLG {4,5} (2).
	if got := m.MaxFailures(); got != 4 {
		t.Fatalf("MaxFailures = %d, want 4", got)
	}
}

// groupWorstOracle is GroupFailures.worst as it was before the insertion
// buffer: every SRLG sum in two fresh slices, sort.Slice, the first K
// positive ones. It is the oracle worst is held to.
func groupWorstOracle(m GroupFailures, v []float64, mark []float64) float64 {
	val := func(grp []graph.LinkID) float64 {
		var s float64
		for _, l := range grp {
			if int(l) < len(v) && v[l] > 0 {
				s += v[l]
			}
		}
		return s
	}
	vals := make([]float64, len(m.SRLGs))
	idx := make([]int, len(m.SRLGs))
	for i, grp := range m.SRLGs {
		vals[i] = val(grp)
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return vals[idx[a]] > vals[idx[b]] })
	var total float64
	for i := 0; i < m.K && i < len(idx); i++ {
		gi := idx[i]
		if vals[gi] <= 0 {
			break
		}
		total += vals[gi]
		if mark != nil {
			for _, l := range m.SRLGs[gi] {
				if int(l) < len(mark) {
					mark[l] = 1
				}
			}
		}
	}
	bestV, bestI := 0.0, -1
	for i, grp := range m.MLGs {
		if s := val(grp); s > bestV {
			bestV, bestI = s, i
		}
	}
	if bestI >= 0 {
		total += bestV
		if mark != nil {
			for _, l := range m.MLGs[bestI] {
				if int(l) < len(mark) {
					mark[l] = 1
				}
			}
		}
	}
	return total
}

// TestGroupFailuresMatchesSortOracle holds WorstLoad and ActiveSet to the
// sort.Slice oracle, bit for bit, on the US-ISP SRLGs and MLGs with K from
// 1 to 40, on columns whose few distinct values make group sums tie —
// inside the top K and across the K-th place, where the marks must follow
// sort.Slice's choice — and on sparse random columns. WorstLoad allocates
// nothing for K <= 32.
func TestGroupFailuresMatchesSortOracle(t *testing.T) {
	g := topo.USISP()
	nL := g.NumLinks()
	rng := rand.New(rand.NewSource(16))
	v := make([]float64, nL)
	y, want := make([]float64, nL), make([]float64, nL)
	ties := 0
	for _, k := range []int{1, 2, 3, 5, 33, 40} {
		m := ModelFromGraph(g, k)
		for trial := 0; trial < 300; trial++ {
			for l := range v {
				v[l] = 0
				switch r := rng.Intn(4); {
				case trial%2 == 0 && r == 0:
					v[l] = float64(1 + rng.Intn(3)) // few values: tied sums
				case trial%2 == 1 && r == 0:
					v[l] = rng.ExpFloat64()
				}
			}
			got, w := m.WorstLoad(v), groupWorstOracle(m, v, nil)
			if math.Float64bits(got) != math.Float64bits(w) {
				t.Fatalf("K=%d trial %d: WorstLoad %v, oracle %v", k, trial, got, w)
			}
			clear(want)
			groupWorstOracle(m, v, want)
			m.ActiveSet(v, y)
			for l := range y {
				if y[l] != want[l] {
					t.Fatalf("K=%d trial %d: ActiveSet[%d] = %v, oracle %v", k, trial, l, y[l], want[l])
				}
			}
			if _, ok := m.topSRLGs(v, y); !ok && k <= 32 {
				ties++
			}
		}
		if k <= 32 {
			if n := testing.AllocsPerRun(20, func() { m.WorstLoad(v) }); n != 0 {
				t.Fatalf("K=%d: WorstLoad allocates %v times", k, n)
			}
		}
	}
	if ties == 0 {
		t.Fatal("no column tied across the K-th place: the marks' fallback is untested")
	}
}

func TestGroupFailuresK2(t *testing.T) {
	m := GroupFailures{
		SRLGs: [][]graph.LinkID{{0}, {1}, {2}},
		K:     2,
	}
	v := []float64{3, 5, 4}
	if got := m.WorstLoad(v); got != 9 {
		t.Fatalf("WorstLoad = %v, want 9 (top-2 groups)", got)
	}
}

func TestGroupFailuresEmpty(t *testing.T) {
	m := GroupFailures{K: 3}
	if m.WorstLoad([]float64{1, 2}) != 0 {
		t.Fatalf("empty model has nonzero worst load")
	}
	if m.MaxFailures() != 0 {
		t.Fatalf("empty model MaxFailures != 0")
	}
}

func TestModelFromGraph(t *testing.T) {
	g := graph.New("g")
	a := g.AddNode("a")
	b := g.AddNode("b")
	c := g.AddNode("c")
	ab, ba := g.AddDuplex(a, b, 1, 1, 1)
	bc, cb := g.AddDuplex(b, c, 1, 1, 1)
	g.AddSRLG(ab, ba)
	g.AddMLG(bc, cb)
	m := ModelFromGraph(g, 2)
	if len(m.SRLGs) != 1 || len(m.MLGs) != 1 || m.K != 2 {
		t.Fatalf("model = %+v", m)
	}
}

func TestArbitraryModelRandomizedSubgradient(t *testing.T) {
	// ActiveSet must be a maximizer: sum(y*v) == WorstLoad.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		n := 5 + rng.Intn(30)
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.Float64() * 10
		}
		m := ArbitraryFailures{F: 1 + rng.Intn(5)}
		y := make([]float64, n)
		m.ActiveSet(v, y)
		var dot float64
		for i := range v {
			dot += y[i] * v[i]
		}
		if math.Abs(dot-m.WorstLoad(v)) > 1e-9 {
			t.Fatalf("trial %d: subgradient %v != worst %v", trial, dot, m.WorstLoad(v))
		}
	}
}
