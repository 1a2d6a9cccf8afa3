package core

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/routing"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// TestColTopRandomizedDifferential drives a colTop through long random
// update sequences — the exact workload of the p block sweep — and after
// every mutation checks worstArb and stats against the reference scans
// (sumTopK, insertionStats) on the full column, and the knapsack walks
// (worstKnap, worstKnapAt) against DegradationModel's sort-based reference
// on the materialized column. Any drift in the incremental maintenance
// would surface here bit for bit.
func TestColTopRandomizedDifferential(t *testing.T) {
	for seed := int64(0); seed < 9; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		nL := 20 + int(seed)*13
		maxF := 1 + int(seed)%4
		K := maxF + 1
		// The last seeds run sparse columns — what pcol looks like in the
		// solver — so buffers run short, empty out, and hold only the
		// probed index.
		sparse := seed >= 6
		col := make([]float64, nL)
		for l := range col {
			// Mix of zeros, duplicates and distinct positives: ties exercise
			// the (value desc, index asc) total order.
			if sparse && rng.Intn(25) != 0 {
				continue
			}
			switch rng.Intn(4) {
			case 0:
				col[l] = 0
			case 1:
				col[l] = 5
			default:
				col[l] = rng.Float64() * 10
			}
		}
		var top colTop
		top.rebuild(col, K)
		// One buffer per knapsack model, each at its tight capacity
		// (walk length + 1), maintained in lockstep with top.
		knaps := newKnapCases(t, col)
		krng := rand.New(rand.NewSource(700 + seed)) // leaves rng's update sequence as it was

		check := func(step int) {
			t.Helper()
			for i := range knaps {
				knaps[i].check(t, krng, col, seed, step)
			}
			for F := 1; F <= maxF; F++ {
				if F < nL {
					if got, want := top.worstArb(F), sumTopK(col, F, nil); got != want {
						t.Fatalf("seed %d step %d F=%d: worstArb %v, sumTopK %v", seed, step, F, got, want)
					}
				}
				for trial := 0; trial < 4; trial++ {
					skip := rng.Intn(nL)
					s1, a1 := top.stats(int32(skip), F)
					s2, a2 := insertionStats(col, skip, F)
					if s1 != s2 || a1 != a2 {
						t.Fatalf("seed %d step %d F=%d skip=%d: stats (%v,%v), reference (%v,%v)",
							seed, step, F, skip, s1, a1, s2, a2)
					}
				}
			}
		}
		check(-1)
		for step := 0; step < 600; step++ {
			l := rng.Intn(nL)
			var nv float64
			mode := rng.Intn(5)
			if sparse && rng.Intn(25) != 0 {
				mode = 0
			}
			switch mode {
			case 0:
				nv = 0 // drop to inactive
			case 1:
				nv = col[l] // no-op value (a real case: gamma = 0 rejected move)
			case 2:
				nv = 5 // collide with the duplicate plateau
			default:
				nv = rng.Float64() * 10
			}
			col[l] = nv
			if !top.update(int32(l), nv, K) {
				top.rebuild(col, K)
			}
			for i := range knaps {
				kc := &knaps[i]
				if step%97 == 96 {
					// The epoch-boundary refresh, from the column's entries as
					// the solver holds them.
					var sp routing.SparseRow
					sp.SetDense(col)
					kc.top.rebuildSparse(&sp, kc.K)
				} else if !kc.top.update(int32(l), nv, kc.K) {
					kc.top.rebuild(col, kc.K)
				}
			}
			check(step)
		}
	}
}

// knapCase is one uniform-β degradation model riding a colTop of its own
// in TestColTopRandomizedDifferential.
type knapCase struct {
	m   DegradationModel
	u   []float64
	K   int
	top colTop
}

// newKnapCases covers β = 1 (the exact-add limit), dyadic and non-dyadic β
// (repeated subtraction leaves a rounding residue that becomes one more
// tiny step), fractional budgets, and anchor-wins models (β·steps < 1).
func newKnapCases(t *testing.T, col []float64) []knapCase {
	t.Helper()
	var cases []knapCase
	for _, beta := range []float64{1, 0.5, 0.3, 0.1} {
		for _, budget := range []float64{0.35, 1, 1.5, 2, 2.75} {
			m := DegradationModel{Beta: beta, Budget: budget}
			var ub [knapMaxSteps]float64
			n, ok := m.knapSteps(&ub)
			if !ok || n == 0 {
				t.Fatalf("%v: knapSteps = (%d, %v), want a short walk", m, n, ok)
			}
			kc := knapCase{m: m, u: append([]float64(nil), ub[:n]...), K: n + 1}
			kc.top.rebuild(col, kc.K)
			cases = append(cases, kc)
		}
	}
	return cases
}

// check holds the buffer's two knapsack walks to the reference on the
// materialized column, bit for bit: worstKnap against the column as is,
// worstKnapAt against the column with one entry replaced by a probe value
// (zero, unchanged, ranked first, ranked last, tied with the plateau,
// random).
func (kc *knapCase) check(t *testing.T, rng *rand.Rand, col []float64, seed int64, step int) {
	t.Helper()
	same := func(what string, got float64, v []float64) {
		t.Helper()
		want := kc.m.worstSorted(v, nil)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("seed %d step %d %v: %s = %v, sort reference %v", seed, step, kc.m, what, got, want)
		}
		if fast := kc.m.WorstLoad(v); math.Float64bits(fast) != math.Float64bits(want) {
			t.Fatalf("seed %d step %d %v: WorstLoad = %v, sort reference %v", seed, step, kc.m, fast, want)
		}
	}
	w, _ := kc.top.worstKnap(kc.u)
	same("worstKnap", w, col)

	// ActiveSet marks of the allocation-free walk match the sort body's.
	y1, y2 := make([]float64, len(col)), make([]float64, len(col))
	kc.m.ActiveSet(col, y1)
	kc.m.worstSorted(col, y2)
	for i := range y1 {
		if math.Float64bits(y1[i]) != math.Float64bits(y2[i]) {
			t.Fatalf("seed %d step %d %v: ActiveSet[%d] = %v, sort reference %v", seed, step, kc.m, i, y1[i], y2[i])
		}
	}

	probe := make([]float64, len(col))
	for trial := 0; trial < 6; trial++ {
		l := rng.Intn(len(col))
		var x float64
		switch trial {
		case 0:
			x = 0
		case 1:
			x = col[l]
		case 2:
			x = 11 // ranked first
		case 3:
			x = 1e-9 // ranked last among positives
		case 4:
			x = 5 // tied with the plateau: index order decides
		default:
			x = rng.Float64() * 10
		}
		copy(probe, col)
		probe[l] = x
		same("worstKnapAt", kc.top.worstKnapAt(kc.u, int32(l), x), probe)
	}
}

// TestWorstLoadSelectionDifferential pins the quickselect branch of
// sumTopK (k > 32) and both failure models against sort-based references
// over random vectors: identical sums AND identical marked active sets.
func TestWorstLoadSelectionDifferential(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(500 + seed))
		n := 80 + rng.Intn(120)
		v := make([]float64, n)
		for i := range v {
			switch rng.Intn(5) {
			case 0:
				v[i] = -rng.Float64() // never selected
			case 1:
				v[i] = 3.25 // plateau of exact ties
			default:
				v[i] = rng.Float64() * 8
			}
		}
		// Sort-based reference for the top-k sum, summing in descending
		// order with index-ascending tie-break: the documented bit-identity
		// order of the selection path.
		refTopK := func(k int) (float64, map[int]bool) {
			idx := make([]int, n)
			for i := range idx {
				idx[i] = i
			}
			sort.Slice(idx, func(a, b int) bool { return rankBefore(v, idx[a], idx[b]) })
			s, sel := 0.0, map[int]bool{}
			for i := 0; i < k && i < n; i++ {
				if v[idx[i]] <= 0 {
					break
				}
				s += v[idx[i]]
				sel[idx[i]] = true
			}
			return s, sel
		}
		for _, k := range []int{1, 2, 31, 32, 33, 40, 64, n - 1} {
			m := ArbitraryFailures{F: k}
			want, wantSel := refTopK(k)
			if got := m.WorstLoad(v); got != want {
				t.Fatalf("seed %d k=%d: WorstLoad %v, reference %v", seed, k, got, want)
			}
			y := make([]float64, n)
			m.ActiveSet(v, y)
			for i := range y {
				if (y[i] == 1) != wantSel[i] {
					t.Fatalf("seed %d k=%d: ActiveSet[%d] = %v, reference selected=%v", seed, k, i, y[i], wantSel[i])
				}
			}
		}

		// GroupFailures with disjoint groups: greedy top-K group selection is
		// exact, so brute-force enumeration over all <=K subsets must agree.
		nG := 6
		per := n / nG
		grp := make([][]graph.LinkID, nG)
		for gi := 0; gi < nG; gi++ {
			for l := gi * per; l < (gi+1)*per; l++ {
				grp[gi] = append(grp[gi], graph.LinkID(l))
			}
		}
		gval := make([]float64, nG)
		for gi, g := range grp {
			for _, l := range g {
				if v[l] > 0 {
					gval[gi] += v[l]
				}
			}
		}
		for _, K := range []int{1, 2, 3} {
			m := GroupFailures{SRLGs: grp[:4], MLGs: grp[4:], K: K}
			best := 0.0
			for mask := 0; mask < 1<<4; mask++ {
				cnt, s := 0, 0.0
				for gi := 0; gi < 4; gi++ {
					if mask&(1<<gi) != 0 {
						cnt++
						s += gval[gi]
					}
				}
				if cnt > K {
					continue
				}
				for mi := -1; mi < 2; mi++ { // no MLG, MLG 0, MLG 1
					tot := s
					if mi >= 0 {
						tot += gval[4+mi]
					}
					if tot > best {
						best = tot
					}
				}
			}
			// The greedy sum associates in value-descending group order while
			// the brute force sums in mask order, so allow last-bit slack;
			// the selected value must still match to within rounding.
			if got := m.WorstLoad(v); math.Abs(got-best) > 1e-9*(1+best) {
				t.Fatalf("seed %d K=%d: group WorstLoad %v, brute force %v", seed, K, got, best)
			}
		}
	}
}

// newTestFWState assembles a minimal solver state over g with one
// ArbitraryFailures requirement, shortest-path-free initial fractions and
// a serial pool — enough to exercise the arena-backed evaluation path.
func newTestFWState(t testing.TB, g *graph.Graph, F int) *fwState {
	t.Helper()
	d := traffic.Gravity(g, 0.1*g.TotalCapacity(), 3)
	comms := routing.ODCommodities(g.NumNodes(), d.At)
	nK, nL := len(comms), g.NumLinks()
	dem := make([]float64, nK)
	R := make([]routing.SparseRow, nK)
	for k, c := range comms {
		dem[k] = c.Demand
		// Spread each commodity over the source's outgoing links; objective
		// only needs some fixed fractions, not a consistent routing.
		out := g.Out(c.Src)
		for _, id := range out {
			R[k].Idx = append(R[k].Idx, int32(id))
			R[k].Val = append(R[k].Val, 1/float64(len(out)))
		}
	}
	P := make([]routing.SparseRow, nL)
	capac := make([]float64, nL)
	for l := 0; l < nL; l++ {
		capac[l] = g.Link(graph.LinkID(l)).Capacity
		P[l].SetPath([]graph.LinkID{graph.LinkID((l + 1) % nL)})
	}
	return &fwState{
		g: g, comms: comms, capac: capac,
		reqs: []requirement{{demands: dem, model: ArbitraryFailures{F: F}}},
		R:    R, P: P,
		pool: par.Serial,
	}
}

// TestObjectiveZeroAllocsWarmArena pins the arena fix: with warm buffers
// the true-objective evaluation (baseLoads + columns + worst-load scan)
// must not allocate at all. This is the call the epoch loop makes after
// every accepted step — it used to build a fresh loads matrix each time.
func TestObjectiveZeroAllocsWarmArena(t *testing.T) {
	s := newTestFWState(t, mesh6(t), 2)
	first := s.objective() // warm objLoads and pcol
	if n := testing.AllocsPerRun(20, func() {
		if got := s.objective(); got != first {
			t.Fatalf("objective drifted: %v vs %v", got, first)
		}
	}); n != 0 {
		t.Fatalf("warm objective allocates %v per run, want 0", n)
	}
}

// TestBaseLoadsColumnsZeroAllocsWarm: the two arena-backed matrix
// producers must also be allocation-free once warm.
func TestBaseLoadsColumnsZeroAllocsWarm(t *testing.T) {
	s := newTestFWState(t, mesh6(t), 1)
	s.ensureArena()
	s.baseLoads(nil, s.ar.loads)
	s.pcol = s.columns(nil, s.pcol)
	if n := testing.AllocsPerRun(20, func() {
		s.baseLoads(nil, s.ar.loads)
	}); n != 0 {
		t.Fatalf("warm baseLoads allocates %v per run, want 0", n)
	}
	if n := testing.AllocsPerRun(20, func() {
		s.columns(nil, s.pcol)
	}); n != 0 {
		t.Fatalf("warm columns allocates %v per run, want 0", n)
	}
}

// TestPrecomputeDeterministicInlineVsPooled extends the worker-count
// determinism contract across the runtime dimension: a wide pool clamped
// to one scheduling slot runs its loops on the calling goroutine, and its
// plan must stay byte-identical to both the serial plan and the genuinely
// concurrent plan.
func TestPrecomputeDeterministicInlineVsPooled(t *testing.T) {
	g := topo.Mesh("det-inline", 10, 30, 21, 1000)
	d := traffic.Gravity(g, 800, 22)
	for _, model := range []FailureModel{ArbitraryFailures{F: 1}, DegradationModel{Beta: 0.5, Budget: 2}} {
		cfg := Config{Model: model, Iterations: 25}

		want := encodePlan(t, precomputeAt(t, g, d, cfg, 1))

		prev := runtime.GOMAXPROCS(1)
		inline := encodePlan(t, precomputeAt(t, g, d, cfg, 8))
		runtime.GOMAXPROCS(4)
		pooled := encodePlan(t, precomputeAt(t, g, d, cfg, 8))
		runtime.GOMAXPROCS(prev)

		if !bytes.Equal(inline, want) {
			t.Fatalf("%v: inline (GOMAXPROCS=1) plan differs from serial plan", model)
		}
		if !bytes.Equal(pooled, want) {
			t.Fatalf("%v: pooled (GOMAXPROCS=4) plan differs from serial plan", model)
		}
	}
}

// TestPinnedPrecomputeAllocationCeiling: with the base pinned (the path
// every CLI default, r3d and the benchmark take) the solver holds the base
// routing as sparse rows and a path per commodity, never as
// [commodity][link] matrices, and the protection routing as sparse rows and
// columns, never as [link][link] matrices, and cancels the base's loops on
// its rows, never on a dense copy; the plan's base is those rows, never a
// dense [commodity][link] copy. One such Precompute on SBC allocated
// 4 067 277 B while MinMLU and fwState kept dense base matrices,
// 1 867 424 B while fwState kept six dense protection matrices,
// 1 674 363 B while MinMLU returned a dense flow and loops were cancelled
// on dense copies with fresh buffers per search, and 957 685 B while the
// plan scattered its base into a dense K × L flow (K = 342, L = 70), and
// allocates 748 165 B now (≈ 17 KB more under -race). The ceiling is that figure less the dense base (191 520 B) plus one 70 × 70
// float matrix (39 200 B), so the dense base coming back fails it, and so
// does any one of the protection matrices — 40 880 B with its row headers.
func TestPinnedPrecomputeAllocationCeiling(t *testing.T) {
	g := topo.SBC()
	d := traffic.Gravity(g, 0.15*g.TotalCapacity(), 1)
	const ceiling = 957685 - 342*70*8 + 70*70*8
	got := allocBytes(3, func() {
		if _, err := Precompute(g, d, Config{
			Model: ArbitraryFailures{F: 1}, Iterations: 100, PenaltyEnvelope: 1.1, Workers: 1,
		}); err != nil {
			t.Fatal(err)
		}
	})
	if got > ceiling {
		t.Fatalf("pinned-base Precompute on SBC allocates %.0f B, want at most %d B", got, ceiling)
	}
	t.Logf("pinned-base Precompute on SBC allocates %.0f B", got)
}
