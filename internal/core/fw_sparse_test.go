package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// oracleGroups is a deterministic SRLG/MLG structure over g's links: every
// group a set, groups overlapping, one MLG through link 0.
func oracleGroups(g *graph.Graph) (srlgs, mlgs [][]graph.LinkID) {
	nL := g.NumLinks()
	set := func(ids ...int) []graph.LinkID {
		var grp []graph.LinkID
		for _, id := range ids {
			if l := graph.LinkID(id % nL); !slices.Contains(grp, l) {
				grp = append(grp, l)
			}
		}
		return grp
	}
	for j := 0; j < max(2, nL/6); j++ {
		srlgs = append(srlgs, set(5*j, 5*j+1, 5*j+3))
	}
	mlgs = [][]graph.LinkID{set(0, nL/2), set(1, nL-1, nL/3)}
	return srlgs, mlgs
}

// stepAgainstOracle runs epochs of the solver's epoch loop (fwState.run's
// phases, in its order) on a sparse fwState and on the dense oracle side by
// side, both built by newFWState from the same inputs, and compares the
// iterate bit for bit after every phase: the oracle paths and gradient
// costs, the step size, P and pcol, W, the base loads and rows, and the
// objective. It returns how many times the sparse sweeps keyed their
// line-search cache.
func stepAgainstOracle(t *testing.T, g *graph.Graph, d *traffic.Matrix, cfg Config, epochs int) int64 {
	t.Helper()
	comms := unionCommodities([]*traffic.Matrix{d})
	reqs := []requirement{{demands: demandVector(comms, d), model: cfg.Model}}
	reg := obs.NewRegistry()
	sp, err := newFWState(g, comms, reqs, cfg, newFWObs(reg))
	if err != nil {
		t.Fatal(err)
	}
	dst, err := newFWState(g, comms, reqs, cfg, fwObs{})
	if err != nil {
		t.Fatal(err)
	}
	dn := newDenseFW(dst)
	nL := g.NumLinks()
	scratch := make([]float64, nL)

	same := func(where, what string, i, j int, a, b float64) {
		t.Helper()
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("%s: %s[%d][%d] = %v sparse, %v dense", where, what, i, j, a, b)
		}
	}
	mats := func(where, what string, a, b [][]float64) {
		t.Helper()
		for i := range b {
			for e := range b[i] {
				same(where, what, i, e, a[i][e], b[i][e])
			}
		}
	}
	prot := func(where string) {
		t.Helper()
		for l := 0; l < nL; l++ {
			clear(scratch)
			sp.P[l].Scatter(scratch)
			for e := range scratch {
				same(where, "P", l, e, scratch[e], dn.P[l][e])
			}
		}
		for e := 0; e < nL; e++ {
			col := &sp.pcol[e]
			if !slices.IsSorted(col.Idx) || len(slices.Compact(slices.Clone(col.Idx))) != len(col.Idx) {
				t.Fatalf("%s: pcol[%d] entries %v not strictly ascending", where, e, col.Idx)
			}
			clear(scratch)
			col.Scatter(scratch)
			for l := range scratch {
				same(where, "pcol", e, l, scratch[l], dn.pcol[e][l])
			}
		}
	}
	dnRow := make([]float64, nL)
	base := func(where string) {
		t.Helper()
		mats(where, "loads", sp.ar.loads, dn.ar.loads)
		for k := range sp.R {
			clear(scratch)
			clear(dnRow)
			sp.R[k].Scatter(scratch)
			dn.R[k].Scatter(dnRow)
			for e := range scratch {
				same(where, "R", k, e, scratch[e], dnRow[e])
			}
		}
	}
	paths := func(where string, a, b [][]graph.LinkID) {
		t.Helper()
		for l := range b {
			if !slices.Equal(a[l], b[l]) || (a[l] == nil) != (b[l] == nil) {
				t.Fatalf("%s: oracle path %d = %v sparse, %v dense", where, l, a[l], b[l])
			}
		}
	}

	sp.selectKernels()
	dn.selectKernels()
	sp.baseLoads(nil, sp.ar.loads)
	dn.baseLoads(nil, dn.ar.loads)
	sp.pcol = sp.columns(nil, sp.pcol)
	dn.pcol = dn.columns(dn.P, dn.pcol)
	sp.refreshW()
	dn.refreshW()
	prot("init")
	mats("init", "W", sp.ar.W, dn.ar.W)
	obj := sp.trueObj()
	for epoch := 0; epoch < epochs && obj != 0; epoch++ {
		at := func(phase string) string { return fmt.Sprintf("epoch %d %s", epoch, phase) }
		mu := math.Max(obj*0.002, obj*0.05*math.Pow(0.8, float64(epoch)))
		sp.softmaxWeights(obj, mu)
		dn.softmaxWeights(obj, mu)
		var rP, rPd [][]graph.LinkID
		if sp.optimizeBase {
			rP, rPd = sp.rDirections(), dn.rDirections()
			paths(at("r directions"), rP, rPd)
		}
		pP, pPd := sp.pDirections(), dn.pDirections()
		paths(at("p directions"), pP, pPd)
		// The gradient costs: this epoch's pattern (promoted to pPat) with
		// its aligned values, against the dense rows — which the flat
		// oracle baked the 1e-12 floor into.
		for l := 0; l < nL; l++ {
			clear(scratch)
			for j, e := range sp.ar.pPat[l] {
				scratch[e] = sp.ar.pCost[l][j]
			}
			for e, v := range scratch {
				if sp.flatSPF {
					v += 1e-12
				}
				same(at("p directions"), "cost", l, e, v, dn.costP[l][e])
			}
		}

		g1, g2 := sp.globalStep(rP, pP, mu), dn.globalStep(rPd, pPd, mu)
		same(at("global step"), "gamma", 0, 0, g1, g2)
		prot(at("global step"))
		sp.refreshW()
		dn.refreshW()
		mats(at("refreshW"), "W", sp.ar.W, dn.ar.W)
		sp.baseLoads(nil, sp.ar.loads)
		dn.baseLoads(nil, dn.ar.loads)
		base(at("baseLoads"))

		if sp.optimizeBase {
			sp.rSweep(rP, mu)
			dn.rSweep(rPd, mu)
			base(at("r sweep"))
		}
		sp.pSweep(pP, mu)
		dn.pSweepRef(pPd, mu)
		prot(at("p sweep"))
		mats(at("p sweep"), "W", sp.ar.W, dn.ar.W)
		base(at("p sweep"))
		obj = sp.trueObj()
		same(at("objective"), "obj", 0, 0, obj, dn.trueObj())
	}
	return reg.Snapshot().Counters["fw.lse_rekeys"]
}

// TestSparseProtectionMatchesDenseOracle holds the sparse protection half
// of the solver — P and bestP as rows, pcol as sorted columns kept current
// by the p-sweep accepts, the global step's support-restricted fill, the
// pattern-only gradient costs, the one p sweep with its cached static cells
// and paired line-search probes — to the dense oracle in
// fw_dense_oracle_test.go, bit for bit after every phase of every epoch:
// on ring5, mesh6, Abilene and SBC; for top-F (F = 1, 2, and F = the link
// count, where the sweep's static sums and refreshW's differ in the last
// ulp), a degradation envelope, the K=1 group kernel and the generic path
// (GroupFailures with K = 2; per-link β and a knapsack walk over 32 steps,
// but for SBC);
// under the flat and the incremental SPF modes; with a jointly optimized
// base, plus a pinned one for F = 1.
func TestSparseProtectionMatchesDenseOracle(t *testing.T) {
	var rekeys int64
	for _, tg := range []struct {
		name string
		g    *graph.Graph
	}{
		{"ring5", ring5(t)},
		{"mesh6", mesh6(t)},
		{"abilene", topo.Abilene()},
		{"sbc", topo.SBC()},
	} {
		d := traffic.Gravity(tg.g, 0.15*tg.g.TotalCapacity(), 1)
		srlgs, mlgs := oracleGroups(tg.g)
		nL := tg.g.NumLinks()
		linkBeta := make([]float64, nL)
		for l := range linkBeta {
			linkBeta[l] = 0.2 + 0.05*float64(l%7)
		}
		for _, tm := range []struct {
			name   string
			model  FailureModel
			pinned bool
		}{
			{"arb1", ArbitraryFailures{F: 1}, false},
			{"arb1-pinned", ArbitraryFailures{F: 1}, true},
			{"arb2", ArbitraryFailures{F: 2}, false},
			{"degrade", DegradationModel{Beta: 0.5, Budget: 2}, false},
			{"grp1", GroupFailures{SRLGs: srlgs, MLGs: mlgs, K: 1}, false},
			{"generic", GroupFailures{SRLGs: srlgs, MLGs: mlgs, K: 2}, false},
			{"arb-links", ArbitraryFailures{F: nL}, false},
			{"linkbeta", DegradationModel{Beta: 0.5, Budget: 2, LinkBeta: linkBeta}, false},
			{"walk50", DegradationModel{Beta: 0.01, Budget: 0.5}, false},
		} {
			if tg.name == "sbc" && (tm.name == "linkbeta" || tm.name == "walk50") {
				continue // the generic degradation cases cost seconds there
			}
			for _, mode := range []spfKernel{kernelFlat, kernelIncremental} {
				t.Run(fmt.Sprintf("%s/%s/%v", tg.name, tm.name, mode), func(t *testing.T) {
					cfg := Config{Model: tm.model, Workers: 1, kernel: mode}
					if tm.pinned {
						cfg.PenaltyEnvelope = 1.1
					}
					rekeys += stepAgainstOracle(t, tg.g, d, cfg, 8)
				})
			}
		}
	}
	if rekeys == 0 {
		t.Fatal("no sparse sweep keyed its line-search cache in any case: sweepLSE went untested")
	}
}

// TestTernaryMinPairMatchesSingleProbe: the paired ternary search returns
// the single-probe search's step exactly. On plain convex functions the
// pair is two independent calls. Through sweepLSE — the block sweeps'
// cached evaluator, its pair against its own single probe — it also holds
// whether a probe's maximum sits on an active cell or on a static one, and
// the accept test's pair matches the two single probes bit for bit.
func TestTernaryMinPairMatchesSingleProbe(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for trial := 0; trial < 200; trial++ {
		c, a, b := rng.Float64(), rng.Float64()*5, rng.Float64()
		fs := []func(float64) float64{
			func(x float64) float64 { return a*(x-c)*(x-c) + b },
			func(x float64) float64 { return math.Max(a*(x-c), b*(c-x)) },
			func(x float64) float64 { return math.Abs(x-c) + a*x*x*x },
		}
		for j, f := range fs {
			pair := func(x, y float64) (float64, float64) { return f(x), f(y) }
			for _, iters := range []int{1, 12, 14, 40} {
				if got, want := ternaryMin(pair, iters), ternaryMinSingle(f, iters); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("trial %d f%d iters %d: paired %v, single %v", trial, j, iters, got, want)
				}
			}
		}
	}

	var activeMax, staticMax int
	for trial := 0; trial < 300; trial++ {
		nI, nL := 1+rng.Intn(3), 8+rng.Intn(40)
		mu := 0.01 + rng.Float64()*0.2
		u0 := newMatrix(nI, nL)
		for i := range u0 {
			for e := range u0[i] {
				u0[i][e] = rng.Float64()
			}
		}
		// Active cells: utilization a + γ·b, convex in γ after the max and
		// the log-sum-exp. Large slopes let the active cells take the max;
		// small ones leave it to the static cells.
		stamp := make([]int32, nL)
		const gen = 7
		var act []int32
		for e := 0; e < nL; e++ {
			if rng.Intn(4) == 0 {
				stamp[e] = gen
				act = append(act, int32(e))
			}
		}
		slope := 0.2
		if trial%2 == 1 {
			slope = 3
		}
		ca, cb := newMatrix(nI, nL), newMatrix(nI, nL)
		for i := range ca {
			for _, e := range act {
				ca[i][e] = rng.Float64()
				cb[i][e] = slope * (rng.Float64() - 0.5)
			}
		}
		lse := sweepLSE{u0: u0, expu: newMatrix(nI, nL), key: math.NaN(), mu: mu, stamp: stamp}
		lse.open(gen, act)
		fill := func(gamma float64, out []float64) []float64 {
			w := lse.smax
			for i := 0; i < nI; i++ {
				for _, e := range act {
					u := ca[i][e] + gamma*cb[i][e]
					out[i*nL+int(e)] = u
					w = max(w, u)
				}
			}
			if w > lse.smax {
				activeMax++
			} else {
				staticMax++
			}
			return out
		}
		pa, pb, ps := make([]float64, nI*nL), make([]float64, nI*nL), make([]float64, nI*nL)
		paired := func(a, b float64) (float64, float64) { return lse.pair(fill(a, pa), fill(b, pb)) }
		single := func(gamma float64) float64 { return lse.probe(fill(gamma, ps)) }
		got, want := ternaryMin(paired, 12), ternaryMinSingle(single, 12)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: paired sweepLSE search %v, single-probe search %v", trial, got, want)
		}
		if got > 1e-9 {
			fg, f0 := paired(got, 0)
			if wg, w0 := single(got), single(0); math.Float64bits(fg) != math.Float64bits(wg) || math.Float64bits(f0) != math.Float64bits(w0) {
				t.Fatalf("trial %d: accept pair (%v, %v), single (%v, %v)", trial, fg, f0, wg, w0)
			}
		}
	}
	if activeMax == 0 || staticMax == 0 {
		t.Fatalf("probes whose max is an active cell: %d, a static one: %d; want both kinds", activeMax, staticMax)
	}
}

// TestSweepLSEMatchesDirectObjective holds sweepLSE — the static sum
// folded once per block at a windowed key, probes that cost their active
// cells — to the contract DESIGN.md §4 documents, evaluated here from every
// cell: bit for bit against that evaluation and against the shared direct
// helper the reference sweep and the dense oracle use, and within rounding
// of the exact smoothed max. Blocks move the static max across the window
// upward and downward, among them a key of 3.76 under probes at 1.51 with
// μ = 0.003, where a key that never re-keys downward underflows every
// static term.
func TestSweepLSEMatchesDirectObjective(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	// contract is the documented objective from scratch: key follows the
	// window on the block's static max, Zs sums the static cells' terms in
	// ascending (requirement, link) order, and the active cells' terms are
	// added to the rescaled Zs one by one in the same order.
	contract := func(u []float64, nL int, static func(i, e int) bool, key *float64, mu float64) float64 {
		sm, w := 0.0, 0.0
		for t, x := range u {
			if static(t/nL, t%nL) {
				sm = math.Max(sm, x)
			}
			w = math.Max(w, x)
		}
		if !(math.Abs(sm-*key) <= 200*mu) {
			*key = sm
		}
		var zs float64
		for t, x := range u {
			if static(t/nL, t%nL) {
				zs += math.Exp((x - *key) / mu)
			}
		}
		z := zs * math.Exp((*key-w)/mu)
		for t, x := range u {
			if !static(t/nL, t%nL) {
				z += math.Exp((x - w) / mu)
			}
		}
		return w + mu*math.Log(z)
	}
	exact := func(u []float64, mu float64) float64 {
		w := slices.Max(u)
		var z float64
		for _, x := range u {
			z += math.Exp((x - w) / mu)
		}
		return w + mu*math.Log(z)
	}

	var up, down, kept int
	for trial := 0; trial < 120; trial++ {
		nI, nL := 1+rng.Intn(3), 8+rng.Intn(40)
		mu := 0.003
		if trial%3 != 0 {
			mu = 0.001 + rng.Float64()*0.2
		}
		u0 := newMatrix(nI, nL)
		for i := range u0 {
			for e := range u0[i] {
				u0[i][e] = 1 + 0.5*rng.Float64()
			}
		}
		stamp := make([]int32, nL)
		var live []bool
		if trial%2 == 1 {
			live = make([]bool, nI)
		}
		reg := obs.NewRegistry()
		var refills int64
		c := sweepLSE{u0: u0, expu: newMatrix(nI, nL), key: math.NaN(), mu: mu, stamp: stamp, live: live, rekeys: reg.Counter("rekeys")}
		d := sweepLSE{key: math.NaN(), mu: mu, stamp: stamp, live: live}
		refKey := math.NaN()
		full := make([]float64, nI*nL)
		pa, pb := make([]float64, nI*nL), make([]float64, nI*nL)
		// The cell that carries the excursions: raised to 3.76, then back
		// to 1.51, each time from a block where it is active.
		hi := [2]int{rng.Intn(nI), rng.Intn(nL)}
		for gen := int32(1); gen <= 12; gen++ {
			var act []int32
			for e := 0; e < nL; e++ {
				if rng.Intn(5) == 0 || (e == hi[1] && gen%4 == 2) {
					stamp[e] = gen
					act = append(act, int32(e))
				}
			}
			for i := range live {
				live[i] = rng.Intn(3) != 0 || i == hi[0]
			}
			before := c.key
			c.open(gen, act)
			d.gen = gen
			static := func(i, e int) bool { return (live != nil && !live[i]) || stamp[e] != gen }
			switch {
			case math.IsNaN(before):
				refills++
			case c.key > before:
				refills++
				up++
			case c.key < before:
				refills++
				down++
			case c.smax != c.key:
				kept++
			}
			// Probes: active cells around the static range, sometimes far
			// above it (they then carry the max).
			lift := 0.0
			if rng.Intn(3) == 0 {
				lift = 2.5
			}
			for p := 0; p < 6; p++ {
				for _, us := range [][]float64{pa, pb} {
					for i := 0; i < nI; i++ {
						for _, e := range act {
							us[i*nL+int(e)] = 1 + lift*rng.Float64() + 0.5*rng.Float64()
						}
					}
				}
				fa, fb := c.pair(pa, pb)
				for j, probe := range []struct {
					us []float64
					f  float64
				}{{pa, fa}, {pb, fb}} {
					for t := range full {
						if i, e := t/nL, t%nL; static(i, e) {
							full[t] = u0[i][e]
						} else {
							full[t] = probe.us[t]
						}
					}
					want := contract(full, nL, static, &refKey, mu)
					if math.Float64bits(probe.f) != math.Float64bits(want) {
						t.Fatalf("trial %d block %d probe %d/%d: pair %v, contract %v (key %v, reference key %v)", trial, gen, p, j, probe.f, want, c.key, refKey)
					}
					if got := d.direct(full); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("trial %d block %d probe %d/%d: direct %v, contract %v", trial, gen, p, j, got, want)
					}
					if x := exact(full, mu); !(math.Abs(probe.f-x) <= 1e-11) {
						t.Fatalf("trial %d block %d probe %d/%d: pair %v, exact smoothed max %v (key %v, static max %v)", trial, gen, p, j, probe.f, x, c.key, c.smax)
					}
				}
			}
			// Accept: the block's active cells of live requirements move in
			// the static view; the excursion cell goes up, then back down.
			for i := 0; i < nI; i++ {
				if live != nil && !live[i] {
					continue
				}
				for _, e := range act {
					u := 1 + 0.5*rng.Float64()
					if i == hi[0] && int(e) == hi[1] && gen%4 == 2 {
						u = 3.76
						if gen%8 == 6 {
							u = 1.51
						}
					}
					c.set(i, int(e), u)
				}
			}
		}
		if n := reg.Snapshot().Counters["rekeys"]; n != refills {
			t.Fatalf("trial %d: rekeys = %d, want %d: one per block whose key moved", trial, n, refills)
		}
	}
	if up == 0 || down == 0 || kept == 0 {
		t.Fatalf("blocks that re-keyed upward: %d, downward: %d, kept a key off the static max: %d; want all three", up, down, kept)
	}
}

// warmFWState runs a short solve on Abilene so every arena, pattern list
// and support has its working size, and returns the state for a warm
// phase to be measured again.
func warmFWState(t *testing.T, model FailureModel) *fwState {
	t.Helper()
	s := newTestFWState(t, topo.Abilene(), 1)
	s.reqs[0].model = model
	s.pool = par.Serial
	s.run(60, obs.Span{})
	paths := 0
	for _, p := range s.ar.pPaths {
		if p != nil {
			paths++
		}
	}
	if paths == 0 {
		t.Fatal("no oracle paths left from the last epoch; the phase would be empty")
	}
	return s
}

// TestTopFSweepZeroAllocsWarm: once a solve has warmed the arena, an
// incremental top-F p block sweep — paired probes, accepts that insert into
// the sorted pcol columns and grow P's supports, cache refreshes —
// allocates nothing.
func TestTopFSweepZeroAllocsWarm(t *testing.T) {
	for _, F := range []int{1, 2} {
		s := warmFWState(t, ArbitraryFailures{F: F})
		if s.arbF == nil {
			t.Fatalf("F=%d: top-F kernel not selected", F)
		}
		if n := testing.AllocsPerRun(5, func() { s.pSweep(s.ar.pPaths, 0.01) }); n != 0 {
			t.Fatalf("F=%d: warm top-F p sweep allocates %v per run, want 0", F, n)
		}
	}
}

// TestGlobalStepZeroAllocsWarm: a warm global step — the direction columns,
// their union with pcol, every paired probe's mixed columns and colTop
// rebuilds, the accepted move of R and P and the rebuilt pcol — allocates
// nothing, for the top-F and the knapsack kernels alike.
func TestGlobalStepZeroAllocsWarm(t *testing.T) {
	for _, m := range []FailureModel{ArbitraryFailures{F: 1}, DegradationModel{Beta: 0.5, Budget: 2}} {
		s := warmFWState(t, m)
		if n := testing.AllocsPerRun(5, func() { s.globalStep(nil, s.ar.pPaths, 0.01) }); n != 0 {
			t.Fatalf("%v: warm global step allocates %v per run, want 0", m, n)
		}
	}
}
