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
// objective. It returns how many paired probes the sparse sweeps had to
// split.
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
		if sp.incSweep {
			sp.pSweepInc(pP, mu)
			dn.pSweepInc(pPd, mu)
		} else {
			sp.pSweepRef(pP, mu)
			dn.pSweepRef(pPd, mu)
		}
		prot(at("p sweep"))
		mats(at("p sweep"), "W", sp.ar.W, dn.ar.W)
		base(at("p sweep"))
		obj = sp.trueObj()
		same(at("objective"), "obj", 0, 0, obj, dn.trueObj())
	}
	return reg.Snapshot().Counters["fw.probe_splits"]
}

// TestSparseProtectionMatchesDenseOracle holds the sparse protection half
// of the solver — P and bestP as rows, pcol as sorted columns kept current
// by the p-sweep accepts, the global step's support-restricted fill, the
// pattern-only gradient costs, paired line-search probes — to the dense
// oracle in fw_dense_oracle_test.go, bit for bit after every phase of every
// epoch: on ring5, mesh6, Abilene and SBC; for top-F (F = 1, 2), a
// degradation envelope, the K=1 group kernel and the generic path
// (GroupFailures with K = 2); under the flat and the incremental SPF
// modes; with a jointly optimized base, plus a pinned one for F = 1.
func TestSparseProtectionMatchesDenseOracle(t *testing.T) {
	var splits int64
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
		} {
			for _, mode := range []spfKernel{kernelFlat, kernelIncremental} {
				t.Run(fmt.Sprintf("%s/%s/%v", tg.name, tm.name, mode), func(t *testing.T) {
					cfg := Config{Model: tm.model, Workers: 1, kernel: mode}
					if tm.pinned {
						cfg.PenaltyEnvelope = 1.1
					}
					splits += stepAgainstOracle(t, tg.g, d, cfg, 8)
				})
			}
		}
	}
	if splits == 0 {
		t.Fatal("no paired probe split in any case: the sequential path of sweepLSE.pair went untested")
	}
}

// TestTernaryMinPairMatchesSingleProbe: the paired ternary search returns
// the single-probe search's step exactly. On plain convex functions the
// pair is two independent calls. Through sweepLSE — the block sweeps'
// cached evaluator, against a single-probe evaluator with its own cache,
// written the way the sweeps were — it also holds when a probe's active
// cells carry the maximum, so the two probes' maxima differ and the pair
// must run them one after the other; there the final cache must match too.
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

	var splits, whole int
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
		// the log-sum-exp. Large slopes let the active cells take the max
		// (the maxima then differ between probes); small ones leave it to
		// the static cells.
		stamp := make([]int32, nL)
		const gen = 7
		var act []int
		for e := 0; e < nL; e++ {
			if rng.Intn(4) == 0 {
				stamp[e] = gen
				act = append(act, e)
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
		util := func(gamma float64, out []float64) (worst float64) {
			for i := 0; i < nI; i++ {
				for e := 0; e < nL; e++ {
					if stamp[e] != gen && u0[i][e] > worst {
						worst = u0[i][e]
					}
				}
				for _, e := range act {
					u := ca[i][e] + gamma*cb[i][e]
					out[i*nL+e] = u
					worst = max(worst, u)
				}
			}
			return worst
		}

		// The single-probe reference, cache and all.
		refExp := newMatrix(nI, nL)
		refWorst := math.NaN()
		ua := make([]float64, nI*nL)
		single := func(gamma float64) float64 {
			worst := util(gamma, ua)
			if worst != refWorst {
				for i := range refExp {
					for e := range refExp[i] {
						refExp[i][e] = math.Exp((u0[i][e] - worst) / mu)
					}
				}
				refWorst = worst
			}
			var z float64
			for i := 0; i < nI; i++ {
				for e := 0; e < nL; e++ {
					if stamp[e] == gen {
						z += math.Exp((ua[i*nL+e] - worst) / mu)
					} else {
						z += refExp[i][e]
					}
				}
			}
			return worst + mu*math.Log(z)
		}

		reg := obs.NewRegistry()
		lse := sweepLSE{u0: u0, expu: newMatrix(nI, nL), worst: math.NaN(), mu: mu, stamp: stamp, gen: gen, splits: reg.Counter("splits")}
		pa, pb := make([]float64, nI*nL), make([]float64, nI*nL)
		paired := func(a, b float64) (float64, float64) {
			return lse.pair(util(a, pa), util(b, pb), pa, pb)
		}
		got, want := ternaryMin(paired, 12), ternaryMinSingle(single, 12)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: paired sweepLSE search %v, single-probe search %v", trial, got, want)
		}
		if got > 1e-9 {
			fg, f0 := paired(got, 0)
			wg := single(got)
			w0 := single(0)
			if math.Float64bits(fg) != math.Float64bits(wg) || math.Float64bits(f0) != math.Float64bits(w0) {
				t.Fatalf("trial %d: accept pair (%v, %v), single (%v, %v)", trial, fg, f0, wg, w0)
			}
		}
		if math.Float64bits(lse.worst) != math.Float64bits(refWorst) {
			t.Fatalf("trial %d: cache keyed on %v, reference on %v", trial, lse.worst, refWorst)
		}
		for i := range refExp {
			for e := range refExp[i] {
				if math.Float64bits(lse.expu[i][e]) != math.Float64bits(refExp[i][e]) {
					t.Fatalf("trial %d: cache[%d][%d] = %v, reference %v", trial, i, e, lse.expu[i][e], refExp[i][e])
				}
			}
		}
		if n := reg.Snapshot().Counters["splits"]; n > 0 {
			splits++
		} else {
			whole++
		}
	}
	if splits == 0 || whole == 0 {
		t.Fatalf("searches with a split: %d, without: %d; want both kinds", splits, whole)
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
		if s.arbF == nil || !s.incSweep {
			t.Fatalf("F=%d: top-F incremental sweep not selected: arbF=%v incSweep=%v", F, s.arbF, s.incSweep)
		}
		if n := testing.AllocsPerRun(5, func() { s.pSweepInc(s.ar.pPaths, 0.01) }); n != 0 {
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
