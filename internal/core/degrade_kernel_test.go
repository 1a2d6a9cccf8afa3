package core

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// TestKnapStepsGuards pins the u-sequence builder's edges: β = 0 is valid
// and must answer 0 at once rather than walk a budget that never shrinks;
// a tiny β must stop at the step cap and fall back to the sort body, not
// build billions of steps; residues of repeated subtraction become a last
// tiny step exactly as in the reference walk; and MaxFailures clamps a
// budget no int can hold.
func TestKnapStepsGuards(t *testing.T) {
	v := []float64{4, 0, 9, 2.5, 9, -1, 7}
	cases := []struct {
		name     string
		m        DegradationModel
		ok       bool
		steps    int
		maxFails int
	}{
		{"beta-zero", DegradationModel{Beta: 0, Budget: 2}, true, 0, 2},
		{"tiny-beta", DegradationModel{Beta: 1e-9, Budget: 2}, false, 0, 2},
		{"cap-exact", DegradationModel{Beta: 0.0625, Budget: 2}, true, 32, 2},
		{"cap-plus-one", DegradationModel{Beta: 0.0625, Budget: 2.03125}, false, 0, 2},
		{"residue-step", DegradationModel{Beta: 0.1, Budget: 0.7}, true, 8, 1}, // seven 0.1s leave 2.8e-17
		{"per-link", DegradationModel{Beta: 0.5, Budget: 2, LinkBeta: []float64{1, 1, 0.5, 0, 1, 1, 1}}, false, 0, 2},
		{"huge-budget", DegradationModel{Beta: 1, Budget: 1e300}, false, 0, 1 << 30},
		{"inf-budget-unvalidated", DegradationModel{Beta: 0.5, Budget: math.Inf(1)}, false, 0, 1 << 30},
		{"zero-budget-unvalidated", DegradationModel{Beta: 0.5, Budget: 0}, false, 0, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var ub [knapMaxSteps]float64
			n, ok := tc.m.knapSteps(&ub)
			if ok != tc.ok || n != tc.steps {
				t.Fatalf("knapSteps = (%d, %v), want (%d, %v)", n, ok, tc.steps, tc.ok)
			}
			var sum float64
			for _, u := range ub[:n] {
				if !(u > 0 && u <= tc.m.Beta) {
					t.Fatalf("step %v outside (0, β=%v]", u, tc.m.Beta)
				}
				sum += u
			}
			if n > 0 && math.Abs(sum-tc.m.Budget) > 1e-12 {
				t.Fatalf("steps sum to %v, budget %v", sum, tc.m.Budget)
			}
			// Whichever body serves the model, the answer and the marks are
			// the sort reference's.
			y1, y2 := make([]float64, len(v)), make([]float64, len(v))
			tc.m.ActiveSet(v, y1)
			want := tc.m.worstSorted(v, y2)
			if got := tc.m.WorstLoad(v); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("WorstLoad = %v, sort reference %v", got, want)
			}
			for i := range y1 {
				if math.Float64bits(y1[i]) != math.Float64bits(y2[i]) {
					t.Fatalf("ActiveSet[%d] = %v, sort reference %v", i, y1[i], y2[i])
				}
			}
			if tc.m.Beta == 0 && want != 0 {
				t.Fatalf("β = 0 worst load %v, want 0", want)
			}
			if got := tc.m.MaxFailures(); got != tc.maxFails {
				t.Fatalf("MaxFailures = %d, want %d", got, tc.maxFails)
			}
		})
	}
}

// TestDegradationWorstLoadZeroAllocs: the uniform-β evaluation that
// globalStep, objective, pDirections and Plan.Verify call allocates
// nothing, marks included.
func TestDegradationWorstLoadZeroAllocs(t *testing.T) {
	v := make([]float64, 140)
	for i := range v {
		v[i] = float64((i*37)%23) - 4
	}
	y := make([]float64, len(v))
	for _, m := range []DegradationModel{{Beta: 0.5, Budget: 2}, {Beta: 0.1, Budget: 2}, {Beta: 0, Budget: 1}} {
		if n := testing.AllocsPerRun(50, func() {
			m.WorstLoad(v)
			m.ActiveSet(v, y)
		}); n != 0 {
			t.Fatalf("%v: WorstLoad+ActiveSet allocate %v per run, want 0", m, n)
		}
	}
}

// TestDegradationSweepZeroAllocsWarm: once a solve has warmed the arena,
// a p block sweep over a degradation envelope — every line
// search, accept and cache refresh — allocates nothing. It used to copy a
// column and sort it for every cell of every probe.
func TestDegradationSweepZeroAllocsWarm(t *testing.T) {
	s := newTestFWState(t, topo.Abilene(), 1)
	s.reqs[0].model = DegradationModel{Beta: 0.5, Budget: 2}
	s.pool = par.Serial
	s.run(60, obs.Span{})
	if s.knapU == nil || s.topK != 5 {
		t.Fatalf("knapsack kernel not selected: knapU=%v topK=%d", s.knapU, s.topK)
	}
	paths := 0
	for _, p := range s.ar.pPaths {
		if p != nil {
			paths++
		}
	}
	if paths == 0 {
		t.Fatal("no oracle paths left from the last epoch; the sweep would be empty")
	}
	if n := testing.AllocsPerRun(5, func() { s.pSweep(s.ar.pPaths, 0.01) }); n != 0 {
		t.Fatalf("warm degradation p sweep allocates %v per run, want 0", n)
	}
}

// r3planInputs is what `r3plan -net <g> -effort 60` solves at its default
// seed, total and envelope.
func r3planInputs(g *graph.Graph) (*traffic.Matrix, Config) {
	return traffic.Gravity(g, 0.15*g.TotalCapacity(), 1), Config{Iterations: 60, PenaltyEnvelope: 1.1}
}

// TestDegradationPlanDigests pins degradation plans to the digests the
// sort-based generic path produced before the knapsack kernel existed
// (`r3plan … -effort 60 -fingerprint` at the commit before it): dyadic and
// non-dyadic β, fractional budgets, an anchor-wins envelope, a surge hull
// (two requirements) and a flat-SPF solve. The kernel changes
// how the worst loads are found, never their bits.
func TestDegradationPlanDigests(t *testing.T) {
	cases := []struct {
		name   string
		g      func() *graph.Graph
		spec   WorkloadSpec
		kernel spfKernel
		digest uint64
	}{
		{"sbc-a0.5-B2", topo.SBC, WorkloadSpec{Alpha: 0.5, Budget: 2}, kernelIncremental, 0x5f65cc6b98082ffd},
		{"abilene-a0.7-B1.5", topo.Abilene, WorkloadSpec{Alpha: 0.7, Budget: 1.5}, kernelIncremental, 0x14af38ab39e4b091},
		{"level3-a0.5-B2", topo.Level3, WorkloadSpec{Alpha: 0.5, Budget: 2}, kernelIncremental, 0x52c28f0cc64e250f},
		{"sbc-a0.9-B0.35", topo.SBC, WorkloadSpec{Alpha: 0.9, Budget: 0.35}, kernelIncremental, 0x3b5e80735d8ef814},
		{"sbc-a0.5-B2-surge1.3", topo.SBC, WorkloadSpec{Alpha: 0.5, Budget: 2, Surge: 1.3, ODFrac: 1}, kernelIncremental, 0x9d500e309a542a8e},
		{"sbc-a0.25-B3-flat", topo.SBC, WorkloadSpec{Alpha: 0.25, Budget: 3}, kernelFlat, 0x4111330b7e294bcf},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.g()
			d, cfg := r3planInputs(g)
			cfg.Model = tc.spec.Model(nil)
			cfg.Surge = tc.spec.SurgeSpec()
			cfg.kernel = tc.kernel
			plan, err := Precompute(g, d, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := plan.WireFingerprint()
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.digest {
				t.Fatalf("digest %016x (MLU %v), pinned %016x", got, plan.MLU, tc.digest)
			}
		})
	}
}

// TestNestedEnvelopeMonotone is the first slice of the nested-envelope
// harness (ROADMAP item 2): X_D(β = .5, B = 2) ⊂ X_F(F = 2) — four links
// half-degraded move no more than two links lost outright, and the anchor
// is one link — so the optimum over the smaller envelope cannot be worse,
// and a planner that certifies a larger MLU for it has a selection or
// convergence bug. UUNet is left out on purpose: Frank–Wolfe stops at
// 2.7001 against 2.5741 there at this effort, a convergence gap the
// kernel does not touch (ROADMAP item 2).
func TestNestedEnvelopeMonotone(t *testing.T) {
	const tol = 1e-6
	for _, tg := range []struct {
		name string
		g    *graph.Graph
	}{
		{"ring5", ring5(t)},
		{"abilene", topo.Abilene()},
		{"sbc", topo.SBC()},
		{"level3", topo.Level3()},
	} {
		t.Run(tg.name, func(t *testing.T) {
			d, cfg := r3planInputs(tg.g)
			cfg.Model = DegradationModel{Beta: 0.5, Budget: 2}
			inner, err := Precompute(tg.g, d, cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Model = ArbitraryFailures{F: 2}
			outer, err := Precompute(tg.g, d, cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("MLU(X_D) = %.4f, MLU(X_F) = %.4f", inner.MLU, outer.MLU)
			if inner.MLU > outer.MLU+tol {
				t.Fatalf("certified MLU %v over X_D(β=.5, B=2) exceeds %v over its superset X_F(F=2)", inner.MLU, outer.MLU)
			}
		})
	}
}

// opaqueDegradation hides a DegradationModel from the solver's kernel
// dispatch (the type assertion fails), which sends it down the generic
// FailureModel path: copy the column, call WorstLoad — the oracle.
type opaqueDegradation struct{ DegradationModel }

// TestKnapKernelMatchesGenericPath runs the same envelopes through the
// colTop knapsack kernel and through the generic path, under the flat and
// the incremental SPF kernels, and compares the iterates bit for bit:
// every line search must have seen the same worst loads.
func TestKnapKernelMatchesGenericPath(t *testing.T) {
	g := topo.Mesh("knap-vs-generic", 12, 40, 9, 1000)
	d := traffic.Gravity(g, 0.2*g.TotalCapacity(), 5)
	d2 := traffic.Gravity(g, 0.2*g.TotalCapacity(), 6)
	for _, m := range []DegradationModel{
		{Beta: 0.5, Budget: 2},
		{Beta: 0.3, Budget: 1.5},  // non-dyadic β: a rounding-residue step
		{Beta: 0.1, Budget: 0.35}, // anchor wins everywhere
		{Beta: 0.75, Budget: 3},
		{Beta: 0, Budget: 1}, // nothing degradable
	} {
		for _, mode := range []spfKernel{kernelFlat, kernelIncremental} {
			cfg := Config{Iterations: 60, Workers: 1, kernel: mode}
			cfg.Model = m
			fast, err := PrecomputeVariations(g, []*traffic.Matrix{d, d2}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Model = opaqueDegradation{m}
			ref, err := PrecomputeVariations(g, []*traffic.Matrix{d, d2}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(fast.MLU) != math.Float64bits(ref.MLU) {
				t.Fatalf("%v %v: MLU %v, generic path %v", m, mode, fast.MLU, ref.MLU)
			}
			fp, rp := denseProt(fast), denseProt(ref)
			for l := range rp {
				for e := range rp[l] {
					if math.Float64bits(fp[l][e]) != math.Float64bits(rp[l][e]) {
						t.Fatalf("%v %v: p_%d(%d) = %v, generic path %v", m, mode, l, e, fp[l][e], rp[l][e])
					}
				}
			}
			fb, rb := denseBase(fast), denseBase(ref)
			for k := range rb.Frac {
				for e := range rb.Frac[k] {
					if math.Float64bits(fb.Frac[k][e]) != math.Float64bits(rb.Frac[k][e]) {
						t.Fatalf("%v %v: r_%d(%d) = %v, generic path %v", m, mode, k, e, fb.Frac[k][e], rb.Frac[k][e])
					}
				}
			}
		}
	}
}
