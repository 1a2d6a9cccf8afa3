package core

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/spf"
	"repro/internal/traffic"
)

// ring5 builds a 5-node ring with two chords, generous capacities.
func ring5(t testing.TB) *graph.Graph {
	t.Helper()
	g := graph.New("ring5")
	n := make([]graph.NodeID, 5)
	names := []string{"a", "b", "c", "d", "e"}
	for i, s := range names {
		n[i] = g.AddNode(s)
	}
	for i := 0; i < 5; i++ {
		g.AddDuplex(n[i], n[(i+1)%5], 100, 1, 1)
	}
	g.AddDuplex(n[0], n[2], 100, 1, 1)
	g.AddDuplex(n[1], n[3], 100, 1, 1)
	return g
}

func ring5Demand(g *graph.Graph, total float64) *traffic.Matrix {
	return traffic.Gravity(g, total, 11)
}

func validateProt(t *testing.T, g *graph.Graph, prot []routing.SparseRow) {
	t.Helper()
	f := routing.NewFlow(g, routing.LinkCommodities(g))
	for l := range prot {
		prot[l].Scatter(f.Frac[l])
	}
	if err := f.Validate(1e-6); err != nil {
		t.Fatalf("protection routing invalid: %v", err)
	}
}

func TestLPParallelLinksOptimal(t *testing.T) {
	// The §3.3 network with demand 20 from i to j. R3 is optimal for
	// parallel links (Proposition 1); the joint optimum is r and p both
	// proportional to capacity: MLU = 20/100 + 40/100 = 0.6.
	g := graph.New("par4")
	i := g.AddNode("i")
	j := g.AddNode("j")
	g.AddLink(i, j, 10, 1, 1)
	g.AddLink(i, j, 20, 1, 1)
	g.AddLink(i, j, 30, 1, 1)
	g.AddLink(i, j, 40, 1, 1)
	d := traffic.NewMatrix(2)
	d.Set(i, j, 20)
	plan, err := Precompute(g, d, Config{Model: ArbitraryFailures{F: 1}, Solver: SolverLP})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(plan.MLU-0.6) > 1e-6 {
		t.Fatalf("LP MLU = %v, want 0.6", plan.MLU)
	}
	validateProt(t, g, plan.Prot)
	if err := denseBase(plan).Validate(1e-6); err != nil {
		t.Fatalf("base invalid: %v", err)
	}
	// Evaluate must agree with the LP objective.
	if ev := plan.Evaluate(); math.Abs(ev-plan.MLU) > 1e-6 {
		t.Fatalf("Evaluate = %v, MLU = %v", ev, plan.MLU)
	}
}

// enumerate k-subsets of links and verify the Theorem 1 guarantee.
func checkTheorem1(t *testing.T, plan *Plan, maxFail int) {
	t.Helper()
	if !plan.CongestionFree() {
		t.Fatalf("plan MLU %v > 1: pick a smaller demand for this test", plan.MLU)
	}
	g := plan.G
	nL := g.NumLinks()
	var rec func(start int, chosen []graph.LinkID)
	rec = func(start int, chosen []graph.LinkID) {
		if len(chosen) > 0 {
			st := NewState(plan)
			if err := st.FailAll(chosen...); err != nil {
				t.Fatal(err)
			}
			if mlu := st.MLU(); mlu > plan.MLU+1e-6 {
				t.Fatalf("failures %v: MLU %v exceeds plan MLU %v", chosen, mlu, plan.MLU)
			}
		}
		if len(chosen) == maxFail {
			return
		}
		for e := start; e < nL; e++ {
			rec(e+1, append(chosen, graph.LinkID(e)))
		}
	}
	rec(0, nil)
}

func TestTheorem1SingleFailureLP(t *testing.T) {
	g := ring5(t)
	d := ring5Demand(g, 120)
	plan, err := Precompute(g, d, Config{Model: ArbitraryFailures{F: 1}, Solver: SolverLP})
	if err != nil {
		t.Fatal(err)
	}
	validateProt(t, g, plan.Prot)
	checkTheorem1(t, plan, 1)
}

// mesh6 builds a 6-node ring plus all three diagonals: minimum degree 3,
// so two arbitrary link failures can never partition it (a requirement
// for an F=2 congestion-free plan to exist at all).
func mesh6(t testing.TB) *graph.Graph {
	t.Helper()
	g := graph.New("mesh6")
	n := make([]graph.NodeID, 6)
	for i := 0; i < 6; i++ {
		n[i] = g.AddNode(string(rune('a' + i)))
	}
	for i := 0; i < 6; i++ {
		g.AddDuplex(n[i], n[(i+1)%6], 100, 1, 1)
	}
	for i := 0; i < 3; i++ {
		g.AddDuplex(n[i], n[i+3], 100, 1, 1)
	}
	return g
}

func TestTheorem1DoubleFailureLP(t *testing.T) {
	g := mesh6(t)
	d := traffic.Gravity(g, 40, 11)
	plan, err := Precompute(g, d, Config{Model: ArbitraryFailures{F: 2}, Solver: SolverLP})
	if err != nil {
		t.Fatal(err)
	}
	checkTheorem1(t, plan, 2)
}

func TestTheorem1SingleFailureFW(t *testing.T) {
	g := ring5(t)
	d := ring5Demand(g, 120)
	plan, err := Precompute(g, d, Config{Model: ArbitraryFailures{F: 1}, Iterations: 150})
	if err != nil {
		t.Fatal(err)
	}
	validateProt(t, g, plan.Prot)
	if err := denseBase(plan).Validate(1e-6); err != nil {
		t.Fatalf("base invalid: %v", err)
	}
	checkTheorem1(t, plan, 1)
}

func TestFWTracksLP(t *testing.T) {
	g := ring5(t)
	d := ring5Demand(g, 120)
	exact, err := Precompute(g, d, Config{Model: ArbitraryFailures{F: 1}, Solver: SolverLP})
	if err != nil {
		t.Fatal(err)
	}
	approx, err := Precompute(g, d, Config{Model: ArbitraryFailures{F: 1}, Iterations: 250})
	if err != nil {
		t.Fatal(err)
	}
	if approx.MLU < exact.MLU-1e-6 {
		t.Fatalf("FW (%v) beat exact LP (%v): LP must be wrong", approx.MLU, exact.MLU)
	}
	if approx.MLU > exact.MLU*1.12 {
		t.Fatalf("FW MLU %v too far above LP %v", approx.MLU, exact.MLU)
	}
}

func TestFixedBaseRouting(t *testing.T) {
	// OSPF+R3: base fixed to ECMP shortest paths; only p is optimized.
	g := ring5(t)
	d := ring5Demand(g, 120)
	comms := routing.ODCommodities(g.NumNodes(), d.At)
	ospf := spf.ECMPFlow(g, comms, nil, spf.WeightCost(g))
	plan, err := Precompute(g, d, Config{
		Model: ArbitraryFailures{F: 1}, BaseRouting: ospf, Iterations: 150,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Base must be exactly the OSPF flow.
	base := denseBase(plan)
	for k := range comms {
		for e := 0; e < g.NumLinks(); e++ {
			if math.Abs(base.Frac[k][e]-ospf.Frac[k][e]) > 1e-9 {
				t.Fatalf("base routing was modified at commodity %d link %d", k, e)
			}
		}
	}
	// Joint optimization can only be better or equal.
	joint, err := Precompute(g, d, Config{Model: ArbitraryFailures{F: 1}, Iterations: 150})
	if err != nil {
		t.Fatal(err)
	}
	if joint.MLU > plan.MLU+0.02 {
		t.Fatalf("joint (%v) worse than fixed-base (%v)", joint.MLU, plan.MLU)
	}
	checkTheorem1(t, plan, 1)
}

func TestPenaltyEnvelopeFW(t *testing.T) {
	g := ring5(t)
	d := ring5Demand(g, 200)
	beta := 1.1
	plan, err := Precompute(g, d, Config{
		Model: ArbitraryFailures{F: 1}, Iterations: 200, PenaltyEnvelope: beta,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The normal-case MLU must stay within beta of optimal (with slack
	// for the iterative solvers on both sides).
	opt, err := Precompute(g, d, Config{Model: ArbitraryFailures{F: 0}, Iterations: 200})
	if err != nil {
		t.Fatal(err)
	}
	if plan.NormalMLU > beta*opt.NormalMLU*1.1 {
		t.Fatalf("normal MLU %v breaches envelope %v × optimal %v",
			plan.NormalMLU, beta, opt.NormalMLU)
	}
}

func TestPenaltyEnvelopeLP(t *testing.T) {
	g := ring5(t)
	d := ring5Demand(g, 200)
	plan, err := Precompute(g, d, Config{
		Model: ArbitraryFailures{F: 1}, Solver: SolverLP, PenaltyEnvelope: 1.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	noEnv, err := Precompute(g, d, Config{Model: ArbitraryFailures{F: 1}, Solver: SolverLP})
	if err != nil {
		t.Fatal(err)
	}
	// The envelope restricts the feasible set, so the protected MLU can
	// only get worse (or equal).
	if plan.MLU < noEnv.MLU-1e-6 {
		t.Fatalf("envelope improved protected MLU: %v < %v", plan.MLU, noEnv.MLU)
	}
}

func TestDelayEnvelopeLP(t *testing.T) {
	// With a tight delay envelope the base routing must stay near the
	// direct (min-delay) paths.
	g := ring5(t)
	d := ring5Demand(g, 60)
	plan, err := Precompute(g, d, Config{
		Model: ArbitraryFailures{F: 1}, Solver: SolverLP, DelayEnvelope: 1.0,
	})
	if err != nil {
		t.Fatal(err)
	}
	base := denseBase(plan)
	for k, c := range plan.Comms {
		dist := delayDistTo(g, c.Dst)
		if got := base.AvgPathDelay(k); got > dist[c.Src]*1.0+1e-6 {
			t.Fatalf("commodity %d delay %v exceeds bound %v", k, got, dist[c.Src])
		}
	}
}

func TestPrecomputeVariations(t *testing.T) {
	g := ring5(t)
	d1 := ring5Demand(g, 100)
	d2 := ring5Demand(g, 100)
	// Make d2 differ: swap intensity toward one pair.
	d2.Set(0, 3, d2.At(0, 3)*3)
	plan, err := PrecomputeVariations(g, []*traffic.Matrix{d1, d2}, Config{
		Model: ArbitraryFailures{F: 1}, Iterations: 150,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !plan.CongestionFree() {
		t.Fatalf("variation plan MLU = %v", plan.MLU)
	}
	// The plan must cover both matrices: per-matrix base load + virtual
	// load within MLU.
	for _, d := range []*traffic.Matrix{d1, d2} {
		fl := denseBase(plan)
		fl.SetDemands(d.At)
		loads := fl.Loads()
		for e := 0; e < g.NumLinks(); e++ {
			u := (loads[e] + virtualLoad(plan, graph.LinkID(e))) / g.Link(graph.LinkID(e)).Capacity
			if u > plan.MLU+1e-6 {
				t.Fatalf("matrix not covered: link %d utilization %v > %v", e, u, plan.MLU)
			}
		}
	}
}

func TestPrecomputePrioritized(t *testing.T) {
	g := ring5(t)
	total := ring5Demand(g, 150)
	classes := traffic.SplitClasses(total, 0.15, 0.25, 9)
	plan, err := PrecomputePrioritized(g, []Priority{
		{Demand: classes[traffic.TPRT], F: 3},
		{Demand: classes[traffic.TPP], F: 2},
		{Demand: classes[traffic.IP], F: 1},
	}, Config{Iterations: 150})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Model.MaxFailures() != 3 {
		t.Fatalf("plan model covers %d failures, want 3", plan.Model.MaxFailures())
	}
	// The TPRT-only demand with F=3 virtual load must fit within MLU.
	tprt := denseBase(plan)
	tprt.SetDemands(classes[traffic.TPRT].At)
	loads := tprt.Loads()
	m3 := ArbitraryFailures{F: 3}
	nL := g.NumLinks()
	for e := 0; e < nL; e++ {
		v := make([]float64, nL)
		for l := 0; l < nL; l++ {
			v[l] = g.Link(graph.LinkID(l)).Capacity * planCell(&plan.Prot[l], int32(e))
		}
		u := (loads[e] + m3.WorstLoad(v)) / g.Link(graph.LinkID(e)).Capacity
		if u > plan.MLU+1e-6 {
			t.Fatalf("TPRT requirement violated at link %d: %v > %v", e, u, plan.MLU)
		}
	}
}

func TestPrecomputeErrors(t *testing.T) {
	g := ring5(t)
	d := ring5Demand(g, 10)
	if _, err := PrecomputeVariations(g, nil, Config{}); err == nil {
		t.Fatalf("empty matrices accepted")
	}
	if _, err := PrecomputePrioritized(g, nil, Config{}); err == nil {
		t.Fatalf("empty classes accepted")
	}
	if _, err := PrecomputePrioritized(g, []Priority{{Demand: d, F: 1}}, Config{Solver: SolverLP}); err == nil {
		t.Fatalf("prioritized LP accepted")
	}
	if _, err := Precompute(g, d, Config{Solver: SolverLP, Model: GroupFailures{K: 1}}); err == nil {
		t.Fatalf("LP with group model accepted")
	}
}

func TestGroupFailureModelPlan(t *testing.T) {
	// SRLG-protected plan: the duplex pair (0,1) fails together.
	g := ring5(t)
	g.AddSRLG(0, 1)
	g.AddSRLG(2, 3)
	g.AddMLG(4, 5)
	d := ring5Demand(g, 100)
	model := ModelFromGraph(g, 1)
	plan, err := Precompute(g, d, Config{Model: model, Iterations: 120})
	if err != nil {
		t.Fatal(err)
	}
	if !plan.CongestionFree() {
		t.Fatalf("SRLG plan MLU = %v", plan.MLU)
	}
	// Failing a whole SRLG plus the MLG must stay within the plan MLU.
	st := NewState(plan)
	if err := st.FailAll(0, 1, 4, 5); err != nil {
		t.Fatal(err)
	}
	if mlu := st.MLU(); mlu > plan.MLU+1e-6 {
		t.Fatalf("SRLG+MLG failure MLU %v > plan %v", mlu, plan.MLU)
	}
}
