package core

import (
	"bytes"
	"os"
	"testing"

	"repro/internal/graph"
)

// TestScenarioByteIdentity is the hard-failure regression gate of the
// generalized scenario model: a degradation envelope with α = 0 (β = 1)
// and an integer budget IS the classic X_F model, and must produce a plan
// byte-identical to the golden fixture the classic config wrote — the
// canonicalization in PrecomputeVariations, not a near-miss re-solve.
func TestScenarioByteIdentity(t *testing.T) {
	golden, err := os.ReadFile("testdata/plan_arbitrary.json")
	if err != nil {
		t.Fatal(err)
	}
	g := ring5(t)
	d := ring5Demand(g, 20)
	plan, err := Precompute(g, d, Config{
		Model:      DegradationModel{Beta: 1, Budget: 1},
		Iterations: 40,
		Workers:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := plan.EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, golden) {
		t.Fatalf("alpha=0 degradation plan differs from classic golden (%d vs %d bytes)",
			len(got), len(golden))
	}
	// The canonicalized plan must also round-trip with the classic model
	// type, so decoders never see a "degradation" wire model for it.
	if _, ok := plan.Model.(ArbitraryFailures); !ok {
		t.Fatalf("canonicalized plan model is %T, want ArbitraryFailures", plan.Model)
	}
}

// TestScenarioByteIdentityBudget2 checks the canonicalization at a higher
// integer budget against a freshly solved classic config (no golden needed
// at F=2): both paths must emit identical bytes.
func TestScenarioByteIdentityBudget2(t *testing.T) {
	g := ring5(t)
	d := ring5Demand(g, 20)
	classic, err := Precompute(g, d, Config{
		Model: ArbitraryFailures{F: 2}, Iterations: 40, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	envelope, err := Precompute(g, d, Config{
		Model: DegradationModel{Beta: 1, Budget: 2}, Iterations: 40, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := classic.EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	b, err := envelope.EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("beta=1 budget=2 plan differs from ArbitraryFailures{F:2} plan")
	}
}

// TestVerifyScenariosKinds drives VerifyScenarios over a mixed population
// and checks the per-kind accounting and worst-case tracking.
func TestVerifyScenariosKinds(t *testing.T) {
	g := ring5(t)
	d := ring5Demand(g, 20)
	plan, err := Precompute(g, d, Config{
		Model: ArbitraryFailures{F: 1}, Iterations: 40, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var scs []Scenario
	scs = append(scs, EnumerateFailures(g.NumLinks(), 1, 0)...)
	nFail := len(scs)
	scs = append(scs, Scenario{Kind: ScenarioDegradation, Node: -1, Degraded: []LinkDegradation{{Link: 0, Frac: 0.5}}})
	scs = append(scs, NodeScenarios(g)...)
	scs = append(scs, Scenario{Kind: ScenarioSurge, Node: -1, SurgeScale: 1.2})

	rep, err := plan.VerifyScenarios(scs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scenarios != len(scs) {
		t.Fatalf("Scenarios = %d, want %d", rep.Scenarios, len(scs))
	}
	if rep.ByKind[ScenarioFailure] != nFail {
		t.Fatalf("failure count = %d, want %d", rep.ByKind[ScenarioFailure], nFail)
	}
	if rep.ByKind[ScenarioDegradation] != 1 {
		t.Fatalf("degradation count = %d, want 1", rep.ByKind[ScenarioDegradation])
	}
	if rep.ByKind[ScenarioNode] != g.NumNodes() {
		t.Fatalf("node count = %d, want %d", rep.ByKind[ScenarioNode], g.NumNodes())
	}
	if rep.ByKind[ScenarioSurge] != 1 {
		t.Fatalf("surge count = %d, want 1", rep.ByKind[ScenarioSurge])
	}
	if rep.WorstMLU <= 0 {
		t.Fatalf("WorstMLU = %v", rep.WorstMLU)
	}
	if rep.Worst.Describe() == "" {
		t.Fatalf("worst scenario not recorded")
	}
	// Node outages on ring5 isolate a router's demand: partitions must be
	// detected, and they come from the node scenarios, not single links.
	if rep.Partitions == 0 {
		t.Fatalf("node outages should partition demand on ring5")
	}
}

// TestVerifyClassicUnchanged: the Scenario-based Verify must report
// exactly what the pre-scenario implementation did for plain failure
// enumeration — same scenario count, same DFS worst-case bookkeeping.
func TestVerifyClassicUnchanged(t *testing.T) {
	g := ring5(t)
	d := ring5Demand(g, 20)
	plan, err := Precompute(g, d, Config{
		Model: ArbitraryFailures{F: 1}, Iterations: 40, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := plan.Verify(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scenarios != g.NumLinks() {
		t.Fatalf("Scenarios = %d, want %d", rep.Scenarios, g.NumLinks())
	}
	if rep.ByKind[ScenarioFailure] != g.NumLinks() {
		t.Fatalf("ByKind[failure] = %d, want %d", rep.ByKind[ScenarioFailure], g.NumLinks())
	}
	if rep.Worst.Failed.Len() == 0 {
		t.Fatalf("worst failure set empty")
	}
}

// TestVerifyScenariosDegradationBound: a plan certified against the
// degradation envelope keeps every in-envelope replay under its MLU.
func TestVerifyScenariosDegradationBound(t *testing.T) {
	g := ring5(t)
	d := ring5Demand(g, 20)
	model := DegradationModel{Beta: 0.5, Budget: 1}
	plan, err := Precompute(g, d, Config{Model: model, Iterations: 60, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !plan.CongestionFree() {
		t.Skipf("plan MLU %v > 1; envelope soundness needs a congestion-free plan", plan.MLU)
	}
	scs := SampleDegradations(g, model, 64, 5)
	scs = append(scs, EnumerateFailures(g.NumLinks(), 1, 0)...)
	rep, err := plan.VerifyScenarios(scs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violations != 0 {
		t.Fatalf("%d violations; worst %v at %s (certified %v)",
			rep.Violations, rep.WorstMLU, rep.Worst.Describe(), plan.MLU)
	}
}

// TestApplyScenarioRejectsComposition: degrade-then-fail (or the reverse)
// on one link is outside the envelope and must be refused atomically.
func TestApplyScenarioRejectsComposition(t *testing.T) {
	g := ring5(t)
	d := ring5Demand(g, 20)
	plan, err := Precompute(g, d, Config{
		Model: ArbitraryFailures{F: 1}, Iterations: 40, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := NewState(plan)
	bad := Scenario{
		Failed:   graph.NewLinkSet(0),
		Node:     -1,
		Degraded: []LinkDegradation{{Link: 0, Frac: 0.5}},
	}
	if err := st.ApplyScenario(bad); err == nil {
		t.Fatalf("fail+degrade composition on one link accepted")
	}
	st2 := NewState(plan)
	if err := st2.Degrade(3, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := st2.Fail(3); err == nil {
		t.Fatalf("failing a degraded link accepted")
	}
	if err := st2.Degrade(3, 0.2); err == nil {
		t.Fatalf("degrading a link twice accepted")
	}
	for _, frac := range []float64{0, 1, -0.5, 1.5} {
		if err := st2.Degrade(4, frac); err == nil {
			t.Fatalf("Degrade accepted frac %v", frac)
		}
	}
}
