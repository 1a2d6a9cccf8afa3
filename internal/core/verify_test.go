package core

import (
	"testing"
)

func TestVerifyCertifiedPlan(t *testing.T) {
	g := ring5(t)
	d := ring5Demand(g, 120)
	plan, err := Precompute(g, d, Config{Model: ArbitraryFailures{F: 1}, Iterations: 150})
	if err != nil {
		t.Fatal(err)
	}
	if !plan.CongestionFree() {
		t.Skipf("plan MLU %v > 1", plan.MLU)
	}
	rep, err := plan.Verify(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scenarios != g.NumLinks() {
		t.Fatalf("Scenarios = %d, want %d", rep.Scenarios, g.NumLinks())
	}
	if rep.Violations != 0 {
		t.Fatalf("certified plan has %d violations (worst %v at %v)",
			rep.Violations, rep.WorstMLU, rep.Worst.Failed)
	}
	if rep.WorstMLU > plan.MLU+1e-6 {
		t.Fatalf("worst %v above plan bound %v", rep.WorstMLU, plan.MLU)
	}
	if rep.Partitions != 0 {
		t.Fatalf("single failures partitioned ring5: %d", rep.Partitions)
	}
}

func TestVerifyTwoFailuresCountsPartitions(t *testing.T) {
	g := ring5(t) // has degree-2 nodes: some 2-link sets strand demand
	d := ring5Demand(g, 60)
	plan, err := Precompute(g, d, Config{Model: ArbitraryFailures{F: 2}, Iterations: 60})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := plan.Verify(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := g.NumLinks() + g.NumLinks()*(g.NumLinks()-1)/2
	if rep.Scenarios != want {
		t.Fatalf("Scenarios = %d, want %d", rep.Scenarios, want)
	}
	if rep.Partitions == 0 {
		t.Fatalf("expected partition scenarios on ring5 with 2 failures")
	}
}

func TestVerifyCapsScenarios(t *testing.T) {
	g := ring5(t)
	d := ring5Demand(g, 60)
	plan, err := Precompute(g, d, Config{Model: ArbitraryFailures{F: 1}, Iterations: 40})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := plan.Verify(2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scenarios != 5 {
		t.Fatalf("cap ignored: %d scenarios", rep.Scenarios)
	}
	if _, err := plan.Verify(0, 0); err == nil {
		t.Fatalf("maxFail=0 accepted")
	}
}
