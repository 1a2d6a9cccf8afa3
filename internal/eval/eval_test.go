package eval

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/protect"
	"repro/internal/topo"
	"repro/internal/traffic"
)

func abilenePlan(t testing.TB, total float64) (*graph.Graph, *traffic.Matrix, *core.Plan) {
	t.Helper()
	g := topo.Abilene()
	d := traffic.Gravity(g, total, 3)
	plan, err := core.Precompute(g, d, core.Config{
		Model: core.ArbitraryFailures{F: 1}, Iterations: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g, d, plan
}

func TestSingleLinks(t *testing.T) {
	g := topo.Abilene()
	sc := SingleLinks(g)
	if len(sc) != g.NumLinks() {
		t.Fatalf("len = %d", len(sc))
	}
	for i, s := range sc {
		if s.Len() != 1 || !s.Contains(graph.LinkID(i)) {
			t.Fatalf("scenario %d = %v", i, s)
		}
	}
}

func TestDuplexPairs(t *testing.T) {
	g := topo.Abilene()
	sc := DuplexPairs(g)
	if len(sc) != g.NumLinks()/2 {
		t.Fatalf("len = %d, want %d", len(sc), g.NumLinks()/2)
	}
	for _, s := range sc {
		if s.Len() != 2 {
			t.Fatalf("scenario %v not a duplex pair", s)
		}
		ids := s.IDs()
		if g.Link(ids[0]).Reverse != ids[1] {
			t.Fatalf("scenario %v links not reverses", s)
		}
	}
}

func TestSingleEventsUsesGroups(t *testing.T) {
	g := topo.USISP()
	sc := SingleEvents(g)
	if len(sc) != len(g.SRLGs())+len(g.MLGs()) {
		t.Fatalf("len = %d, want %d", len(sc), len(g.SRLGs())+len(g.MLGs()))
	}
	// Fallback for graphs without groups.
	g2 := topo.Abilene()
	if got := SingleEvents(g2); len(got) != g2.NumLinks()/2 {
		t.Fatalf("fallback len = %d", len(got))
	}
}

func TestAllPairsAndSample(t *testing.T) {
	g := topo.Abilene()
	events := DuplexPairs(g)
	pairs := AllPairs(events)
	want := len(events) * (len(events) - 1) / 2
	if len(pairs) != want {
		t.Fatalf("pairs = %d, want %d", len(pairs), want)
	}
	sampled := Sample(events, 3, 40, 7)
	if len(sampled) != 40 {
		t.Fatalf("sampled = %d", len(sampled))
	}
	seen := map[string]bool{}
	for _, s := range sampled {
		if s.Len() < 3 { // unions of 3 duplex pairs have >= 3 links
			t.Fatalf("sample too small: %v", s)
		}
		if seen[s.String()] {
			t.Fatalf("duplicate sample %v", s)
		}
		seen[s.String()] = true
	}
	// Deterministic for a given seed.
	again := Sample(events, 3, 40, 7)
	for i := range again {
		if !again[i].Equal(sampled[i]) {
			t.Fatalf("sampling not deterministic")
		}
	}
}

func TestR3SchemeCongestionFree(t *testing.T) {
	g, d, plan := abilenePlan(t, 250)
	if !plan.CongestionFree() {
		t.Skipf("plan MLU %v > 1; demand too high for this topology", plan.MLU)
	}
	s := &R3Scheme{Label: "MPLS-ff+R3", Plan: plan}
	for _, sc := range SingleLinks(g) {
		loads := s.Loads(sc, d)
		if b := protect.Bottleneck(g, sc, loads); b > plan.MLU+1e-6 {
			t.Fatalf("scenario %v: bottleneck %v > plan MLU %v", sc, b, plan.MLU)
		}
	}
}

func TestEngineEvaluate(t *testing.T) {
	g, d, plan := abilenePlan(t, 250)
	en := &Engine{
		G: g,
		Schemes: []protect.Scheme{
			&R3Scheme{Label: "MPLS-ff+R3", Plan: plan},
			&protect.OSPFRecon{G: g},
		},
		OptimalIterations: 80,
	}
	scenarios := SingleLinks(g)[:6]
	results := en.Evaluate(d, scenarios)
	if len(results) != 6 {
		t.Fatalf("results = %d", len(results))
	}
	for _, r := range results {
		if r.Optimal <= 0 {
			t.Fatalf("optimal bottleneck %v", r.Optimal)
		}
		if r.Ratio("MPLS-ff+R3") < 1 || r.Ratio("OSPF+recon") < 1 {
			t.Fatalf("ratio below 1: %+v", r)
		}
	}
}

func TestWorstCaseAndSorting(t *testing.T) {
	results := []Result{
		{Bottleneck: map[string]float64{"A": 0.5, "B": 0.9}, Optimal: 0.4},
		{Bottleneck: map[string]float64{"A": 0.8, "B": 0.6}, Optimal: 0.4},
	}
	w := WorstCase(results)
	if w["A"] != 0.8 || w["B"] != 0.9 {
		t.Fatalf("WorstCase = %v", w)
	}
	ratios := SortedRatios(results, "A")
	if len(ratios) != 2 || ratios[0] > ratios[1] {
		t.Fatalf("SortedRatios = %v", ratios)
	}
	if math.Abs(ratios[0]-1.25) > 1e-12 || math.Abs(ratios[1]-2.0) > 1e-12 {
		t.Fatalf("SortedRatios = %v", ratios)
	}
}

func TestRatioClamp(t *testing.T) {
	r := Result{Bottleneck: map[string]float64{"A": 0.3}, Optimal: 0.4}
	if r.Ratio("A") != 1 {
		t.Fatalf("Ratio = %v, want clamp to 1", r.Ratio("A"))
	}
	// A positive bottleneck against a zero optimum is an infinitely bad
	// ratio, not a perfect one: +Inf sorts last in SortedRatios instead of
	// silently reporting the scheme as optimal.
	r0 := Result{Bottleneck: map[string]float64{"A": 0.3}, Optimal: 0}
	if !math.IsInf(r0.Ratio("A"), 1) {
		t.Fatalf("zero-optimal positive-bottleneck ratio = %v, want +Inf", r0.Ratio("A"))
	}
	// Zero over zero is genuinely "nothing to route": ratio 1.
	rz := Result{Bottleneck: map[string]float64{"A": 0}, Optimal: 0}
	if rz.Ratio("A") != 1 {
		t.Fatalf("zero/zero ratio = %v, want 1", rz.Ratio("A"))
	}
}

func TestClassBottlenecks(t *testing.T) {
	g := topo.Abilene()
	total := traffic.Gravity(g, 200, 3)
	classes := traffic.SplitClasses(total, 0.1, 0.2, 4)
	plan, err := core.PrecomputePrioritized(g, []core.Priority{
		{Demand: classes[traffic.TPRT], F: 2},
		{Demand: classes[traffic.TPP], F: 1},
		{Demand: classes[traffic.IP], F: 1},
	}, core.Config{Iterations: 80})
	if err != nil {
		t.Fatal(err)
	}
	failed := graph.NewLinkSet(0)
	bs := ClassBottlenecks(plan, classes, failed)
	if len(bs) != 3 {
		t.Fatalf("got %d classes", len(bs))
	}
	// Class bottlenecks measure each class alone, so each is below the
	// all-traffic bottleneck.
	st := core.NewState(plan)
	if err := st.Fail(0); err != nil {
		t.Fatal(err)
	}
	allB := protect.Bottleneck(g, failed, st.Loads())
	for cls, b := range bs {
		if b > allB+1e-9 {
			t.Fatalf("class %v bottleneck %v exceeds total %v", cls, b, allB)
		}
		if b < 0 {
			t.Fatalf("negative bottleneck for %v", cls)
		}
	}
}
