package core

import (
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/traffic"
)

func TestParseWorkloadSpec(t *testing.T) {
	cases := []struct {
		in   string
		want WorkloadSpec
		ok   bool
	}{
		{"", WorkloadSpec{Alpha: 1}, true},
		{"  ", WorkloadSpec{Alpha: 1}, true},
		{"alpha=0.5", WorkloadSpec{Alpha: 0.5, Budget: 1}, true},
		{"alpha=0.5,budget=2", WorkloadSpec{Alpha: 0.5, Budget: 2}, true},
		{"alpha=0", WorkloadSpec{Alpha: 0, Budget: 1}, true},
		{"surge=1.5", WorkloadSpec{Alpha: 1, Surge: 1.5, ODFrac: 1}, true},
		{"surge=1.5,odfrac=0.25", WorkloadSpec{Alpha: 1, Surge: 1.5, ODFrac: 0.25}, true},
		{"alpha=0.5,budget=2,surge=1.5,odfrac=0.25",
			WorkloadSpec{Alpha: 0.5, Budget: 2, Surge: 1.5, ODFrac: 0.25}, true},
		{" alpha = 0.5 , budget = 2 ", WorkloadSpec{Alpha: 0.5, Budget: 2}, true},
		{"surge=1", WorkloadSpec{Alpha: 1, Surge: 1}, true}, // >= 1 allowed, inert
		{"alpha", WorkloadSpec{}, false},
		{"alpha=", WorkloadSpec{}, false},
		{"alpha=x", WorkloadSpec{}, false},
		{"alpha=NaN", WorkloadSpec{}, false},
		{"alpha=Inf", WorkloadSpec{}, false},
		{"alpha=-0.1", WorkloadSpec{}, false},
		{"alpha=1.1", WorkloadSpec{}, false},
		{"alpha=0.5,alpha=0.6", WorkloadSpec{}, false},
		{"budget=0", WorkloadSpec{}, false},
		{"budget=-1", WorkloadSpec{}, false},
		{"budget=2", WorkloadSpec{}, false}, // budget without alpha
		{"surge=0.5", WorkloadSpec{}, false},
		{"odfrac=0.5", WorkloadSpec{}, false}, // odfrac without surge
		{"odfrac=0", WorkloadSpec{}, false},
		{"odfrac=1.5", WorkloadSpec{}, false},
		{"bogus=1", WorkloadSpec{}, false},
	}
	for _, tc := range cases {
		got, err := ParseWorkloadSpec(tc.in)
		if tc.ok && err != nil {
			t.Errorf("ParseWorkloadSpec(%q) = error %v", tc.in, err)
			continue
		}
		if !tc.ok {
			if err == nil {
				t.Errorf("ParseWorkloadSpec(%q) accepted, got %+v", tc.in, got)
			}
			continue
		}
		if got != tc.want {
			t.Errorf("ParseWorkloadSpec(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
}

func TestWorkloadSpecStringRoundTrip(t *testing.T) {
	specs := []WorkloadSpec{
		{Alpha: 0.5, Budget: 1},
		{Alpha: 0.25, Budget: 2.5},
		{Alpha: 1, Surge: 1.5, ODFrac: 0.25},
		{Alpha: 0.5, Budget: 2, Surge: 2, ODFrac: 1},
	}
	for _, s := range specs {
		back, err := ParseWorkloadSpec(s.String())
		if err != nil {
			t.Fatalf("round trip %q: %v", s.String(), err)
		}
		if back != s {
			t.Fatalf("round trip %q = %+v, want %+v", s.String(), back, s)
		}
	}
	if s := (WorkloadSpec{Alpha: 1}).String(); s != "" {
		t.Fatalf("inert spec renders %q, want empty", s)
	}
}

func TestWorkloadSpecModel(t *testing.T) {
	fallback := ArbitraryFailures{F: 2}
	if m := (WorkloadSpec{Alpha: 1}).Model(fallback); m != FailureModel(fallback) {
		t.Fatalf("inert spec model = %v, want fallback", m)
	}
	m := (WorkloadSpec{Alpha: 0.25, Budget: 2}).Model(fallback)
	dm, ok := m.(DegradationModel)
	if !ok || dm.Beta != 0.75 || dm.Budget != 2 {
		t.Fatalf("degrading spec model = %#v, want DegradationModel{Beta:0.75, Budget:2}", m)
	}
	if sp := (WorkloadSpec{Alpha: 1}).SurgeSpec(); sp != nil {
		t.Fatalf("inert spec SurgeSpec = %+v, want nil", sp)
	}
	sp := (WorkloadSpec{Alpha: 1, Surge: 1.5, ODFrac: 0.3}).SurgeSpec()
	if sp == nil || sp.Scale != 1.5 || sp.Frac != 0.3 {
		t.Fatalf("SurgeSpec = %+v", sp)
	}
}

func TestParseDegradations(t *testing.T) {
	good, err := ParseDegradations(" 3:0.5 , 7:0.25 ", 10)
	if err != nil {
		t.Fatal(err)
	}
	want := []LinkDegradation{{Link: 3, Frac: 0.5}, {Link: 7, Frac: 0.25}}
	if !reflect.DeepEqual(good, want) {
		t.Fatalf("ParseDegradations = %+v, want %+v", good, want)
	}
	if out, err := ParseDegradations("", 10); err != nil || out != nil {
		t.Fatalf("empty spec = (%v, %v), want (nil, nil)", out, err)
	}
	bad := []string{
		"3",           // missing fraction
		"3:",          // empty fraction
		"x:0.5",       // bad link id
		"3:x",         // bad fraction
		"10:0.5",      // out of range
		"-1:0.5",      // negative id
		"3:0",         // zero fraction
		"3:1",         // full loss is a failure
		"3:1.5",       // above one
		"3:NaN",       // NaN
		"3:0.5,3:0.2", // duplicate link
	}
	for _, s := range bad {
		if _, err := ParseDegradations(s, 10); err == nil {
			t.Errorf("ParseDegradations(%q) accepted", s)
		}
	}
}

func TestSurgeSpecODsDeterministic(t *testing.T) {
	d := traffic.NewMatrix(4)
	d.Set(0, 1, 5)
	d.Set(1, 2, 9)
	d.Set(2, 3, 5) // ties with (0,1); (0,1) must win by (src, dst)
	d.Set(3, 0, 2)
	s := SurgeSpec{Scale: 2, Frac: 0.5}
	ods := s.ODs(d)
	want := []OD{{1, 2}, {0, 1}}
	if !reflect.DeepEqual(ods, want) {
		t.Fatalf("ODs = %v, want %v", ods, want)
	}
	// Frac small enough to round to zero pairs still surges at least one.
	if got := (SurgeSpec{Scale: 2, Frac: 0.01}).ODs(d); len(got) != 1 || got[0] != (OD{1, 2}) {
		t.Fatalf("tiny frac ODs = %v, want [{1 2}]", got)
	}
	surged := s.Apply(d)
	if surged.At(1, 2) != 18 || surged.At(0, 1) != 10 || surged.At(2, 3) != 5 || surged.At(3, 0) != 2 {
		t.Fatalf("Apply surged wrong entries: %v %v %v %v",
			surged.At(1, 2), surged.At(0, 1), surged.At(2, 3), surged.At(3, 0))
	}
	if d.At(1, 2) != 9 {
		t.Fatalf("Apply mutated the input matrix")
	}
	sc := s.Scenario(d)
	if sc.Kind != ScenarioSurge || sc.SurgeScale != 2 || !reflect.DeepEqual(sc.SurgeODs, want) {
		t.Fatalf("Scenario = %+v", sc)
	}
	if err := (SurgeSpec{Scale: 1, Frac: 0.5}).Validate(); err == nil {
		t.Fatalf("scale 1 accepted")
	}
	if err := (SurgeSpec{Scale: 2, Frac: 0}).Validate(); err == nil {
		t.Fatalf("frac 0 accepted")
	}
	if err := (SurgeSpec{Scale: 2, Frac: 0.5}).Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
}

func TestNodeScenarioExpansion(t *testing.T) {
	g := ring5(t)
	n := graph.NodeID(2)
	sc := NodeScenario(g, n)
	if sc.Kind != ScenarioNode || sc.Node != n {
		t.Fatalf("scenario = %+v", sc)
	}
	want := graph.LinkSet{}
	for e := 0; e < g.NumLinks(); e++ {
		l := g.Link(graph.LinkID(e))
		if l.Src == n || l.Dst == n {
			want.Add(graph.LinkID(e))
		}
	}
	if !sc.Failed.Equal(want) {
		t.Fatalf("Failed = %v, want every link incident to n%d = %v", sc.Failed.IDs(), n, want.IDs())
	}
	all := NodeScenarios(g)
	if len(all) != g.NumNodes() {
		t.Fatalf("NodeScenarios = %d entries, want %d", len(all), g.NumNodes())
	}
}

func TestEffectiveKind(t *testing.T) {
	cases := []struct {
		sc   Scenario
		want ScenarioKind
	}{
		{Scenario{}, ScenarioFailure},
		{Scenario{Failed: graph.NewLinkSet(1)}, ScenarioFailure},
		{Scenario{Degraded: []LinkDegradation{{Link: 1, Frac: 0.5}}}, ScenarioDegradation},
		{Scenario{SurgeScale: 1.5}, ScenarioSurge},
		{Scenario{Kind: ScenarioNode, Failed: graph.NewLinkSet(1, 2)}, ScenarioNode},
		// Mixed content: degradation wins the content-based classification.
		{Scenario{Failed: graph.NewLinkSet(1), Degraded: []LinkDegradation{{Link: 2, Frac: 0.5}}, SurgeScale: 2}, ScenarioDegradation},
	}
	for i, tc := range cases {
		if got := tc.sc.EffectiveKind(); got != tc.want {
			t.Errorf("case %d: EffectiveKind = %q, want %q", i, got, tc.want)
		}
	}
}

func TestScenarioCapScale(t *testing.T) {
	if s := (Scenario{Failed: graph.NewLinkSet(3)}).CapScale(5); s != nil {
		t.Fatalf("pure failure CapScale = %v, want nil", s)
	}
	sc := Scenario{Degraded: []LinkDegradation{{Link: 1, Frac: 0.25}, {Link: 3, Frac: 0.5}}}
	got := sc.CapScale(5)
	want := []float64{1, 0.75, 1, 0.5, 1}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("CapScale = %v, want %v", got, want)
	}
}

func TestScenarioSurgeDemand(t *testing.T) {
	d := traffic.NewMatrix(3)
	d.Set(0, 1, 4)
	d.Set(1, 2, 6)
	if got := (Scenario{}).SurgeDemand(d); got != d {
		t.Fatalf("no-surge SurgeDemand returned a new matrix")
	}
	all := (Scenario{SurgeScale: 2}).SurgeDemand(d)
	if all == d || all.At(0, 1) != 8 || all.At(1, 2) != 12 {
		t.Fatalf("uniform surge = %v %v", all.At(0, 1), all.At(1, 2))
	}
	sub := (Scenario{SurgeScale: 2, SurgeODs: []OD{{1, 2}}}).SurgeDemand(d)
	if sub.At(0, 1) != 4 || sub.At(1, 2) != 12 {
		t.Fatalf("subset surge = %v %v", sub.At(0, 1), sub.At(1, 2))
	}
	if d.At(0, 1) != 4 || d.At(1, 2) != 6 {
		t.Fatalf("SurgeDemand mutated the input")
	}
}

// TestEnumerateFailuresOrder pins the DFS pre-order that Plan.Verify has
// always walked: {0}, {0,1}, {0,2}, ..., {1}, {1,2}, ...
func TestEnumerateFailuresOrder(t *testing.T) {
	scs := EnumerateFailures(3, 2, 0)
	var got [][]graph.LinkID
	for _, sc := range scs {
		if sc.Kind != ScenarioFailure {
			t.Fatalf("kind = %q", sc.Kind)
		}
		got = append(got, sc.Failed.IDs())
	}
	want := [][]graph.LinkID{
		{0}, {0, 1}, {0, 2}, {1}, {1, 2}, {2},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("order = %v, want %v", got, want)
	}
	n := 14
	full := EnumerateFailures(n, 2, 0)
	if wantN := n + n*(n-1)/2; len(full) != wantN {
		t.Fatalf("count = %d, want %d", len(full), wantN)
	}
	capped := EnumerateFailures(n, 2, 5)
	if len(capped) != 5 {
		t.Fatalf("capped count = %d, want 5", len(capped))
	}
	for i := range capped {
		if !capped[i].Failed.Equal(full[i].Failed) {
			t.Fatalf("capped enumeration diverges at %d: %v vs %v",
				i, capped[i].Failed.IDs(), full[i].Failed.IDs())
		}
	}
}

func TestSampleDegradations(t *testing.T) {
	g := ring5(t)
	m := DegradationModel{Beta: 0.5, Budget: 1.5}
	a := SampleDegradations(g, m, 50, 123)
	b := SampleDegradations(g, m, 50, 123)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("SampleDegradations not deterministic in seed")
	}
	if len(a) == 0 {
		t.Fatalf("no scenarios sampled")
	}
	for i, sc := range a {
		if sc.Kind != ScenarioDegradation {
			t.Fatalf("scenario %d kind %q", i, sc.Kind)
		}
		var total float64
		seen := map[graph.LinkID]bool{}
		for _, dg := range sc.Degraded {
			if dg.Frac <= 0 || dg.Frac >= 1 {
				t.Fatalf("scenario %d: frac %v outside (0, 1)", i, dg.Frac)
			}
			if dg.Frac > m.beta(int(dg.Link))+1e-12 {
				t.Fatalf("scenario %d: frac %v exceeds beta", i, dg.Frac)
			}
			if seen[dg.Link] {
				t.Fatalf("scenario %d: link %d degraded twice", i, dg.Link)
			}
			seen[dg.Link] = true
			total += dg.Frac
		}
		if total > m.Budget+1e-12 {
			t.Fatalf("scenario %d: total degraded fraction %v exceeds budget %v", i, total, m.Budget)
		}
	}
}

func TestScenarioDescribe(t *testing.T) {
	sc := Scenario{
		Kind:       ScenarioDegradation,
		Node:       -1,
		Degraded:   []LinkDegradation{{Link: 3, Frac: 0.5}},
		SurgeScale: 1.5,
	}
	if got := sc.Describe(); got == "" {
		t.Fatalf("empty description")
	}
	n := NodeScenario(ring5(t), 1)
	if got := n.Describe(); got[:4] != "node" {
		t.Fatalf("node description %q", got)
	}
}
