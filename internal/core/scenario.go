package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"repro/internal/graph"
	"repro/internal/traffic"
)

// ScenarioKind labels what kind of disruption a Scenario models, so mixed
// sweeps and verify reports stay unambiguous.
type ScenarioKind string

const (
	// ScenarioFailure is a set of hard link failures (the classic X_F case).
	ScenarioFailure ScenarioKind = "failure"
	// ScenarioDegradation is a set of partial capacity losses within the
	// degradation envelope X_D.
	ScenarioDegradation ScenarioKind = "degradation"
	// ScenarioSurge is a demand spike on a subset of OD pairs.
	ScenarioSurge ScenarioKind = "surge"
	// ScenarioNode is a whole-router outage or maintenance window: every
	// link incident to the node is down (expressed through Failed).
	ScenarioNode ScenarioKind = "node"
)

// OD identifies one origin-destination pair of a traffic matrix.
type OD struct {
	Src, Dst graph.NodeID
}

// LinkDegradation is one partially degraded link: Frac of its capacity is
// lost (effective capacity (1-Frac)·c). Frac is strictly inside (0, 1) —
// a full loss is a hard failure and belongs in Scenario.Failed.
type LinkDegradation struct {
	Link graph.LinkID `json:"link"`
	Frac float64      `json:"frac"`
}

// Scenario generalizes the bare failure set: hard failures, partial
// capacity degradations, demand surges and node outages, in any
// combination. The zero value is the empty (no-op) scenario.
type Scenario struct {
	// Kind labels the scenario; constructors set it, and EffectiveKind
	// derives it from content when left empty.
	Kind ScenarioKind
	// Failed is the set of hard link failures.
	Failed graph.LinkSet
	// Node is the failed router for ScenarioNode (informational; Failed
	// already holds the incident-link expansion). -1 otherwise.
	Node graph.NodeID
	// Degraded lists partial capacity losses, applied after Failed.
	Degraded []LinkDegradation
	// SurgeScale multiplies the demand of SurgeODs (all pairs when nil).
	// Values <= 1 mean no surge.
	SurgeScale float64
	// SurgeODs restricts the surge to these OD pairs; nil surges every
	// commodity.
	SurgeODs []OD
}

// FailureScenario wraps a hard-failure set as a Scenario.
func FailureScenario(failed graph.LinkSet) Scenario {
	return Scenario{Kind: ScenarioFailure, Failed: failed, Node: -1}
}

// NodeScenario is the outage of router n: every link out of or into n is
// down, which the duplex-group machinery of FailAll handles like any
// other failure set.
func NodeScenario(g *graph.Graph, n graph.NodeID) Scenario {
	failed := graph.LinkSet{}
	for _, e := range g.Out(n) {
		failed.Add(e)
	}
	for _, e := range g.In(n) {
		failed.Add(e)
	}
	return Scenario{Kind: ScenarioNode, Failed: failed, Node: n}
}

// NodeScenarios enumerates the outage of every router in the graph.
func NodeScenarios(g *graph.Graph) []Scenario {
	out := make([]Scenario, 0, g.NumNodes())
	for n := 0; n < g.NumNodes(); n++ {
		out = append(out, NodeScenario(g, graph.NodeID(n)))
	}
	return out
}

// EffectiveKind returns the scenario's kind, classifying by content when
// the Kind field was left empty.
func (s Scenario) EffectiveKind() ScenarioKind {
	if s.Kind != "" {
		return s.Kind
	}
	switch {
	case len(s.Degraded) > 0:
		return ScenarioDegradation
	case s.SurgeScale > 1:
		return ScenarioSurge
	default:
		return ScenarioFailure
	}
}

// CapScale returns per-link effective-capacity factors (1 - lost
// fraction) for a graph with nL links, or nil when nothing is degraded —
// so purely hard-failure paths see a nil scale and stay bit-identical.
func (s Scenario) CapScale(nL int) []float64 {
	if len(s.Degraded) == 0 {
		return nil
	}
	scale := make([]float64, nL)
	for i := range scale {
		scale[i] = 1
	}
	for _, d := range s.Degraded {
		if int(d.Link) >= 0 && int(d.Link) < nL {
			scale[d.Link] = 1 - d.Frac
		}
	}
	return scale
}

// SurgeDemand returns the traffic matrix with the scenario's surge
// applied. Without a surge it returns d itself (the same pointer), so
// unsurged evaluation paths are untouched.
func (s Scenario) SurgeDemand(d *traffic.Matrix) *traffic.Matrix {
	if s.SurgeScale <= 1 {
		return d
	}
	out := d.Clone()
	if s.SurgeODs == nil {
		for a := 0; a < out.N; a++ {
			for b := 0; b < out.N; b++ {
				if v := out.At(graph.NodeID(a), graph.NodeID(b)); v > 0 {
					out.Set(graph.NodeID(a), graph.NodeID(b), v*s.SurgeScale)
				}
			}
		}
		return out
	}
	for _, od := range s.SurgeODs {
		if v := out.At(od.Src, od.Dst); v > 0 {
			out.Set(od.Src, od.Dst, v*s.SurgeScale)
		}
	}
	return out
}

// Describe renders a short human-readable label for reports.
func (s Scenario) Describe() string {
	var b strings.Builder
	b.WriteString(string(s.EffectiveKind()))
	if s.Kind == ScenarioNode && s.Node >= 0 {
		fmt.Fprintf(&b, " n%d", s.Node)
	}
	if s.Failed.Len() > 0 {
		fmt.Fprintf(&b, " fail%v", s.Failed.IDs())
	}
	for _, d := range s.Degraded {
		fmt.Fprintf(&b, " %d:%.3g", d.Link, d.Frac)
	}
	if s.SurgeScale > 1 {
		fmt.Fprintf(&b, " surge=%.3g", s.SurgeScale)
	}
	return b.String()
}

// SurgeSpec describes a flash-crowd envelope: the demand of the top Frac
// fraction of OD pairs (by demand, ties broken by (src, dst)) is scaled
// by Scale. Precompute folds the surged matrix into the protection bound
// as an extra hull vertex, so by convexity every partial surge up to
// Scale is covered too.
type SurgeSpec struct {
	Scale float64 // demand multiplier, > 1
	Frac  float64 // fraction of OD pairs surged, in (0, 1]
}

// Validate checks the surge parameters.
func (s SurgeSpec) Validate() error {
	if math.IsNaN(s.Scale) || math.IsInf(s.Scale, 0) || s.Scale <= 1 {
		return fmt.Errorf("surge scale %v must be finite and > 1", s.Scale)
	}
	if math.IsNaN(s.Frac) || s.Frac <= 0 || s.Frac > 1 {
		return fmt.Errorf("surge odfrac %v outside (0, 1]", s.Frac)
	}
	return nil
}

// ODs returns the surged OD pairs of d: the ceil(Frac·numPairs) largest
// demands, deterministically tie-broken by (src, dst) ascending.
func (s SurgeSpec) ODs(d *traffic.Matrix) []OD {
	type pair struct {
		od OD
		v  float64
	}
	var pairs []pair
	d.Pairs(func(a, b graph.NodeID, v float64) {
		pairs = append(pairs, pair{OD{a, b}, v})
	})
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].v != pairs[j].v {
			return pairs[i].v > pairs[j].v
		}
		if pairs[i].od.Src != pairs[j].od.Src {
			return pairs[i].od.Src < pairs[j].od.Src
		}
		return pairs[i].od.Dst < pairs[j].od.Dst
	})
	n := int(math.Ceil(s.Frac * float64(len(pairs))))
	if n < 1 {
		n = 1
	}
	if n > len(pairs) {
		n = len(pairs)
	}
	ods := make([]OD, n)
	for i := 0; i < n; i++ {
		ods[i] = pairs[i].od
	}
	return ods
}

// Apply returns the fully surged matrix (the envelope's extra hull
// vertex). d is not modified.
func (s SurgeSpec) Apply(d *traffic.Matrix) *traffic.Matrix {
	out := d.Clone()
	for _, od := range s.ODs(d) {
		out.Set(od.Src, od.Dst, out.At(od.Src, od.Dst)*s.Scale)
	}
	return out
}

// Scenario builds the evaluation scenario matching the envelope: the
// surged ODs of d spiked by Scale.
func (s SurgeSpec) Scenario(d *traffic.Matrix) Scenario {
	return Scenario{Kind: ScenarioSurge, Node: -1, SurgeScale: s.Scale, SurgeODs: s.ODs(d)}
}

// WorkloadSpec is the parsed form of the CLI/HTTP workload grammar, a
// comma-separated key=value list:
//
//	alpha=0.5,budget=2,surge=1.5,odfrac=0.25
//
// alpha is the per-link capacity floor (degradation enabled when < 1,
// losing up to β = 1-α per link), budget bounds the total degraded
// fraction, surge scales the top odfrac OD pairs. The zero value (or an
// empty string) is the inert spec: classic hard-failure protection only.
type WorkloadSpec struct {
	Alpha  float64 // capacity floor α in [0, 1]; degradation active when < 1
	Budget float64 // total-degraded-fraction bound B; defaults to 1 when degrading
	Surge  float64 // surge scale; active when > 1
	ODFrac float64 // surged OD fraction; defaults to 1 when surging
}

// ParseWorkloadSpec parses the workload grammar. Unknown or duplicate
// keys, NaN/Inf values and out-of-range parameters are rejected — this is
// the surface the fuzz target hammers.
func ParseWorkloadSpec(s string) (WorkloadSpec, error) {
	w := WorkloadSpec{Alpha: 1}
	s = strings.TrimSpace(s)
	if s == "" {
		return w, nil
	}
	seen := map[string]bool{}
	for _, part := range strings.Split(s, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return w, fmt.Errorf("workload: %q is not key=value", part)
		}
		key = strings.TrimSpace(key)
		if seen[key] {
			return w, fmt.Errorf("workload: duplicate key %q", key)
		}
		seen[key] = true
		x, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			return w, fmt.Errorf("workload: bad value for %q: %v", key, err)
		}
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return w, fmt.Errorf("workload: %s=%v is not finite", key, x)
		}
		switch key {
		case "alpha":
			if x < 0 || x > 1 {
				return w, fmt.Errorf("workload: alpha %v outside [0, 1]", x)
			}
			w.Alpha = x
		case "budget":
			if x <= 0 {
				return w, fmt.Errorf("workload: budget %v must be positive", x)
			}
			w.Budget = x
		case "surge":
			if x < 1 {
				return w, fmt.Errorf("workload: surge %v must be >= 1", x)
			}
			w.Surge = x
		case "odfrac":
			if x <= 0 || x > 1 {
				return w, fmt.Errorf("workload: odfrac %v outside (0, 1]", x)
			}
			w.ODFrac = x
		default:
			return w, fmt.Errorf("workload: unknown key %q", key)
		}
	}
	if w.Budget != 0 && w.Alpha == 1 {
		return w, fmt.Errorf("workload: budget without alpha < 1 has no effect")
	}
	if w.ODFrac != 0 && w.Surge <= 1 {
		return w, fmt.Errorf("workload: odfrac without surge > 1 has no effect")
	}
	if w.Degrades() && w.Budget == 0 {
		w.Budget = 1
	}
	if w.Surges() && w.ODFrac == 0 {
		w.ODFrac = 1
	}
	return w, nil
}

// Degrades reports whether the spec enables capacity degradation.
func (w WorkloadSpec) Degrades() bool { return w.Alpha < 1 }

// Surges reports whether the spec enables a demand surge.
func (w WorkloadSpec) Surges() bool { return w.Surge > 1 }

// Model returns the failure model the spec implies: a DegradationModel
// when degrading, otherwise the fallback (the classic model the caller
// would have used anyway).
func (w WorkloadSpec) Model(fallback FailureModel) FailureModel {
	if !w.Degrades() {
		return fallback
	}
	return DegradationModel{Beta: 1 - w.Alpha, Budget: w.Budget}
}

// SurgeSpec returns the surge envelope, or nil when the spec does not
// surge.
func (w WorkloadSpec) SurgeSpec() *SurgeSpec {
	if !w.Surges() {
		return nil
	}
	return &SurgeSpec{Scale: w.Surge, Frac: w.ODFrac}
}

// String renders the spec back into the grammar (round-trips through
// ParseWorkloadSpec).
func (w WorkloadSpec) String() string {
	var parts []string
	if w.Degrades() {
		parts = append(parts, fmt.Sprintf("alpha=%g", w.Alpha), fmt.Sprintf("budget=%g", w.Budget))
	}
	if w.Surges() {
		parts = append(parts, fmt.Sprintf("surge=%g", w.Surge), fmt.Sprintf("odfrac=%g", w.ODFrac))
	}
	return strings.Join(parts, ",")
}

// ParseDegradations parses a concrete degradation assignment
// "link:frac,link:frac" (e.g. "3:0.5,7:0.25") against a graph with nL
// links. Fractions must lie strictly in (0, 1) — a full loss is a hard
// failure, which has its own syntax everywhere this grammar appears.
func ParseDegradations(s string, nL int) ([]LinkDegradation, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	var out []LinkDegradation
	seen := map[int]bool{}
	for _, part := range strings.Split(s, ",") {
		ls, fs, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok {
			return nil, fmt.Errorf("degradation: %q is not link:frac", part)
		}
		l, err := strconv.Atoi(strings.TrimSpace(ls))
		if err != nil {
			return nil, fmt.Errorf("degradation: bad link id %q: %v", ls, err)
		}
		if l < 0 || l >= nL {
			return nil, fmt.Errorf("degradation: link %d out of range [0, %d)", l, nL)
		}
		if seen[l] {
			return nil, fmt.Errorf("degradation: link %d listed twice", l)
		}
		seen[l] = true
		f, err := strconv.ParseFloat(strings.TrimSpace(fs), 64)
		if err != nil {
			return nil, fmt.Errorf("degradation: bad fraction %q: %v", fs, err)
		}
		if math.IsNaN(f) || f <= 0 || f >= 1 {
			return nil, fmt.Errorf("degradation: fraction %v outside (0, 1) for link %d (a full loss is a failure)", f, l)
		}
		out = append(out, LinkDegradation{Link: graph.LinkID(l), Frac: f})
	}
	return out, nil
}

// SampleDegradations draws n random in-budget degradation scenarios from
// the envelope of m: each picks a few links, assigns each a capacity loss
// within its β cap, and never exceeds the budget. Deterministic in seed.
func SampleDegradations(g *graph.Graph, m DegradationModel, n int, seed int64) []Scenario {
	rng := rand.New(rand.NewSource(seed))
	nL := g.NumLinks()
	maxLinks := m.MaxFailures() + 2
	if maxLinks > nL {
		maxLinks = nL
	}
	out := make([]Scenario, 0, n)
	for i := 0; i < n; i++ {
		k := 1 + rng.Intn(maxLinks)
		links := rng.Perm(nL)[:k]
		sort.Ints(links)
		budget := m.Budget
		var degr []LinkDegradation
		for _, l := range links {
			b := m.beta(l)
			if b > budget {
				b = budget
			}
			if b <= 0 {
				continue
			}
			u := rng.Float64() * b
			if u < 1e-3 || u >= 1 {
				continue
			}
			degr = append(degr, LinkDegradation{Link: graph.LinkID(l), Frac: u})
			budget -= u
		}
		if len(degr) == 0 {
			continue
		}
		out = append(out, Scenario{Kind: ScenarioDegradation, Node: -1, Degraded: degr})
	}
	return out
}

// EnumerateFailures lists every failure set of up to maxFail links over
// nL links in depth-first pre-order ({0}, {0,1}, {0,1,2}, …), capped at
// maxScenarios (0 = no cap) — the exact order Plan.Verify has always
// used, now expressed in Scenario form.
func EnumerateFailures(nL, maxFail, maxScenarios int) []Scenario {
	var out []Scenario
	var rec func(start int, chosen []graph.LinkID)
	rec = func(start int, chosen []graph.LinkID) {
		if len(chosen) > 0 {
			if maxScenarios > 0 && len(out) >= maxScenarios {
				return
			}
			out = append(out, FailureScenario(graph.NewLinkSet(chosen...)))
		}
		if len(chosen) == maxFail {
			return
		}
		for e := start; e < nL; e++ {
			if maxScenarios > 0 && len(out) >= maxScenarios {
				return
			}
			rec(e+1, append(chosen, graph.LinkID(e)))
		}
	}
	rec(0, nil)
	return out
}
