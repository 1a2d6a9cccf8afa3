package mcf

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// lineSearchFull is the line search as it was before maxCandidates: every
// probe scans every link. It is the oracle lineSearch is held to bit for
// bit.
func lineSearchFull(a, b, cap []float64) float64 {
	eval := func(g float64) float64 {
		max := 0.0
		for e := range a {
			if u := ((1-g)*a[e] + g*b[e]) / cap[e]; u > max {
				max = u
			}
		}
		return max
	}
	lo, hi := 0.0, 1.0
	for i := 0; i < 40; i++ {
		m1 := lo + (hi-lo)/3
		m2 := hi - (hi-lo)/3
		if eval(m1) <= eval(m2) {
			hi = m2
		} else {
			lo = m1
		}
	}
	g := (lo + hi) / 2
	if eval(g) >= eval(0) {
		return 0
	}
	return g
}

// TestLineSearchMatchesFullScan holds lineSearch's γ to the full scan's,
// bit for bit, on every line search a min-MLU solve runs on ring5, mesh6,
// Abilene, SBC and generated-100 (every tenth commodity) — the dense
// oracle's, whose iterates are MinMLU's bit for bit
// (TestMinMLUMatchesDenseOracle), run past the gap stop — with and without
// a failed duplex link, and on hand rows: ties at the maximum, zero loads, a
// link within 1e-12 of the one that beats the rest, links the filter must
// leave alone (zero, infinite and NaN utilisations) and loads at the
// subnormal edge. One scratch serves every call.
func TestLineSearchMatchesFullScan(t *testing.T) {
	var sc Scratch
	calls, kept, links := 0, 0, 0
	check := func(name string, a, b, cap []float64) {
		t.Helper()
		got, want := lineSearch(a, b, cap, &sc), lineSearchFull(a, b, cap)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: γ = %v, full scan %v (a %v, b %v, cap %v)", name, got, want, a, b, cap)
		}
		calls++
		kept += len(sc.cand)
		links += len(a)
	}
	for _, tc := range []struct {
		g      *graph.Graph
		stride int
	}{
		{ring5(), 1}, {topo.Mesh("mesh6", 6, 18, 6, 100), 1}, {topo.Abilene(), 1}, {topo.SBC(), 1}, {topo.Generated(), 10},
	} {
		g := tc.g
		var comms []routing.Commodity
		for k, c := range routing.ODCommodities(g.NumNodes(), traffic.Gravity(g, 0.2*g.TotalCapacity(), 3).At) {
			if k%tc.stride == 0 {
				comms = append(comms, c)
			}
		}
		var down graph.LinkSet
		down.Add(0)
		down.Add(g.Link(0).Reverse)
		for _, opts := range []Options{
			{Iterations: 100, relTol: 1e-9},
			{Iterations: 100, relTol: 1e-9, Alive: func(id graph.LinkID) bool { return !down.Contains(id) }},
		} {
			minMLUDenseProbe(g, comms, opts, func(a, b, cap []float64) { check(g.Name, a, b, cap) })
		}
	}
	if calls == 0 || kept >= links {
		t.Fatalf("%d line searches kept %d of %d link probes: the filter is not exercised", calls, kept, links)
	}
	t.Logf("%d line searches probe %d of %d links", calls, kept, links)

	near := 1 - 1e-12
	inf, nan := math.Inf(1), math.NaN()
	for _, tc := range []struct {
		name    string
		a, b, c []float64
	}{
		{"tie at the max", []float64{4, 4, 1, 2}, []float64{1, 1, 3, 3}, []float64{1, 1, 1, 1}},
		{"tie at one end", []float64{4, 4, 1}, []float64{1, 2, 3}, []float64{1, 1, 1}},
		{"tied lines", []float64{2, 2, 2}, []float64{2, 2, 2}, []float64{1, 1, 1}},
		{"zero loads", []float64{0, 0, 0}, []float64{0, 0, 0}, []float64{1, 2, 3}},
		{"zero one end", []float64{0, 3, 1}, []float64{2, 0, 1}, []float64{1, 1, 1}},
		{"within 1e-12", []float64{5, 5 * near, 1, 0}, []float64{2, 2 * near, 4, 0}, []float64{1, 1, 1, 1}},
		{"within 1e-12 scaled", []float64{5, 10 * near}, []float64{2, 4 * near}, []float64{1, 2}},
		{"beaten by 1e-6", []float64{5, 5 * (1 - 1e-6), 1}, []float64{2, 2 * (1 - 1e-6), 4}, []float64{1, 1, 1}},
		{"zero capacity", []float64{1, 0, 3}, []float64{1, 0, 0}, []float64{1, 0, 1}},
		{"infinite load", []float64{1, inf, 3}, []float64{4, 1, 0}, []float64{1, 1, 1}},
		{"NaN load", []float64{1, nan, 3}, []float64{4, 1, 0}, []float64{1, 1, 1}},
		{"subnormal", []float64{5e-324, 1e-310, 3e-300}, []float64{1e-320, 2e-310, 1e-301}, []float64{1, 1, 1}},
		{"huge capacity", []float64{1e-10, 2e-10, 1}, []float64{3e-10, 1e-10, 0}, []float64{1e300, 1e300, 1e300}},
	} {
		check(tc.name, tc.a, tc.b, tc.c)
	}
}
