package protect

import (
	"math"
	"runtime"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// allocPerScenario is the heap allocation, in bytes, of one warm Loads
// call of s, averaged over the scenarios: a first pass warms the scheme's
// caches and scratches, and the second pass is the one counted.
func allocPerScenario(s Scheme, scenarios []graph.LinkSet, d *traffic.Matrix) uint64 {
	for _, sc := range scenarios {
		s.Loads(sc, d)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, sc := range scenarios {
		s.Loads(sc, d)
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(len(scenarios))
}

// TestBaselineLoadsAllocation holds the per-scenario baselines to link
// loads: on SBC, over every single duplex failure, a warm OSPFRecon.Loads
// and a warm Optimal.Loads (ScenarioLoads without degradation) allocate at
// most 1 KB — the returned row (560 B) and little else, where the matrix's
// commodities are ≈ 11 KB, one dense [commodity][link] flow 191 KB and a
// fresh min-MLU scratch ≈ 180 KB; a warm OptDetour.Loads, with the cached
// ECMP base, at most 4 KB, so it neither clones a base flow (191 KB) nor
// solves its detours on a fresh scratch (≈ 9 KB). A warm FCP.Loads (≈ 600
// B) and a warm PathSplicing.Loads (≈ 580 B) stay under 1 KB too: their
// trees and flow rows come from free lists, where per-call trees and
// per-step maps cost 59 KB and 224 KB.
func TestBaselineLoadsAllocation(t *testing.T) {
	g := topo.SBC()
	d := traffic.Gravity(g, 0.15*g.TotalCapacity(), 1)
	comms := routing.ODCommodities(g.NumNodes(), d.At)
	dense := uint64(len(comms) * g.NumLinks() * 8)
	var scenarios []graph.LinkSet
	for _, l := range g.Links() {
		if l.Reverse > l.ID {
			scenarios = append(scenarios, graph.NewLinkSet(l.ID, l.Reverse))
		}
	}
	for _, tc := range []struct {
		s       Scheme
		ceiling uint64
	}{
		{&OSPFRecon{G: g}, 1 << 10},
		{&Optimal{G: g, Iterations: 40}, 1 << 10},
		{&OptDetour{G: g, Iterations: 40}, 4 << 10},
		{&FCP{G: g}, 1 << 10},
		{&PathSplicing{G: g, Seed: 1}, 1 << 10},
	} {
		got := allocPerScenario(tc.s, scenarios, d)
		t.Logf("%s: %d B per scenario (ceiling %d B, a dense flow %d B)", tc.s.Name(), got, tc.ceiling, dense)
		if got > tc.ceiling {
			t.Errorf("%s allocates %d B per scenario, ceiling %d B (a dense flow is %d B)", tc.s.Name(), got, tc.ceiling, dense)
		}
	}
}

// TestSchemesConcurrentMatchSerial shares one value of each per-scenario
// baseline between four goroutines, each evaluating every SBC single
// duplex failure in its own order, and holds every result to a serial
// evaluation on a fresh value bit for bit: the free lists and the cached
// base loads must neither race nor carry one scenario's state into
// another's.
func TestSchemesConcurrentMatchSerial(t *testing.T) {
	g := topo.SBC()
	d := traffic.Gravity(g, 0.15*g.TotalCapacity(), 1)
	var scenarios []graph.LinkSet
	for _, l := range g.Links() {
		if l.Reverse > l.ID {
			scenarios = append(scenarios, graph.NewLinkSet(l.ID, l.Reverse))
		}
	}
	for _, mk := range []func() Scheme{
		func() Scheme { return &OSPFRecon{G: g} },
		func() Scheme { return &CSPFDetour{G: g} },
		func() Scheme { return &FCP{G: g} },
		func() Scheme { return &PathSplicing{G: g, Seed: 1} },
		func() Scheme { return &OptDetour{G: g, Iterations: 40} },
		func() Scheme { return &Optimal{G: g, Iterations: 40} },
	} {
		ref := mk()
		want := make([][]float64, len(scenarios))
		for i, sc := range scenarios {
			want[i] = ref.Loads(sc, d)
		}
		shared := mk()
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for j := range scenarios {
					i := (j + w*len(scenarios)/4) % len(scenarios)
					if w%2 == 1 {
						i = len(scenarios) - 1 - i
					}
					loads := shared.Loads(scenarios[i], d)
					for e := range loads {
						if math.Float64bits(loads[e]) != math.Float64bits(want[i][e]) {
							t.Errorf("%s scenario %d link %d: %v, serial %v", shared.Name(), i, e, loads[e], want[i][e])
							return
						}
					}
				}
			}(w)
		}
		wg.Wait()
	}
}
