package core

import (
	"bytes"
	"testing"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/routing"
	"repro/internal/spf"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// TestSPFModeByteIdentity is the planner-level differential for the
// dynamic-SPF kernel: precomputed plans must be byte-identical on the
// wire whichever SPF mode drives the hot loop — flat reference,
// incremental repair, or delta-stepping — on ring5, Abilene, and a small
// generated transit-stub topology. CI's bench-smoke job runs this test;
// it is the end-to-end guarantee behind defaulting ModeAuto on. The
// Abilene case adds a delay envelope so the kernel-based
// delayBoundedPath rewrite is under the differential too, and the
// degradation case holds the knapsack kernel's incremental p sweep
// (incremental, delta) to its reference sweep (flat).
func TestSPFModeByteIdentity(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		seed int64
		cfg  Config
	}{
		{"ring5", ring5(t), 11, Config{Model: ArbitraryFailures{F: 1}, Iterations: 80}},
		{"abilene", topo.Abilene(), 3, Config{Model: ArbitraryFailures{F: 1}, Iterations: 60, DelayEnvelope: 2.5}},
		{"gen-small", topo.Mesh("GenSmall", 24, 100, 5, topo.OC48), 7, Config{Model: ArbitraryFailures{F: 2}, Iterations: 50}},
		{"gen-small-degrade", topo.Mesh("GenSmall", 24, 100, 5, topo.OC48), 7, Config{Model: DegradationModel{Beta: 0.3, Budget: 1.5}, Iterations: 50}},
	}
	modes := []spf.Mode{spf.ModeFlat, spf.ModeIncremental, spf.ModeDelta}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := traffic.Gravity(tc.g, 0.3*float64(tc.g.NumLinks()), tc.seed)
			var ref []byte
			for _, m := range modes {
				cfg := tc.cfg
				cfg.SPF = m
				plan, err := Precompute(tc.g, d, cfg)
				if err != nil {
					t.Fatalf("mode %v: %v", m, err)
				}
				wire, err := plan.EncodeBytes()
				if err != nil {
					t.Fatalf("mode %v: encode: %v", m, err)
				}
				if m == spf.ModeFlat {
					ref = wire
					continue
				}
				if !bytes.Equal(wire, ref) {
					t.Fatalf("mode %v: plan differs from flat reference (%d vs %d bytes)",
						m, len(wire), len(ref))
				}
			}
		})
	}
}

// TestSPFModeCounters pins the observability contract of the incremental
// path: an instrumented incremental-mode solve performs tree repairs
// (spf.incremental_repairs advances), any fallbacks are counted, and the
// dirty-fraction histogram has one observation per non-noop update. The
// flat mode must leave all three untouched.
func TestSPFModeCounters(t *testing.T) {
	g := topo.Abilene()
	d := traffic.Gravity(g, 200, 3)
	solve := func(m spf.Mode) map[string]int64 {
		reg := obs.NewRegistry()
		_, err := Precompute(g, d, Config{Model: ArbitraryFailures{F: 1}, Iterations: 60, SPF: m, Obs: reg})
		if err != nil {
			t.Fatal(err)
		}
		return reg.Snapshot().Counters
	}
	inc := solve(spf.ModeIncremental)
	if inc["spf.incremental_repairs"] == 0 {
		t.Fatal("incremental mode never repaired a tree")
	}
	flat := solve(spf.ModeFlat)
	if flat["spf.incremental_repairs"] != 0 || flat["spf.full_fallbacks"] != 0 {
		t.Fatalf("flat mode touched dynamic-tree counters: %v", flat)
	}
}

// TestDelayBoundedPathZeroAllocs mirrors the spf kernel's alloc
// regression: on a warm fwState, the Lagrangian delay-bounded path
// search must not touch the heap — every probe runs on pooled kernel
// scratch and the result lands in the commodity's retained buffer.
func TestDelayBoundedPathZeroAllocs(t *testing.T) {
	g := topo.SBC()
	nL := g.NumLinks()
	var src, dst graph.NodeID = 0, graph.NodeID(g.NumNodes() - 1)
	s := &fwState{
		g:     g,
		comms: []routing.Commodity{{Src: src, Dst: dst, Demand: 1}},
	}
	s.csr = g.CSR()
	s.ar.delay = make([]float64, nL)
	for e := 0; e < nL; e++ {
		s.ar.delay[e] = g.Link(graph.LinkID(e)).Delay
	}
	s.ar.dPathBuf = make([][]graph.LinkID, 1)
	cost := make([]float64, nL)
	for e := 0; e < nL; e++ {
		cost[e] = g.Link(graph.LinkID(e)).Weight
	}
	// A bound between the minimum delay and the min-cost path's delay
	// forces the bisection loop to actually iterate.
	minDelay := spf.DijkstraTo(g, dst, nil, spf.DelayCost(g))[src]
	bound := 1.5 * minDelay

	if p := s.delayBoundedPath(0, cost, bound); p == nil {
		t.Fatal("no delay-bounded path on SBC")
	}
	if n := testing.AllocsPerRun(50, func() {
		if p := s.delayBoundedPath(0, cost, bound); p == nil {
			t.Fatal("path vanished")
		}
	}); n != 0 {
		t.Fatalf("warm delayBoundedPath allocates %v per run, want 0", n)
	}
}
