package core

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/routing"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// String names a kernel in subtest names and failure messages.
func (k spfKernel) String() string {
	return [...]string{"incremental", "flat", "delta"}[k]
}

// TestSPFModeByteIdentity is the planner-level differential for the
// shortest-path kernels: precomputed plans must be byte-identical on the
// wire whichever kernel drives the hot loop — the flat reference (a full
// SPF per oracle call and the reference p sweep), DynTrees rebuilt with
// the binary heap (the production kernel below spf.DeltaCutoverNodes
// nodes), or DynTrees rebuilt by delta-stepping — on ring5,
// Abilene, and a small generated transit-stub topology. CI's bench-smoke
// job runs this test; it is the end-to-end guarantee behind the solver's
// kernel choice by node count. The degradation case holds the knapsack kernel's incremental p sweep
// (incremental, delta) to its reference sweep (flat).
func TestSPFModeByteIdentity(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		seed int64
		cfg  Config
	}{
		{"ring5", ring5(t), 11, Config{Model: ArbitraryFailures{F: 1}, Iterations: 80}},
		{"abilene", topo.Abilene(), 3, Config{Model: ArbitraryFailures{F: 1}, Iterations: 60}},
		{"gen-small", topo.Mesh("GenSmall", 24, 100, 5, topo.OC48), 7, Config{Model: ArbitraryFailures{F: 2}, Iterations: 50}},
		{"gen-small-degrade", topo.Mesh("GenSmall", 24, 100, 5, topo.OC48), 7, Config{Model: DegradationModel{Beta: 0.3, Budget: 1.5}, Iterations: 50}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := traffic.Gravity(tc.g, 0.3*float64(tc.g.NumLinks()), tc.seed)
			var ref []byte
			for _, k := range []spfKernel{kernelFlat, kernelIncremental, kernelDelta} {
				cfg := tc.cfg
				cfg.kernel = k
				plan, err := Precompute(tc.g, d, cfg)
				if err != nil {
					t.Fatalf("kernel %v: %v", k, err)
				}
				wire, err := plan.EncodeBytes()
				if err != nil {
					t.Fatalf("kernel %v: encode: %v", k, err)
				}
				if k == kernelFlat {
					ref = wire
					continue
				}
				if !bytes.Equal(wire, ref) {
					t.Fatalf("kernel %v: plan differs from flat reference (%d vs %d bytes)",
						k, len(wire), len(ref))
				}
			}
		})
	}
}

// TestSPFModeCounters pins the observability contract of the incremental
// kernel: an instrumented solve on DynTrees performs tree repairs
// (spf.incremental_repairs advances), any fallbacks are counted, and the
// dirty-fraction histogram has one observation per non-noop update. The
// flat kernel must leave all three untouched.
func TestSPFModeCounters(t *testing.T) {
	g := topo.Abilene()
	d := traffic.Gravity(g, 200, 3)
	solve := func(k spfKernel) map[string]int64 {
		reg := obs.NewRegistry()
		_, err := Precompute(g, d, Config{Model: ArbitraryFailures{F: 1}, Iterations: 60, kernel: k, Obs: reg})
		if err != nil {
			t.Fatal(err)
		}
		return reg.Snapshot().Counters
	}
	inc := solve(kernelIncremental)
	if inc["spf.incremental_repairs"] == 0 {
		t.Fatal("the production kernel never repaired a tree")
	}
	flat := solve(kernelFlat)
	if flat["spf.incremental_repairs"] != 0 || flat["spf.full_fallbacks"] != 0 {
		t.Fatalf("flat kernel touched dynamic-tree counters: %v", flat)
	}
}

// TestPrecomputeNearTieWeight is the planner's regression for the hop
// rule: on a triangle whose 1e-12 weight lies inside the equal-cost
// tolerance, the protection initialization used to walk between two
// equal-distance nodes forever. Every link has a detour there, so the
// initial iterate must route each protected link around itself, and
// Precompute must finish with every link protected.
func TestPrecomputeNearTieWeight(t *testing.T) {
	g, err := topo.Parse(strings.NewReader("topology neartie\nnode a\nnode b\nnode d\nlink a b 100 1 1e-12\nlink a d 100 1 1\nlink b d 100 1 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	watchdog := time.AfterFunc(20*time.Second, func() { panic("Precompute did not finish within 20 s") })
	defer watchdog.Stop()
	d := traffic.Gravity(g, 30, 1)
	comms := routing.ODCommodities(g.NumNodes(), d.At)
	st, err := newFWState(g, comms, []requirement{{demands: demandVector(comms, d), model: ArbitraryFailures{F: 1}}}, Config{}, fwObs{})
	if err != nil {
		t.Fatal(err)
	}
	for l, row := range st.P {
		if len(row.Idx) == 1 && row.Idx[0] == int32(l) {
			t.Fatalf("initial protection routes link %d on itself", l)
		}
	}
	plan, err := Precompute(g, d, Config{Model: ArbitraryFailures{F: 1}, Iterations: 5})
	if err != nil {
		t.Fatal(err)
	}
	for l := range plan.Prot {
		if self := planCell(&plan.Prot[l], int32(l)); self >= 0.999 {
			t.Fatalf("link %d unprotected: p_l(l) = %v", l, self)
		}
	}
}
