package eval

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/protect"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// shardDemand builds a deterministic asymmetric demand for the shard
// tests: a rotation matrix so every node sends, with enough load that
// optimal bottlenecks are strictly positive.
func shardDemand(g *graph.Graph) *traffic.Matrix {
	d := traffic.NewMatrix(g.NumNodes())
	for n := 0; n < g.NumNodes(); n++ {
		d.Set(graph.NodeID(n), graph.NodeID((n+3)%g.NumNodes()), 150)
	}
	return d
}

// TestEngineShardDeterminism pins the shard/merge contract: evaluation
// results are byte-identical at every shard count crossed with every
// worker count, including the auto policy, single-shard, and
// more-shards-than-scenarios clamping.
func TestEngineShardDeterminism(t *testing.T) {
	g := topo.Abilene()
	d := shardDemand(g)
	scenarios := FilterConnected(g, SingleLinks(g))[:9]

	run := func(shards, workers int) []Result {
		en := &Engine{
			G:            g,
			Schemes:      []protect.Scheme{&protect.OSPFRecon{G: g}},
			ExactOptimal: true,
			Workers:      workers,
			Shards:       shards,
		}
		return en.Evaluate(d, scenarios)
	}
	ref := run(1, 1)
	for _, r := range ref {
		if r.Optimal <= 0 {
			t.Fatalf("reference optimal bottleneck %v", r.Optimal)
		}
	}
	for _, shards := range []int{0, 1, 2, 4, 100} {
		for _, workers := range []int{1, 4} {
			got := run(shards, workers)
			if len(got) != len(ref) {
				t.Fatalf("shards=%d workers=%d: %d results, want %d", shards, workers, len(got), len(ref))
			}
			for i := range ref {
				if got[i].Optimal != ref[i].Optimal {
					t.Fatalf("shards=%d workers=%d scenario %d: optimal %v, want %v",
						shards, workers, i, got[i].Optimal, ref[i].Optimal)
				}
				if got[i].Bottleneck["OSPF+recon"] != ref[i].Bottleneck["OSPF+recon"] {
					t.Fatalf("shards=%d workers=%d scenario %d: bottleneck differs", shards, workers, i)
				}
				if got[i].Lost["OSPF+recon"] != ref[i].Lost["OSPF+recon"] {
					t.Fatalf("shards=%d workers=%d scenario %d: lost differs", shards, workers, i)
				}
				if !got[i].Scenario.Equal(ref[i].Scenario) {
					t.Fatalf("shards=%d workers=%d scenario %d: scenario slot mismatch", shards, workers, i)
				}
			}
		}
	}
}

// TestEngineShardEdges covers the degenerate shapes: an empty scenario
// list and a single scenario, at shard counts far above the list length.
func TestEngineShardEdges(t *testing.T) {
	g := topo.Abilene()
	d := shardDemand(g)
	en := &Engine{G: g, ExactOptimal: true, Workers: 4, Shards: 16}
	if got := en.Evaluate(d, nil); len(got) != 0 {
		t.Fatalf("empty scenario list produced %d results", len(got))
	}
	one := en.Evaluate(d, SingleLinks(g)[:1])
	if len(one) != 1 || one[0].Optimal <= 0 {
		t.Fatalf("single-scenario eval = %+v", one)
	}
}

// TestEngineShardSeedIsolation pins that shard-local LP warm bases never
// leak between shards: every shard's seed solve runs cold (exactly
// shards cold solves) and every scenario solve warm-starts from its own
// shard's seed (exactly len(scenarios) warm starts). A shared or leaked
// basis would warm-start some seed solves and break the count.
func TestEngineShardSeedIsolation(t *testing.T) {
	g := topo.Abilene()
	d := shardDemand(g)
	scenarios := FilterConnected(g, SingleLinks(g))[:8]
	for _, shards := range []int{1, 2, 4} {
		reg := obs.NewRegistry()
		en := &Engine{G: g, ExactOptimal: true, Workers: 2, Shards: shards, Obs: reg}
		en.Evaluate(d, scenarios)
		snap := reg.Snapshot()
		wantSolves := int64(shards + len(scenarios))
		if got := snap.Counters["lp.solves"]; got != wantSolves {
			t.Fatalf("shards=%d: lp.solves = %d, want %d (shard seeds cold + scenarios warm)",
				shards, got, wantSolves)
		}
		if got := snap.Counters["lp.warm_starts"]; got != int64(len(scenarios)) {
			t.Fatalf("shards=%d: lp.warm_starts = %d, want %d", shards, got, len(scenarios))
		}
		if got := snap.Counters["eval.shards"]; got != int64(shards) {
			t.Fatalf("shards=%d: eval.shards = %d", shards, got)
		}
	}
}

// TestExactWarmStartsCutPivots pins what the engine's exact mode is for:
// over every connected single-link failure of Abilene, seeding one
// no-failure basis and re-solving each scenario from it warm-starts, and
// spends fewer simplex pivots than a fresh exact solver per scenario.
func TestExactWarmStartsCutPivots(t *testing.T) {
	g := topo.Abilene()
	d := traffic.NewMatrix(g.NumNodes())
	for n := 0; n < g.NumNodes(); n++ {
		d.Set(graph.NodeID(n), graph.NodeID((n+2)%g.NumNodes()), 120)
	}
	scenarios := FilterConnected(g, SingleLinks(g))
	coldReg, warmReg := obs.NewRegistry(), obs.NewRegistry()
	for _, failed := range scenarios {
		cold := &protect.Optimal{G: g, Exact: true, Obs: coldReg}
		cold.Loads(failed, d)
	}
	en := &Engine{G: g, ExactOptimal: true, Workers: 1, Obs: warmReg}
	en.Evaluate(d, scenarios)
	cold, warm := coldReg.Snapshot().Counters, warmReg.Snapshot().Counters
	if warm["lp.warm_starts"] == 0 {
		t.Fatal("engine exact mode never warm-started")
	}
	if warm["lp.pivots"] >= cold["lp.pivots"] {
		t.Fatalf("warm pivots %d >= cold pivots %d over %d scenarios", warm["lp.pivots"], cold["lp.pivots"], len(scenarios))
	}
}
