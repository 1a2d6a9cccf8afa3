package spf

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// randCost fills a cost row with the planner's key profile: a shared
// 1e-12 floor wherever gradients underflow, distinct small values
// elsewhere.
func randCost(rng *rand.Rand, cost []float64) {
	for e := range cost {
		if rng.Intn(3) == 0 {
			cost[e] = 1e-12
		} else {
			cost[e] = 1e-12 + rng.Float64()
		}
	}
}

// TestDynTreeMatchesFlat drives a DynTree through random sparse
// weight-perturbation sequences and demands bitwise-identical (Dist, Next)
// against a fresh flat Dijkstra after every step — the differential
// property the planner's incremental mode rides on. Both full-rebuild
// kernels (heap and delta-stepping) are exercised, as are the cutover
// paths (tiny cutover forces flat rebuilds; huge batches force the
// cone-size bail).
func TestDynTreeMatchesFlat(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(4000 + seed))
		g := kernelRandGraph(t, 50+seed, 14+int(seed)*4, 24)
		c := g.CSR()
		nL := g.NumLinks()
		cost := make([]float64, nL)
		randCost(rng, cost)

		for _, useDelta := range []bool{false, true} {
			var tree DynTree
			tree.Reset(c, graph.NodeID(int(seed)%g.NumNodes()), useDelta)
			tree.Full(cost)
			work := append([]float64(nil), cost...)
			var ref Scratch
			for step := 0; step < 40; step++ {
				// Perturb a sparse batch: mostly few links, occasionally
				// a huge batch to cross the dirty-fraction cutover.
				batch := 1 + rng.Intn(4)
				if step%13 == 12 {
					batch = nL/2 + rng.Intn(nL/2)
				}
				ids := make([]int32, 0, batch)
				vals := make([]float64, 0, batch)
				for k := 0; k < batch; k++ {
					id := int32(rng.Intn(nL))
					var nv float64
					switch rng.Intn(4) {
					case 0:
						nv = 1e-12 // collapse to the floor
					case 1:
						nv = work[id] // no-op entry
					default:
						nv = 1e-12 + rng.Float64()
					}
					ids = append(ids, id)
					vals = append(vals, nv)
					work[id] = nv
				}
				cutover := 0.25
				if step%7 == 6 {
					cutover = 0 // force the flat-rebuild path
				}
				tree.Update(ids, vals, cutover)
				SPFTo(c, tree.dst, work, nil, &ref)
				for i := range ref.Dist {
					if tree.sc.Dist[i] != ref.Dist[i] {
						t.Fatalf("seed %d delta=%v step %d: dist[%d] = %v, flat %v",
							seed, useDelta, step, i, tree.sc.Dist[i], ref.Dist[i])
					}
					if tree.Next()[i] != ref.Next[i] {
						t.Fatalf("seed %d delta=%v step %d: next[%d] = %d, flat %d",
							seed, useDelta, step, i, tree.Next()[i], ref.Next[i])
					}
				}
			}
		}
	}
}

// tiedCost fills a cost row with the regime that actually bites the
// planner: large quantized values (sums collide, so exact float ties are
// everywhere) over a 1e-12 floor that large distances absorb
// (1e6 + 1e-12 == 1e6 in float64). This produces dense plateau
// structure and lets a single decrease create a brand-new exact tie at a
// node whose own distance never moves — the two repair paths a
// moderate-magnitude random row never exercises.
func tiedCost(rng *rand.Rand, cost []float64) {
	for e := range cost {
		v := rng.Intn(6) - 2 // half the links sit on the floor
		if v < 0 {
			v = 0
		}
		cost[e] = float64(v)*1e6 + 1e-12
	}
}

// TestDynTreeTiedCosts is the regression for two repair bugs the smooth
// random differential missed: (1) a node improved only by a
// decrease-offer seed (never re-touched by the relaxation loop) must
// still have its in-neighbors' next links re-derived, because the
// improvement can create a new canonical tie there; (2) plateau
// resolution is a global multi-pass computation, so per-node next repair
// is unsound whenever plateaus exist anywhere in the tree.
func TestDynTreeTiedCosts(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(5100 + seed))
		g := kernelRandGraph(t, 60+seed, 16+int(seed)*3, 22)
		c := g.CSR()
		nL := g.NumLinks()
		cost := make([]float64, nL)
		tiedCost(rng, cost)

		for _, useDelta := range []bool{false, true} {
			var tree DynTree
			tree.Reset(c, graph.NodeID(int(seed)%g.NumNodes()), useDelta)
			tree.Full(cost)
			work := append([]float64(nil), cost...)
			var ref Scratch
			for step := 0; step < 60; step++ {
				batch := 1 + rng.Intn(3)
				ids := make([]int32, 0, batch)
				vals := make([]float64, 0, batch)
				for k := 0; k < batch; k++ {
					id := int32(rng.Intn(nL))
					v := rng.Intn(6) - 2
					if v < 0 {
						v = 0
					}
					nv := float64(v)*1e6 + 1e-12
					ids = append(ids, id)
					vals = append(vals, nv)
					work[id] = nv
				}
				tree.Update(ids, vals, 0.5)
				SPFTo(c, tree.dst, work, nil, &ref)
				for i := range ref.Dist {
					if tree.sc.Dist[i] != ref.Dist[i] {
						t.Fatalf("seed %d delta=%v step %d: dist[%d] = %v, flat %v",
							seed, useDelta, step, i, tree.sc.Dist[i], ref.Dist[i])
					}
					if tree.Next()[i] != ref.Next[i] {
						t.Fatalf("seed %d delta=%v step %d: next[%d] = %d, flat %d",
							seed, useDelta, step, i, tree.Next()[i], ref.Next[i])
					}
				}
			}
		}
	}
}

// TestDynTreeUpdateKinds pins the Update return contract: no-op batches
// report UpdateNone, sparse batches repair, and batches past the cutover
// (or against a fresh tree) rebuild.
func TestDynTreeUpdateKinds(t *testing.T) {
	g := kernelRandGraph(t, 3, 16, 20)
	c := g.CSR()
	nL := g.NumLinks()
	cost := make([]float64, nL)
	rng := rand.New(rand.NewSource(9))
	randCost(rng, cost)

	var tree DynTree
	tree.Reset(c, 0, false)
	if kind, _ := tree.Update([]int32{0}, []float64{cost[0]}, 0.25); kind != UpdateRebuilt {
		t.Fatalf("fresh tree Update = %v, want UpdateRebuilt", kind)
	}
	tree.Full(cost)
	if kind, _ := tree.Update([]int32{1}, []float64{cost[1]}, 0.25); kind != UpdateNone {
		t.Fatalf("no-op Update = %v, want UpdateNone", kind)
	}
	if kind, frac := tree.Update([]int32{1}, []float64{cost[1] * 2}, 0.25); kind != UpdateRepaired || frac <= 0 {
		t.Fatalf("sparse Update = %v frac %v, want UpdateRepaired with frac > 0", kind, frac)
	}
	if kind, _ := tree.Update([]int32{2}, []float64{cost[2] * 2}, 0); kind != UpdateRebuilt {
		t.Fatalf("zero-cutover Update = %v, want UpdateRebuilt", kind)
	}
}

// TestDeltaKernelMatchesFlat compares the standalone delta-stepping kernel
// against the heap kernel bitwise, down-sets included.
func TestDeltaKernelMatchesFlat(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(7000 + seed))
		g := kernelRandGraph(t, 90+seed, 15+int(seed)*5, 25)
		c := g.CSR()
		nL := g.NumLinks()
		cost := make([]float64, nL)
		var flat, dlt Scratch
		var ds DeltaScratch
		for trial := 0; trial < 4; trial++ {
			randCost(rng, cost)
			var down *graph.LinkSet
			if trial%2 == 1 {
				var d graph.LinkSet
				for e := 0; e < nL; e++ {
					if rng.Intn(6) == 0 {
						d.Add(graph.LinkID(e))
					}
				}
				down = &d
			}
			for dst := 0; dst < g.NumNodes(); dst += 2 {
				SPFTo(c, graph.NodeID(dst), cost, down, &flat)
				SPFToDelta(c, graph.NodeID(dst), cost, down, &dlt, &ds)
				for i := range flat.Dist {
					if flat.Dist[i] != dlt.Dist[i] {
						t.Fatalf("seed %d dst %d: delta dist[%d] = %v, flat %v",
							seed, dst, i, dlt.Dist[i], flat.Dist[i])
					}
					if flat.Next[i] != dlt.Next[i] {
						t.Fatalf("seed %d dst %d: delta next[%d] = %d, flat %d",
							seed, dst, i, dlt.Next[i], flat.Next[i])
					}
				}
			}
		}
	}
}
