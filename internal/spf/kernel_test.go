package spf

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/topo"
)

// kernelRandGraph builds a random duplex ring-plus-chords topology with
// occasional equal-cost links, so shortest-path ties (the case the
// bit-identity contract is about) actually occur.
func kernelRandGraph(t testing.TB, seed int64, nodes, extra int) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := graph.New("kernel-rand")
	ids := make([]graph.NodeID, nodes)
	for i := range ids {
		ids[i] = g.AddNode(fmt.Sprintf("k%d", i))
	}
	weight := func() float64 {
		// Small integer weights force plenty of equal-distance nodes.
		return float64(1 + rng.Intn(4))
	}
	for i := 0; i < nodes; i++ {
		g.AddDuplex(ids[i], ids[(i+1)%nodes], 100, rng.Float64(), weight())
	}
	for k := 0; k < extra; k++ {
		a, b := rng.Intn(nodes), rng.Intn(nodes)
		if a == b {
			continue
		}
		g.AddDuplex(ids[a], ids[b], 100, rng.Float64(), weight())
	}
	return g
}

// refItem / refPQ reimplement the kernel's priority queue on
// container/heap. Distances are a unique fixpoint, so the reference must
// agree with the kernel bit for bit on Dist; Next is checked separately
// against the canonical-next specification (a pure function of Dist).
type refItem struct {
	dist float64
	node int32
}

type refPQ []refItem

func (h refPQ) Len() int            { return len(h) }
func (h refPQ) Less(i, j int) bool  { return h[i].dist < h[j].dist }
func (h refPQ) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refPQ) Push(x interface{}) { *h = append(*h, x.(refItem)) }
func (h *refPQ) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// refSPFTo is an independent reverse Dijkstra using container/heap with
// lazy deletion, mirroring the pre-kernel implementation.
func refSPFTo(g *graph.Graph, dst graph.NodeID, cost []float64, down *graph.LinkSet) ([]float64, []int32) {
	n := g.NumNodes()
	dist := make([]float64, n)
	next := make([]int32, n)
	for i := range dist {
		dist[i] = Infinity
		next[i] = -1
	}
	dist[dst] = 0
	h := &refPQ{{0, int32(dst)}}
	for h.Len() > 0 {
		it := heap.Pop(h).(refItem)
		if it.dist > dist[it.node] {
			continue
		}
		for _, id := range g.In(graph.NodeID(it.node)) {
			if down != nil && down.Contains(id) {
				continue
			}
			u := g.Link(id).Src
			nd := it.dist + cost[id]
			if nd < dist[u] {
				dist[u] = nd
				next[u] = int32(id)
				heap.Push(h, refItem{nd, int32(u)})
			}
		}
	}
	return dist, next
}

// refForwardDist is the forward counterpart of refSPFTo: distances from
// src.
func refForwardDist(g *graph.Graph, src graph.NodeID, cost []float64, down *graph.LinkSet) []float64 {
	n := g.NumNodes()
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = Infinity
	}
	dist[src] = 0
	h := &refPQ{{0, int32(src)}}
	for h.Len() > 0 {
		it := heap.Pop(h).(refItem)
		if it.dist > dist[it.node] {
			continue
		}
		for _, id := range g.Out(graph.NodeID(it.node)) {
			if down != nil && down.Contains(id) {
				continue
			}
			v := g.Link(id).Dst
			nd := it.dist + cost[id]
			if nd < dist[v] {
				dist[v] = nd
				heap.Push(h, refItem{nd, int32(v)})
			}
		}
	}
	return dist
}

// checkCanonicalNext verifies a next vector against the canonical-next
// specification, independent of the kernel's implementation: every
// reachable non-destination node carries the alive tight link with the
// smallest tieKey among those whose head is strictly closer (or, on a
// plateau, an equal-distance tight link), and following next from any node
// reaches dst without cycling.
func checkCanonicalNext(t *testing.T, g *graph.Graph, dst graph.NodeID, cost []float64, down *graph.LinkSet, dist []float64, next []int32) {
	t.Helper()
	n := g.NumNodes()
	for u := 0; u < n; u++ {
		if u == int(dst) || math.IsInf(dist[u], 1) {
			if next[u] != -1 {
				t.Fatalf("dst %d: next[%d] = %d, want -1", dst, u, next[u])
			}
			continue
		}
		id := next[u]
		if id < 0 {
			t.Fatalf("dst %d: reachable node %d has no next link", dst, u)
		}
		l := g.Link(graph.LinkID(id))
		if l.Src != graph.NodeID(u) {
			t.Fatalf("dst %d: next[%d] = %d leaves node %d", dst, u, id, l.Src)
		}
		if down != nil && down.Contains(graph.LinkID(id)) {
			t.Fatalf("dst %d: next[%d] = %d is down", dst, u, id)
		}
		if cost[id]+dist[l.Dst] != dist[u] {
			t.Fatalf("dst %d: next[%d] = %d not tight: %v + %v != %v",
				dst, u, id, cost[id], dist[l.Dst], dist[u])
		}
		if dist[l.Dst] < dist[u] {
			// Canonical minimality: no alive strictly-decreasing tight
			// link with a smaller tie key.
			for _, e := range g.Out(graph.NodeID(u)) {
				if tieKey(int32(u), int32(e)) >= tieKey(int32(u), id) {
					continue
				}
				if down != nil && down.Contains(e) {
					continue
				}
				h := g.Link(e).Dst
				if dist[h] < dist[u] && cost[e]+dist[h] == dist[u] {
					t.Fatalf("dst %d: next[%d] = %d but tight link %d with smaller tie key exists", dst, u, id, e)
				}
			}
		}
	}
	// Acyclicity: every walk terminates at dst within n hops.
	for u := 0; u < n; u++ {
		if next[u] < 0 {
			continue
		}
		at := graph.NodeID(u)
		for hops := 0; at != dst; hops++ {
			if hops > n {
				t.Fatalf("dst %d: next walk from %d cycles", dst, u)
			}
			if next[at] < 0 {
				t.Fatalf("dst %d: next walk from %d dead-ends at %d", dst, u, at)
			}
			at = g.Link(graph.LinkID(next[at])).Dst
		}
	}
}

// TestKernelMatchesHeapReference runs the kernel and the container/heap
// reference over random graphs, random costs and random down-sets, and
// demands bit-identical distances (the unique fixpoint) plus a Next vector
// satisfying the canonical-next specification. Any distance divergence
// would break the planner's byte-identical-plans guarantee.
func TestKernelMatchesHeapReference(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		g := kernelRandGraph(t, seed, 12+int(seed)*3, 20)
		c := g.CSR()
		nL := g.NumLinks()
		cost := make([]float64, nL)
		for trial := 0; trial < 6; trial++ {
			for e := range cost {
				// Mix of distinct values and a shared floor (the planner's
				// +1e-12 underflow floor creates exactly this key profile).
				if rng.Intn(3) == 0 {
					cost[e] = 1e-12
				} else {
					cost[e] = float64(1+rng.Intn(5)) * 0.25
				}
			}
			var down *graph.LinkSet
			if trial%2 == 1 {
				var d graph.LinkSet
				for e := 0; e < nL; e++ {
					if rng.Intn(5) == 0 {
						d.Add(graph.LinkID(e))
					}
				}
				down = &d
			}
			var s Scratch
			for dst := 0; dst < g.NumNodes(); dst += 3 {
				SPFTo(c, graph.NodeID(dst), cost, down, &s)
				wd, _ := refSPFTo(g, graph.NodeID(dst), cost, down)
				for i := range wd {
					if s.Dist[i] != wd[i] && !(math.IsInf(s.Dist[i], 1) && math.IsInf(wd[i], 1)) {
						t.Fatalf("seed %d dst %d: dist[%d] = %v, reference %v", seed, dst, i, s.Dist[i], wd[i])
					}
				}
				checkCanonicalNext(t, g, graph.NodeID(dst), cost, down, s.Dist, s.Next)
			}
		}
	}
}

// TestOnePassNextMatchesTwoPass holds the Next SPFTo sets while it relaxes
// to the second pass canonicalNextInto makes over the settled distances,
// bit for bit, Plateaus included: every built-in topology, every
// destination, with random cost rows, rows tied at a 1e-15 floor (whose
// adds vanish next to the large costs) and rows with zero-cost links
// (plateaus), each with and without a down-set.
func TestOnePassNextMatchesTwoPass(t *testing.T) {
	graphs := append(topo.All(), parseTopo(t, plateauTopo), parseTopo(t, nearTieTopo))
	rows := []struct {
		name string
		fill func(rng *rand.Rand, cost []float64)
	}{
		{"random", func(rng *rand.Rand, cost []float64) {
			for e := range cost {
				cost[e] = rng.ExpFloat64()
			}
		}},
		{"tied", func(rng *rand.Rand, cost []float64) {
			for e := range cost {
				cost[e] = math.Max(math.Exp(-40*rng.Float64()), 1e-15)
				if rng.Intn(4) == 0 {
					cost[e] = float64(1 + rng.Intn(3))
				}
			}
		}},
		{"plateau", func(rng *rand.Rand, cost []float64) {
			for e := range cost {
				cost[e] = float64(rng.Intn(3))
			}
		}},
	}
	var one, two Scratch
	plateaus := 0
	for gi, g := range graphs {
		c := g.CSR()
		nL := g.NumLinks()
		rng := rand.New(rand.NewSource(int64(500 + gi)))
		cost := make([]float64, nL)
		for _, row := range rows {
			row.fill(rng, cost)
			var down graph.LinkSet
			for e := 0; e < nL; e++ {
				if rng.Intn(8) == 0 {
					down.Add(graph.LinkID(e))
				}
			}
			for _, d := range []*graph.LinkSet{nil, &down} {
				for dst := 0; dst < g.NumNodes(); dst++ {
					SPFTo(c, graph.NodeID(dst), cost, d, &one)
					two.reset(c.N)
					copy(two.Dist, one.Dist)
					canonicalNextInto(c, graph.NodeID(dst), cost, d, &two)
					if one.Plateaus != two.Plateaus {
						t.Fatalf("%s %s dst %d: Plateaus %v, second pass %v", g.Name, row.name, dst, one.Plateaus, two.Plateaus)
					}
					if one.Plateaus {
						plateaus++
					}
					for u := range two.Next {
						if one.Next[u] != two.Next[u] {
							t.Fatalf("%s %s dst %d: next[%d] = %d, second pass %d", g.Name, row.name, dst, u, one.Next[u], two.Next[u])
						}
					}
				}
			}
		}
	}
	if plateaus == 0 {
		t.Fatal("no tree had a plateau; the plateau rows test nothing")
	}
}

// graphWalkPath is the reference path extractor: it follows a next vector from
// src over the graph's link records rather than the CSR arrays.
func graphWalkPath(g *graph.Graph, src graph.NodeID, next []int32) []graph.LinkID {
	if next[src] < 0 {
		return nil
	}
	var path []graph.LinkID
	for u := src; next[u] >= 0; {
		id := graph.LinkID(next[u])
		path = append(path, id)
		u = g.Link(id).Dst
	}
	return path
}

// TestPathFromNextMatchesGraphWalk pins the flat path extractor against the
// graph-walking reference on the same next vector.
func TestPathFromNextMatchesGraphWalk(t *testing.T) {
	g := kernelRandGraph(t, 7, 20, 30)
	c := g.CSR()
	var s Scratch
	for dst := 0; dst < g.NumNodes(); dst += 2 {
		SPFTo(c, graph.NodeID(dst), WeightCost(g), nil, &s)
		var buf []graph.LinkID
		for src := 0; src < g.NumNodes(); src++ {
			want := graphWalkPath(g, graph.NodeID(src), s.Next)
			got := PathFromNext(c, graph.NodeID(src), s.Next, buf[:0])
			if got != nil {
				buf = got
			}
			if len(want) != len(got) {
				t.Fatalf("dst %d src %d: path length %d vs %d", dst, src, len(got), len(want))
			}
			sum := 0.0
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("dst %d src %d: path[%d] = %d, want %d", dst, src, i, got[i], want[i])
				}
				sum += g.Link(got[i]).Weight
			}
			if want != nil && math.Abs(sum-s.Dist[src]) > 1e-9 {
				t.Fatalf("dst %d src %d: path cost %v != dist %v", dst, src, sum, s.Dist[src])
			}
		}
	}
}

// TestKernelZeroAllocs: with a warm Scratch, SPFTo (on a plateau graph
// too), PathFromNext and Hops must not touch the heap at all.
func TestKernelZeroAllocs(t *testing.T) {
	g := topo.SBC()
	c := g.CSR()
	costs := WeightCost(g)
	var down graph.LinkSet
	down.Add(0)
	var s Scratch
	SPFTo(c, 0, costs, &down, &s) // warm the buffers
	buf := make([]graph.LinkID, 0, g.NumNodes())

	if n := testing.AllocsPerRun(50, func() {
		SPFTo(c, 3, costs, &down, &s)
	}); n != 0 {
		t.Fatalf("warm SPFTo allocates %v per run, want 0", n)
	}
	// A plateau tree resolves its plateau nodes from the Scratch's own
	// list.
	pg := parseTopo(t, plateauTopo)
	pc := pg.CSR()
	pd, _ := pg.NodeByName("d")
	pcost := WeightCost(pg)
	var ps Scratch
	SPFTo(pc, pd, pcost, nil, &ps)
	if !ps.Plateaus {
		t.Fatal("plateau topology gave no plateau")
	}
	if n := testing.AllocsPerRun(50, func() {
		SPFTo(pc, pd, pcost, nil, &ps)
	}); n != 0 {
		t.Fatalf("warm SPFTo on a plateau allocates %v per run, want 0", n)
	}
	SPFTo(c, 3, costs, nil, &s)
	if n := testing.AllocsPerRun(50, func() {
		buf = PathFromNext(c, 9, s.Next, buf[:0])
	}); n != 0 {
		t.Fatalf("warm PathFromNext allocates %v per run, want 0", n)
	}
	if n := testing.AllocsPerRun(50, func() {
		buf = Hops(c, 9, costs, nil, s.Dist, s.Next, buf)
	}); n != 0 {
		t.Fatalf("warm Hops allocates %v per run, want 0", n)
	}
}

// TestECMPScratchReusesRows pins the fix for the weight optimizer's
// unbounded per-call distance cache: across repeated ECMPLoads invocations
// the per-destination trees must be the same backing arrays, invalidated by
// generation stamp rather than reallocation, and the loads must not drift.
func TestECMPScratchReusesRows(t *testing.T) {
	g := topo.Abilene()
	comms := routing.ODCommodities(g.NumNodes(), func(a, b graph.NodeID) float64 {
		if a == b {
			return 0
		}
		return 1
	})
	var sc ECMPScratch
	l1 := make([]float64, g.NumLinks())
	ECMPLoads(g, comms, nil, WeightCost(g), &sc, l1)
	trees := sc.trees.trees
	rows := make([]*float64, len(trees))
	orders := make([]*graph.NodeID, len(trees))
	for d, tr := range trees {
		if tr.Dist != nil {
			rows[d], orders[d] = &tr.Dist[0], &tr.Order[0]
		}
	}
	gen := sc.trees.gen
	for round := 0; round < 25; round++ {
		loads := make([]float64, g.NumLinks())
		ECMPLoads(g, comms, nil, WeightCost(g), &sc, loads)
		for e := range loads {
			if math.Float64bits(loads[e]) != math.Float64bits(l1[e]) {
				t.Fatalf("round %d: loads drifted at link %d", round, e)
			}
		}
	}
	if sc.trees.gen != gen+25 {
		t.Fatalf("generation stamp advanced %d, want 25", sc.trees.gen-gen)
	}
	for d, tr := range sc.trees.trees {
		if rows[d] == nil {
			continue
		}
		if &tr.Dist[0] != rows[d] || &tr.Order[0] != orders[d] {
			t.Fatalf("tree %d was reallocated; the table must stay bounded", d)
		}
	}
	// The whole table is bounded by one tree per destination: no growth
	// beyond the node count, ever.
	if len(sc.trees.trees) != g.NumNodes() {
		t.Fatalf("scratch table sized %d, want %d", len(sc.trees.trees), g.NumNodes())
	}
}

// TestECMPScratchInvalidatesOnWeightChange: a stale distance row must not
// survive a weight change between calls (the stamp, not the contents,
// carries validity).
func TestECMPScratchInvalidatesOnWeightChange(t *testing.T) {
	g := kernelRandGraph(t, 11, 10, 12)
	comms := routing.ODCommodities(g.NumNodes(), func(a, b graph.NodeID) float64 {
		if a == b {
			return 0
		}
		return 1
	})
	var sc ECMPScratch
	ECMPLoads(g, comms, nil, WeightCost(g), &sc, make([]float64, g.NumLinks()))
	g.SetWeight(0, g.Link(0).Weight+7)
	got := make([]float64, g.NumLinks())
	ECMPLoads(g, comms, nil, WeightCost(g), &sc, got)
	want := ECMPFlow(g, comms, nil, WeightCost(g)).Loads()
	for e := range want {
		if math.Float64bits(got[e]) != math.Float64bits(want[e]) {
			t.Fatalf("stale distances after weight change: link %d: %v vs %v", e, got[e], want[e])
		}
	}
}
