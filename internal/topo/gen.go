package topo

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/graph"
)

// point is a PoP location in an abstract unit square; distances drive both
// edge selection (nearby PoPs connect first, like real fiber builds) and
// propagation delays.
type point struct{ x, y float64 }

func dist(a, b point) float64 {
	dx, dy := a.x-b.x, a.y-b.y
	return math.Sqrt(dx*dx + dy*dy)
}

// delayFor converts a unit-square distance to a one-way propagation delay
// in milliseconds, calibrated so a coast-to-coast hop is ~30ms.
func delayFor(d float64) float64 {
	ms := d * 30
	if ms < 1 {
		ms = 1
	}
	return ms
}

// Mesh builds a connected random PoP-level mesh with exactly
// directedLinks directed links (directedLinks must be even: every edge is
// duplex), no degree-1 nodes, deterministic for a given seed. Level3, SBC,
// UUNet and USISP are Mesh instances; tests build families of seeded
// topologies with it.
func Mesh(name string, nodes, directedLinks int, seed int64, capacity float64) *graph.Graph {
	if directedLinks%2 != 0 {
		panic("topo: directedLinks must be even")
	}
	edges := directedLinks / 2
	if edges < nodes-1 {
		panic(fmt.Sprintf("topo: %d edges cannot connect %d nodes", edges, nodes))
	}
	rng := rand.New(rand.NewSource(seed))
	pts := make([]point, nodes)
	for i := range pts {
		pts[i] = point{rng.Float64(), rng.Float64()}
	}

	g := graph.New(name)
	ids := make([]graph.NodeID, nodes)
	for i := 0; i < nodes; i++ {
		ids[i] = g.AddNode(fmt.Sprintf("%s-P%02d", name, i))
	}

	used := make(map[[2]int]bool)
	addEdge := func(a, b int) {
		if a > b {
			a, b = b, a
		}
		key := [2]int{a, b}
		if used[key] {
			panic("topo: duplicate edge")
		}
		used[key] = true
		g.AddDuplex(ids[a], ids[b], capacity, delayFor(dist(pts[a], pts[b])), 1)
	}
	hasEdge := func(a, b int) bool {
		if a > b {
			a, b = b, a
		}
		return used[[2]int{a, b}]
	}

	// 1. Minimum spanning tree (Prim) for connectivity.
	inTree := make([]bool, nodes)
	inTree[0] = true
	for t := 1; t < nodes; t++ {
		best, bi, bj := math.Inf(1), -1, -1
		for i := 0; i < nodes; i++ {
			if !inTree[i] {
				continue
			}
			for j := 0; j < nodes; j++ {
				if inTree[j] {
					continue
				}
				if d := dist(pts[i], pts[j]); d < best {
					best, bi, bj = d, i, j
				}
			}
		}
		inTree[bj] = true
		addEdge(bi, bj)
	}

	// 2. Fix degree-1 nodes (the paper trims leaves; our meshes never have
	// them) by connecting each leaf to its nearest non-neighbor.
	deg := func(i int) int { return len(g.Out(ids[i])) }
	for i := 0; i < nodes && len(used) < edges; i++ {
		if deg(i) >= 2 {
			continue
		}
		best, bj := math.Inf(1), -1
		for j := 0; j < nodes; j++ {
			if j == i || hasEdge(i, j) {
				continue
			}
			if d := dist(pts[i], pts[j]); d < best {
				best, bj = d, j
			}
		}
		if bj >= 0 {
			addEdge(i, bj)
		}
	}

	// 3. Fill to the target edge count with the shortest remaining pairs,
	// with a mild randomization so the mesh is not purely geometric.
	type cand struct {
		i, j int
		d    float64
	}
	var cands []cand
	for i := 0; i < nodes; i++ {
		for j := i + 1; j < nodes; j++ {
			if !hasEdge(i, j) {
				cands = append(cands, cand{i, j, dist(pts[i], pts[j]) * (0.7 + 0.6*rng.Float64())})
			}
		}
	}
	sort.Slice(cands, func(a, b int) bool { return cands[a].d < cands[b].d })
	for _, c := range cands {
		if len(used) >= edges {
			break
		}
		if !hasEdge(c.i, c.j) {
			addEdge(c.i, c.j)
		}
	}
	if len(used) != edges {
		panic(fmt.Sprintf("topo: built %d edges, want %d", len(used), edges))
	}
	return g
}

// transitStub builds a GT-ITM-style two-level backbone: transit routers
// form a well-connected core, each with a stub cluster attached, matching
// the structure GT-ITM produces for router-level topologies. The result has
// transit*(1+stubPerTransit) nodes and exactly directedLinks directed
// links.
func transitStub(name string, transit, stubPerTransit, directedLinks int, seed int64) *graph.Graph {
	if directedLinks%2 != 0 {
		panic("topo: directedLinks must be even")
	}
	edges := directedLinks / 2
	rng := rand.New(rand.NewSource(seed))
	nodes := transit * (1 + stubPerTransit)

	g := graph.New(name)
	pts := make([]point, nodes)
	ids := make([]graph.NodeID, nodes)
	// Transit nodes ring positions; stub clusters hang around them.
	for t := 0; t < transit; t++ {
		ang := 2 * math.Pi * float64(t) / float64(transit)
		pts[t] = point{0.5 + 0.4*math.Cos(ang), 0.5 + 0.4*math.Sin(ang)}
	}
	for t := 0; t < transit; t++ {
		for s := 0; s < stubPerTransit; s++ {
			i := transit + t*stubPerTransit + s
			pts[i] = point{
				pts[t].x + 0.08*(rng.Float64()-0.5),
				pts[t].y + 0.08*(rng.Float64()-0.5),
			}
		}
	}
	for i := 0; i < nodes; i++ {
		kind := "T"
		if i >= transit {
			kind = "S"
		}
		ids[i] = g.AddNode(fmt.Sprintf("%s-%s%03d", name, kind, i))
	}

	used := make(map[[2]int]bool)
	addEdge := func(a, b int, capacity float64) bool {
		if a > b {
			a, b = b, a
		}
		key := [2]int{a, b}
		if used[key] || a == b {
			return false
		}
		used[key] = true
		g.AddDuplex(ids[a], ids[b], capacity, delayFor(dist(pts[a], pts[b])), 1)
		return true
	}

	// Transit core: ring plus chords.
	for t := 0; t < transit; t++ {
		addEdge(t, (t+1)%transit, OC192)
	}
	for t := 0; t < transit; t++ {
		addEdge(t, (t+3)%transit, OC192)
	}
	// Stub clusters: each stub connects to its transit node and to the next
	// stub in the cluster (a small ring), giving min degree 2.
	for t := 0; t < transit; t++ {
		for s := 0; s < stubPerTransit; s++ {
			i := transit + t*stubPerTransit + s
			addEdge(t, i, OC48)
			j := transit + t*stubPerTransit + (s+1)%stubPerTransit
			addEdge(i, j, OC48)
		}
	}
	// Fill remaining edges with random intra-cluster chords and a few
	// stub-to-foreign-transit uplinks.
	for len(used) < edges {
		if rng.Intn(4) == 0 {
			// Stub to a second transit node (multihoming).
			i := transit + rng.Intn(nodes-transit)
			t := rng.Intn(transit)
			addEdge(i, t, OC48)
		} else {
			t := rng.Intn(transit)
			base := transit + t*stubPerTransit
			i := base + rng.Intn(stubPerTransit)
			j := base + rng.Intn(stubPerTransit)
			addEdge(i, j, OC48)
		}
	}
	if len(used) != edges {
		panic(fmt.Sprintf("topo: built %d edges, want %d", len(used), edges))
	}
	return g
}
