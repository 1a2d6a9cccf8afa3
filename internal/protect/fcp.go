package protect

import (
	"math"
	"sort"

	"repro/internal/graph"
	"repro/internal/spf"
	"repro/internal/traffic"
)

// FCP models Failure-Carrying Packets (Lakshminarayanan et al., SIGCOMM
// 2007) at the fluid level: a packet follows the OSPF shortest paths of
// its current topology snapshot; when its next hop is a failed link, the
// packet learns that link (carrying it in the header) and continues on
// the shortest paths of the reduced snapshot. Flow states are tracked as
// (node, learned-failure-subset) aggregates, so the model is exact for
// the per-packet learning dynamics.
type FCP struct {
	G *graph.Graph
}

// Name implements Scheme.
func (s *FCP) Name() string { return "FCP" }

// fcpKey identifies a flow aggregate: at node, knowing mask of failed
// links (indexed within the failure set).
type fcpKey struct {
	node graph.NodeID
	mask uint32
}

// Loads implements Scheme.
func (s *FCP) Loads(failed graph.LinkSet, d *traffic.Matrix) ([]float64, float64) {
	g := s.G
	nL := g.NumLinks()
	loads := make([]float64, nL)
	var lost float64

	fids := failed.IDs()
	if len(fids) > 20 {
		panic("protect: FCP supports at most 20 simultaneous failures")
	}
	idxOf := make(map[graph.LinkID]int, len(fids))
	for i, id := range fids {
		idxOf[id] = i
	}
	fullMask := uint32(1)<<uint(len(fids)) - 1

	// Per (dst, mask): the reverse tree of the topology minus the learned
	// links, whose Hops are the snapshot's ECMP next hops, and the order in
	// which the fluid pass visits its nodes. Cached across OD pairs, as are
	// the per-mask down-sets.
	c := g.CSR()
	cost := spf.WeightCost(g)
	downs := map[uint32]*graph.LinkSet{}
	downFor := func(mask uint32) *graph.LinkSet {
		if down, ok := downs[mask]; ok {
			return down
		}
		down := &graph.LinkSet{}
		for i, id := range fids {
			if mask&(1<<uint(i)) != 0 {
				down.Add(id)
			}
		}
		downs[mask] = down
		return down
	}
	type dagKey struct {
		dst  graph.NodeID
		mask uint32
	}
	type tree struct {
		dist  []float64
		next  []int32
		order []graph.NodeID
	}
	dagCache := map[dagKey]tree{}
	var sc spf.Scratch
	treeFor := func(dst graph.NodeID, mask uint32) tree {
		k := dagKey{dst, mask}
		if t, ok := dagCache[k]; ok {
			return t
		}
		spf.SPFTo(c, dst, cost, downFor(mask), &sc)
		t := tree{dist: append([]float64(nil), sc.Dist...), next: append([]int32(nil), sc.Next...)}
		// Same-mask propagation follows the ECMP DAG, which strictly
		// decreases distance-to-destination; visiting every node in
		// decreasing-distance order therefore reaches each aggregate after
		// all its upstream contributions have arrived. Unreachable nodes
		// come first (their flow drops). Ties break by node id, so the
		// order is total.
		t.order = make([]graph.NodeID, g.NumNodes())
		for n := range t.order {
			t.order[n] = graph.NodeID(n)
		}
		sort.Slice(t.order, func(i, j int) bool {
			di, dj := t.dist[t.order[i]], t.dist[t.order[j]]
			if math.IsInf(di, 1) != math.IsInf(dj, 1) {
				return math.IsInf(di, 1)
			}
			if di != dj {
				return di > dj
			}
			return t.order[i] < t.order[j]
		})
		dagCache[k] = t
		return t
	}

	const eps = 1e-12
	var hops []graph.LinkID
	d.Pairs(func(a, b graph.NodeID, vol float64) {
		// Fluid propagation over (node, mask) states. Masks only grow, so
		// processing states by increasing mask popcount and, within a
		// mask, by decreasing distance-to-dst terminates.
		flow := map[fcpKey]float64{{a, 0}: vol}
		for mask := uint32(0); mask <= fullMask; mask++ {
			t := treeFor(b, mask)
			down := downFor(mask)
			for _, n := range t.order {
				st := fcpKey{n, mask}
				f := flow[st]
				if f <= eps || st.node == b {
					continue
				}
				delete(flow, st)
				// ECMP next hops in the snapshot (failed links the packet
				// has not learned yet still look usable). A plateau's one
				// hop stays at its distance, where the sorted pass may have
				// gone by already: the flow follows it at once.
				for u := st.node; u != b; {
					if hops = spf.Hops(c, u, cost, down, t.dist, t.next, hops); len(hops) == 0 {
						// Destination unreachable in this snapshot: dropped.
						lost += f
						break
					}
					share := f / float64(len(hops))
					walk := u
					for _, id := range hops {
						if fi, isFailed := idxOf[id]; isFailed && mask&(1<<uint(fi)) == 0 {
							// Packet hits the failed link, learns it, stays at
							// the node with a bigger mask.
							nk := fcpKey{u, mask | 1<<uint(fi)}
							flow[nk] += share
							continue
						}
						loads[id] += share
						v := g.Link(id).Dst
						switch {
						case v == b: // delivered
						case t.dist[v] == t.dist[u]:
							walk = v
						default:
							flow[fcpKey{v, mask}] += share
						}
					}
					if walk == u {
						break
					}
					u = walk
				}
			}
		}
		// Whatever flow remains in non-final states was delivered or
		// dropped above; leftover at dst keys is delivered.
	})
	return loads, lost
}
