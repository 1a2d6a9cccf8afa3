package protect

import (
	"slices"
	"sync"

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

	// mu guards the lazily built base trees so one scheme value can serve
	// concurrent scenario evaluations.
	mu sync.Mutex
	// base[dst] is mask 0's reverse tree toward dst, the failure-free
	// topology's: the same for every Loads call, so it is built once and
	// read-only after.
	base []*spf.Tree
	// scratch is a free list of per-call states for the other masks.
	scratch freeList[fcpScratch]
}

// fcpScratch is one Loads call's state, per mask of learned failures (bit
// i for the i-th failed link): the down-set the mask's snapshot removes,
// that snapshot's reverse trees (unused for mask 0, whose are FCP.base),
// whether an OD pair's flow has reached the mask, and the flow per
// (mask, node) state at mask·N + node. flow and live are all zero between
// OD pairs.
type fcpScratch struct {
	downs []graph.LinkSet
	trees []spf.Trees
	live  []bool
	flow  []float64
	hops  []graph.LinkID
}

// reset sizes the scratch for the failed links fids on n nodes, sets every
// mask's down-set, invalidates its trees and returns the number of masks.
func (sc *fcpScratch) reset(fids []graph.LinkID, n int) int {
	masks := 1 << len(fids)
	if len(sc.downs) < masks {
		sc.downs = make([]graph.LinkSet, masks)
		sc.trees = make([]spf.Trees, masks)
		sc.live = make([]bool, masks)
	}
	if len(sc.flow) < masks*n {
		sc.flow = make([]float64, masks*n)
	}
	for m := 0; m < masks; m++ {
		sc.downs[m].Clear()
		for i, id := range fids {
			if m&(1<<i) != 0 {
				sc.downs[m].Add(id)
			}
		}
		sc.trees[m].Reset()
	}
	return masks
}

// Name implements Scheme.
func (s *FCP) Name() string { return "FCP" }

// init builds the failure-free reverse tree of every destination once.
func (s *FCP) init() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.base != nil {
		return
	}
	c := s.G.CSR()
	cost := spf.WeightCost(s.G)
	var ts spf.Trees
	var none graph.LinkSet
	base := make([]*spf.Tree, c.N)
	for dst := range base {
		base[dst] = ts.To(c, graph.NodeID(dst), cost, &none)
	}
	s.base = base
}

// Loads implements Scheme.
func (s *FCP) Loads(failed graph.LinkSet, d *traffic.Matrix) []float64 {
	s.init()
	g := s.G
	c := g.CSR()
	cost := spf.WeightCost(g)
	loads := make([]float64, g.NumLinks())
	fids := failed.IDs()
	if len(fids) > 20 {
		panic("protect: FCP supports at most 20 simultaneous failures")
	}
	sc := s.scratch.get()
	defer s.scratch.put(sc)
	masks := sc.reset(fids, c.N)

	const eps = 1e-12
	d.Pairs(func(a, b graph.NodeID, vol float64) {
		// Fluid propagation over (node, mask) states. Masks only grow, so
		// processing states by increasing mask and, within a mask, in its
		// snapshot's tree order (farthest from b first) terminates. The
		// flow at a node b cannot reach in a snapshot drops there.
		sc.flow[a], sc.live[0] = vol, true
		for mask := 0; mask < masks; mask++ {
			if !sc.live[mask] {
				continue
			}
			down := &sc.downs[mask]
			t := s.base[b]
			if mask > 0 {
				t = sc.trees[mask].To(c, b, cost, down)
			}
			flow := sc.flow[mask*c.N : (mask+1)*c.N]
			for _, n := range t.Order {
				f := flow[n]
				if f <= eps || n == b {
					continue
				}
				// ECMP next hops in the snapshot (failed links the packet
				// has not learned yet still look usable). A plateau's one
				// hop stays at its distance, where the sorted pass may have
				// gone by already: the flow follows it at once.
				for u := n; u != b; {
					if sc.hops = spf.Hops(c, u, cost, down, t.Dist, t.Next, sc.hops); len(sc.hops) == 0 {
						break
					}
					share := f / float64(len(sc.hops))
					walk := u
					for _, id := range sc.hops {
						if failed.Contains(id) {
							// Packet hits the failed link, learns it, stays at
							// the node with a bigger mask.
							m := mask | 1<<slices.Index(fids, id)
							sc.flow[m*c.N+int(u)] += share
							sc.live[m] = true
							continue
						}
						loads[id] += share
						v := g.Link(id).Dst
						switch {
						case v == b: // delivered
						case t.Dist[v] == t.Dist[u]:
							walk = v
						default:
							flow[v] += share
						}
					}
					if walk == u {
						break
					}
					u = walk
				}
			}
			clear(flow)
			sc.live[mask] = false
		}
	})
	return loads
}
