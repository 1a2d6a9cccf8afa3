package spf

import (
	"sync"

	"repro/internal/graph"
)

// This file is the allocation-free shortest-path kernel: Dijkstra over the
// graph's CSR view with costs read from a flat per-link array, liveness
// tested against a LinkSet bitmask, and all working state in a
// caller-provided Scratch. With a warm Scratch a call performs zero heap
// allocations.
//
// Bit-identity contract. The planner's byte-identical-plans guarantee no
// longer rides on heap pop order. Instead:
//
//   - Dist is the unique fixpoint dist[u] = min over alive out-links e of
//     cost[e] ⊕ dist[Dst[e]], where ⊕ is one float64 add. Every candidate
//     is a single rounding of cost[e] + dist[Dst[e]] anchored at dst, so
//     the fixpoint — and therefore Dist — is independent of the algorithm
//     that computed it (binary-heap Dijkstra, incremental repair, the
//     delta-stepping bucket kernel).
//   - Next is a pure function of (csr, cost, down, Dist). For each node it
//     picks, among the tight links (dist[u] == cost[e] + dist[Dst[e]],
//     exact float equality) whose head is strictly closer to the
//     destination, the one with the smallest tieKey. Nodes whose only
//     tight links stay at equal distance — possible only when a tight
//     link's cost is absorbed to zero in the add, which the planner's
//     +1e-12 cost floors make unreachable in practice — are resolved by a
//     deterministic multi-pass sweep (see resolvePlateaus); pure local
//     tie-breaking cannot resolve them without risking next-pointer
//     cycles. SPFTo applies the rule while it relaxes; canonicalNextInto
//     derives it from a settled Dist in a second pass, for the kernels
//     that relax a node more than once (DynTree's repairs, SPFToDelta).
//
// Because (Dist, Next) is a pure function of the inputs, any exact SSSP
// kernel in this package yields bitwise-identical results, which is what
// lets the incremental DynTree repair and the delta-stepping variant swap
// in for the flat kernel without changing a single plan byte. Equal keys
// are common in the planner (gradient costs share the +1e-12 floor
// wherever exp underflows to zero), so this independence is load-bearing,
// not theoretical.

// kItem is one heap entry: a tentative distance and the node it reaches.
// Stale entries are skipped on pop (lazy deletion).
type kItem struct {
	dist float64
	node int32
}

// Scratch holds the kernel's working state so repeated calls allocate
// nothing once the buffers have grown to the graph's size. A Scratch must
// not be shared between concurrent calls.
type Scratch struct {
	// Dist is the distance vector of the last call, indexed by node.
	Dist []float64
	// Next is the next-link vector of the last SPFTo call, indexed by
	// node: the first link of a shortest path toward the destination, or
	// -1 when unreachable (and at the destination itself).
	Next []int32
	// Plateaus reports whether the last canonical-next derivation saw any
	// plateau node (all tight links at equal distance). DynTree reads it:
	// plateau resolution is a global multi-pass computation, so a repaired
	// tree may re-derive Next per-node only when no plateaus exist.
	Plateaus bool
	heap     []kItem
	plat     []int32 // plateau nodes awaiting resolvePlateaus
}

// reset sizes the buffers for n nodes and initializes Dist to +Inf and
// Next to -1.
func (s *Scratch) reset(n int) {
	if cap(s.Dist) < n {
		s.Dist = make([]float64, n)
		s.Next = make([]int32, n)
		s.heap = make([]kItem, 0, n)
	}
	s.Dist = s.Dist[:n]
	s.Next = s.Next[:n]
	for i := range s.Dist {
		s.Dist[i] = Infinity
		s.Next[i] = -1
	}
}

// siftUp replicates container/heap.up with Less = strict < on dist.
func siftUp(h []kItem, j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !(h[j].dist < h[i].dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

// siftDown replicates container/heap.down with Less = strict < on dist.
func siftDown(h []kItem, i int) {
	n := len(h)
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && h[j2].dist < h[j1].dist {
			j = j2
		}
		if !(h[j].dist < h[i].dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// SPFTo runs reverse Dijkstra toward dst over the CSR view: distances and
// next links for every node are left in s.Dist and s.Next. cost[id] is the
// nonnegative cost of link id; links in down (nil = none) are excluded.
// Dist is the unique shortest-distance fixpoint and Next is its canonical
// next vector (see the contract at the top of this file), so every exact
// kernel in this package returns bitwise-identical results.
func SPFTo(c *graph.CSR, dst graph.NodeID, cost []float64, down *graph.LinkSet, s *Scratch) {
	s.reset(c.N)
	dist, next := s.Dist, s.Next
	dist[dst] = 0
	h := append(s.heap[:0], kItem{0, int32(dst)})
	for len(h) > 0 {
		// container/heap.Pop: swap root with last, sift down, pop last.
		last := len(h) - 1
		h[0], h[last] = h[last], h[0]
		siftDown(h[:last], 0)
		it := h[last]
		h = h[:last]
		if it.dist > dist[it.node] {
			continue
		}
		// it.node is settled: it.dist is final, so every candidate below is
		// the exact add the canonical rule tests. A link is a next-link
		// candidate only when its head is strictly closer (dv < nd).
		dv := it.dist
		for a, b := c.InHead[it.node], c.InHead[it.node+1]; a < b; a++ {
			id := c.InLinks[a]
			if down != nil && down.Contains(graph.LinkID(id)) {
				continue
			}
			u := c.Src[id]
			nd := dv + cost[id]
			if nd < dist[u] {
				dist[u] = nd
				next[u] = -1
				if dv < nd {
					next[u] = id
				}
				h = append(h, kItem{nd, u})
				siftUp(h, len(h)-1)
			} else if nd == dist[u] && dv < nd && (next[u] < 0 || tieKey(u, id) < tieKey(u, next[u])) {
				next[u] = id
			}
		}
	}
	s.heap = h[:0]
	// A reachable node left without a strictly-closer tight link reached
	// its distance only through links whose cost vanished in the add: a
	// plateau.
	plat := s.plat[:0]
	for u := range next {
		if next[u] < 0 && dist[u] != Infinity && u != int(dst) {
			plat = append(plat, int32(u))
		}
	}
	s.Plateaus = len(plat) > 0
	if s.Plateaus {
		resolvePlateaus(c, dst, cost, down, dist, next, plat)
	}
	s.plat = plat[:0]
}

// tieKey orders tied tight links. A plain smallest-id rule would funnel
// every tied path in the graph through the same low-id links — gradient
// rows in the planner are tied at the 1e-12 floor across most cells, and
// concentrating those detours measurably degrades protection quality — so
// ties are broken by a deterministic per-node hash that spreads choices
// across the link space while remaining a pure function of (u, id).
func tieKey(u, id int32) uint32 {
	return (uint32(id)*0x9E3779B1 ^ uint32(u)*0x85EBCA77) * 0x27D4EB2F
}

// canonicalLinkAt returns the canonical next link for node u given a
// settled distance vector: among the alive out-links e that are tight
// (dist[u] == cost[e] + dist[Dst[e]], exact float equality) with a head
// strictly closer to the destination, the one with the smallest tieKey. plateau reports that u has only
// equal-distance tight links, which the caller must resolve globally —
// adopting one locally can create next-pointer cycles.
func canonicalLinkAt(c *graph.CSR, u int32, cost []float64, down *graph.LinkSet, dist []float64) (link int32, plateau bool) {
	du := dist[u]
	best := int32(-1)
	for a, b := c.OutHead[u], c.OutHead[u+1]; a < b; a++ {
		id := c.OutLinks[a]
		if down != nil && down.Contains(graph.LinkID(id)) {
			continue
		}
		dv := dist[c.Dst[id]]
		if dv >= du {
			if dv == du && cost[id]+dv == du {
				plateau = true
			}
			continue
		}
		if cost[id]+dv == du && (best < 0 || tieKey(u, id) < tieKey(u, best)) {
			best = id
		}
	}
	if best >= 0 {
		return best, false
	}
	return -1, plateau
}

// canonicalNextInto derives s.Next from the settled distance vector s.Dist
// in a second pass over every node's out-links, and sets s.Plateaus. It is
// a pure function of (c, cost, down, s.Dist) — it carries no state from
// whichever algorithm computed the distances — which is the property that
// makes all kernels in this package bitwise-interchangeable; SPFTo reaches
// the same Next inside its relaxation loop.
func canonicalNextInto(c *graph.CSR, dst graph.NodeID, cost []float64, down *graph.LinkSet, s *Scratch) {
	dist, next := s.Dist, s.Next
	plat := s.plat[:0]
	for u := int32(0); u < int32(c.N); u++ {
		if u == int32(dst) || dist[u] == Infinity {
			next[u] = -1
			continue
		}
		id, plateau := canonicalLinkAt(c, u, cost, down, dist)
		next[u] = id
		if plateau {
			plat = append(plat, u)
		}
	}
	s.Plateaus = len(plat) > 0
	if s.Plateaus {
		resolvePlateaus(c, dst, cost, down, dist, next, plat)
	}
	s.plat = plat[:0]
}

// resolvePlateaus assigns next links to plateau nodes — nodes whose tight
// links all stay at equal distance. A plateau node may adopt an
// equal-distance tight link only once its head is resolved; sweeping the
// (ascending-id) plateau list until a pass makes no progress yields a
// deterministic, cycle-free assignment. Termination: each plateau node's
// Dijkstra relaxation parent is an equal-distance node settled strictly
// earlier, so the parent chain grounds out at a non-plateau node and every
// pass resolves at least one plateau. The result depends only on
// (c, cost, down, dist), never on settle order itself.
func resolvePlateaus(c *graph.CSR, dst graph.NodeID, cost []float64, down *graph.LinkSet, dist []float64, next []int32, plateaus []int32) {
	for len(plateaus) > 0 {
		progress := false
		rest := plateaus[:0]
		for _, u := range plateaus {
			du := dist[u]
			best := int32(-1)
			for a, b := c.OutHead[u], c.OutHead[u+1]; a < b; a++ {
				id := c.OutLinks[a]
				if down != nil && down.Contains(graph.LinkID(id)) {
					continue
				}
				v := c.Dst[id]
				if cost[id]+dist[v] != du {
					continue
				}
				if v != int32(dst) && next[v] < 0 {
					continue // head not yet resolved
				}
				if best < 0 || tieKey(u, id) < tieKey(u, best) {
					best = id
				}
			}
			if best >= 0 {
				next[u] = best
				progress = true
			} else {
				rest = append(rest, u)
			}
		}
		if !progress {
			// Unreachable for a true distance fixpoint; leave the
			// remainder unresolved rather than loop forever.
			return
		}
		plateaus = rest
	}
}

// PathFromNext follows a next vector produced by SPFTo from src to the
// tree's destination, appending the links to buf (typically buf[:0] of a
// reusable slice) and returning it, or nil when src cannot reach the
// destination.
func PathFromNext(c *graph.CSR, src graph.NodeID, next []int32, buf []graph.LinkID) []graph.LinkID {
	u := int32(src)
	if next[u] < 0 {
		return nil
	}
	path := buf[:0]
	for next[u] >= 0 {
		id := next[u]
		path = append(path, graph.LinkID(id))
		u = c.Dst[id]
	}
	return path
}

// ScratchPool is a free list of kernel Scratches for concurrent callers
// (e.g. per-worker shortest-path fan-outs). The zero value is ready to
// use. Scratch contents never influence results, so recycling order does
// not affect determinism.
type ScratchPool struct {
	mu   sync.Mutex
	free []*Scratch
}

// Get pops a Scratch from the pool, or returns a fresh one.
func (p *ScratchPool) Get() *Scratch {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.free); n > 0 {
		s := p.free[n-1]
		p.free = p.free[:n-1]
		return s
	}
	return &Scratch{}
}

// Put returns a Scratch to the pool.
func (p *ScratchPool) Put(s *Scratch) {
	p.mu.Lock()
	p.free = append(p.free, s)
	p.mu.Unlock()
}
