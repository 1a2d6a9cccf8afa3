// Package spf implements shortest-path routing: the reverse Dijkstra
// kernels, the equal-cost hop rule every ECMP-style consumer shares,
// OSPF-style ECMP routing in flow representation, inverse-capacity
// weights, and a Fortz–Thorup-style local-search IGP weight optimizer.
//
// Every query has one contract: the graph's CSR view, a cost row indexed
// by link ID, a down-set of excluded links (nil = none), and caller-owned
// scratch.
package spf

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/graph"
	"repro/internal/routing"
)

// Infinity marks unreachable nodes in distance vectors.
var Infinity = math.Inf(1)

// WeightCost returns g's IGP-weight cost row: the CSR's Weight column,
// shared and read-only.
func WeightCost(g *graph.Graph) []float64 { return g.CSR().Weight }

// Hops appends to buf, and returns, the equal-cost next hops of node u in
// a reverse tree (dist, next) that SPFTo built over cost and down: every
// alive out-link, in CSR order, whose head is strictly closer to the
// destination and whose cost closes the gap to within 1e-9·(1+dist[u]).
// Where a cost is absorbed in the add, a reachable node can have no such
// link (a plateau); it gets its canonical next link instead, whose head is
// at its own distance and which never closes a cycle. The destination and
// unreachable nodes have no hops.
func Hops(c *graph.CSR, u graph.NodeID, cost []float64, down *graph.LinkSet, dist []float64, next []int32, buf []graph.LinkID) []graph.LinkID {
	const eps = 1e-9
	hops := buf[:0]
	du := dist[u]
	for a, b := c.OutHead[u], c.OutHead[u+1]; a < b; a++ {
		id := c.OutLinks[a]
		if down != nil && down.Contains(graph.LinkID(id)) {
			continue
		}
		if dv := dist[c.Dst[id]]; dv < du && math.Abs(cost[id]+dv-du) < eps*(1+du) {
			hops = append(hops, graph.LinkID(id))
		}
	}
	if len(hops) == 0 && next[u] >= 0 {
		hops = append(hops, graph.LinkID(next[u]))
	}
	return hops
}

// ShortestPath returns the links of one shortest path from src to dst over
// the links outside down, or nil if dst is unreachable (or is src). Each
// step takes the first of Hops, so the path is simple: at most N−1 links.
// A longer walk would have revisited a node, so it stops there and reports
// no path rather than grow without bound. s is the kernel scratch the query
// runs on.
func ShortestPath(g *graph.Graph, src, dst graph.NodeID, down *graph.LinkSet, cost []float64, s *Scratch) []graph.LinkID {
	c := g.CSR()
	SPFTo(c, dst, cost, down, s)
	if s.Dist[src] == Infinity {
		return nil
	}
	var links, hops []graph.LinkID
	for u := src; u != dst; u = graph.NodeID(c.Dst[hops[0]]) {
		if hops = Hops(c, u, cost, down, s.Dist, s.Next, hops); len(hops) == 0 || len(links) == c.N-1 {
			return nil
		}
		links = append(links, hops[0])
	}
	return links
}

// ECMPFlow computes OSPF ECMP routing in flow representation for the given
// commodities over the links outside down. Commodities whose destination
// is unreachable get an all-zero fraction row (their traffic is lost, as
// under a network partition). Callers that need only the link loads use
// ECMPLoads, which builds no [commodity][link] matrix.
func ECMPFlow(g *graph.Graph, comms []routing.Commodity, down *graph.LinkSet, cost []float64) *routing.Flow {
	f := routing.NewFlow(g, comms)
	var sc ECMPScratch
	c := sc.start(g)
	for k, cm := range comms {
		sc.fractions(c, cm.Src, cm.Dst, cost, down, sc.trees.To(c, cm.Dst, cost, down), f.Frac[k])
		sc.touched = sc.touched[:0]
	}
	return f
}

// ECMPLoads adds the link loads of ECMPFlow's routing into loads (of link
// count length) without building the flow: each commodity's split
// fractions go into one dense row held in sc, and each nonzero fraction v
// is added to its link as d·v, commodity by commodity, skipping
// commodities of zero demand. Those are the products Flow.Loads forms,
// added in its order, so a zero loads row comes back equal, bit for bit,
// to ECMPFlow(...).Loads(). A commodity that cannot reach its destination
// adds nothing.
func ECMPLoads(g *graph.Graph, comms []routing.Commodity, down *graph.LinkSet, cost []float64, sc *ECMPScratch, loads []float64) {
	c := sc.start(g)
	row := sc.row
	for _, cm := range comms {
		d := cm.Demand
		if d == 0 {
			continue
		}
		sc.fractions(c, cm.Src, cm.Dst, cost, down, sc.trees.To(c, cm.Dst, cost, down), row)
		for _, e := range sc.touched {
			if v := row[e]; v != 0 {
				loads[e] += d * v
			}
			row[e] = 0
		}
		sc.touched = sc.touched[:0]
	}
}

// ECMPScratch holds ECMPLoads' reusable state: the reverse trees, one per
// destination routed to, and the per-commodity buffers. The zero value is
// ready to use; a scratch must not be shared between concurrent calls.
type ECMPScratch struct {
	trees   Trees
	inflow  []float64 // per node, all zero between commodities
	row     []float64 // per link, all zero between commodities
	touched []int32   // the links fractions made nonzero in a row
	hops    []graph.LinkID
}

// start sizes the scratch for g and invalidates every tree.
func (sc *ECMPScratch) start(g *graph.Graph) *graph.CSR {
	c := g.CSR()
	sc.trees.Reset()
	if len(sc.inflow) < c.N {
		sc.inflow = make([]float64, c.N)
	}
	if len(sc.row) < c.NumLinks() {
		sc.row = make([]float64, c.NumLinks())
	}
	return c
}

// Trees holds one reverse tree per destination for one cost row and
// down-set at a time: To computes a destination's tree on its first visit
// after Reset. Reset invalidates the trees by generation stamp, never by
// reallocation, so repeated use holds live memory bounded by one tree per
// destination ever visited. The zero value is ready to use; a Trees must
// not be shared between concurrent callers.
type Trees struct {
	spf   Scratch
	trees []Tree // per destination node, lazily allocated, reused
	gen   int
}

// Tree is one destination's reverse tree — SPFTo's Dist and Next — and
// Order, the order ECMP splits along it: the reachable nodes, farthest
// first, ascending node on ties. Every hop but a plateau's leads strictly
// closer, so strictly later in Order.
type Tree struct {
	Dist  []float64
	Next  []int32
	Order []graph.NodeID
	stamp int // valid iff stamp == Trees.gen
}

// Reset invalidates every tree.
func (ts *Trees) Reset() { ts.gen++ }

// To returns dst's tree over cost and the links outside down, computing it
// on the first visit to dst since Reset. Between Resets every call passes
// the same cost and down.
func (ts *Trees) To(c *graph.CSR, dst graph.NodeID, cost []float64, down *graph.LinkSet) *Tree {
	if ts.gen == 0 {
		ts.gen = 1 // a fresh tree's stamp is 0
	}
	if len(ts.trees) < c.N {
		ts.trees = append(ts.trees, make([]Tree, c.N-len(ts.trees))...)
	}
	t := &ts.trees[dst]
	if t.stamp != ts.gen {
		SPFTo(c, dst, cost, down, &ts.spf)
		t.Dist = append(t.Dist[:0], ts.spf.Dist...)
		t.Next = append(t.Next[:0], ts.spf.Next...)
		t.Order = t.Order[:0]
		for n, d := range t.Dist {
			if d != Infinity {
				t.Order = append(t.Order, graph.NodeID(n))
			}
		}
		slices.SortStableFunc(t.Order, func(a, b graph.NodeID) int { return cmp.Compare(t.Dist[b], t.Dist[a]) })
		t.stamp = ts.gen
	}
	return t
}

// fractions adds the ECMP split fractions of one unit injected at src
// toward t's destination into frac, a zero row: equal splitting over Hops
// at every node, in t's order, noting in sc.touched each link it makes
// nonzero. frac stays zero if dst is unreachable from src.
func (sc *ECMPScratch) fractions(c *graph.CSR, src, dst graph.NodeID, cost []float64, down *graph.LinkSet, t *Tree, frac []float64) {
	if t.Dist[src] == Infinity {
		return
	}
	inflow := sc.inflow
	inflow[src] = 1
	for _, u := range t.Order {
		f := inflow[u]
		inflow[u] = 0
		// A plateau's one hop stays at its distance, where the order may
		// have gone by already: carry the flow along it at once.
		for f > 0 && u != dst {
			sc.hops = Hops(c, u, cost, down, t.Dist, t.Next, sc.hops)
			if len(sc.hops) == 0 {
				break // unreachable for a finite distance
			}
			if v := graph.NodeID(c.Dst[sc.hops[0]]); t.Dist[v] == t.Dist[u] {
				sc.add(frac, sc.hops[0], f)
				u = v
				continue
			}
			share := f / float64(len(sc.hops))
			for _, id := range sc.hops {
				sc.add(frac, id, share)
				inflow[c.Dst[id]] += share
			}
			break
		}
	}
}

// add adds v to frac[id], noting id in sc.touched when the cell was zero.
func (sc *ECMPScratch) add(frac []float64, id graph.LinkID, v float64) {
	if frac[id] == 0 {
		sc.touched = append(sc.touched, int32(id))
	}
	frac[id] += v
}

// InvCapWeights sets every link's weight to refCapacity/capacity (Cisco's
// classic inverse-capacity default).
func InvCapWeights(g *graph.Graph, refCapacity float64) {
	for _, l := range g.Links() {
		g.SetWeight(l.ID, refCapacity/l.Capacity)
	}
}

// UnitWeights sets every link's weight to 1 (hop count routing).
func UnitWeights(g *graph.Graph) {
	for _, l := range g.Links() {
		g.SetWeight(l.ID, 1)
	}
}
