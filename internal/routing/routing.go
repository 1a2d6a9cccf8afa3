// Package routing implements the flow representation of routing used by
// R3 (paper §2): each commodity (an origin-destination pair, or a protected
// link's head→tail pair) has a fraction in [0,1] on every directed link,
// subject to the validity conditions [R1]–[R4] of equation (1).
package routing

import (
	"fmt"
	"math"

	"repro/internal/graph"
)

// Commodity is one routed demand: traffic from Src to Dst of volume
// Demand. For protection routings the commodity corresponds to a protected
// link (Src = head, Dst = tail) and Demand is unused during optimization.
type Commodity struct {
	Src, Dst graph.NodeID
	Demand   float64
	// Link is the protected link ID when this commodity belongs to a
	// protection routing, or -1 for an ordinary OD commodity.
	Link graph.LinkID
}

// Flow is a routing in flow representation: Frac[k][e] is the fraction of
// commodity k's traffic carried by link e.
type Flow struct {
	G     *graph.Graph
	Comms []Commodity
	Frac  [][]float64
}

// NewFlow allocates a zero flow for the given commodities.
func NewFlow(g *graph.Graph, comms []Commodity) *Flow {
	f := &Flow{G: g, Comms: append([]Commodity(nil), comms...)}
	f.Frac = make([][]float64, len(comms))
	for k := range f.Frac {
		f.Frac[k] = make([]float64, g.NumLinks())
	}
	return f
}

// ODCommodities builds commodities from the positive entries of a demand
// function, in (source, destination) order. It is a convenience for
// traffic matrices without importing the traffic package. It counts the
// entries first and fills one slice of exactly that length, so demand is
// called twice per pair and must return the same value both times.
func ODCommodities(n int, demand func(a, b graph.NodeID) float64) []Commodity {
	k := 0
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if a != b && demand(graph.NodeID(a), graph.NodeID(b)) > 0 {
				k++
			}
		}
	}
	if k == 0 {
		return nil
	}
	comms := make([]Commodity, 0, k)
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if a == b {
				continue
			}
			if v := demand(graph.NodeID(a), graph.NodeID(b)); v > 0 {
				comms = append(comms, Commodity{
					Src: graph.NodeID(a), Dst: graph.NodeID(b), Demand: v, Link: -1,
				})
			}
		}
	}
	return comms
}

// LinkCommodities builds one unit commodity per directed link: the
// protection routing's demands (head(l) → tail(l)), in link-ID order.
func LinkCommodities(g *graph.Graph) []Commodity {
	comms := make([]Commodity, g.NumLinks())
	for _, l := range g.Links() {
		comms[l.ID] = Commodity{Src: l.Src, Dst: l.Dst, Demand: 0, Link: l.ID}
	}
	return comms
}

// Clone returns a deep copy of the flow.
func (f *Flow) Clone() *Flow {
	cp := &Flow{G: f.G, Comms: append([]Commodity(nil), f.Comms...)}
	cp.Frac = make([][]float64, len(f.Frac))
	for k := range f.Frac {
		cp.Frac[k] = append([]float64(nil), f.Frac[k]...)
	}
	return cp
}

// Validate checks conditions [R1]–[R4] for the commodity's dense row fr
// within tolerance eps:
//
//	[R1] flow conservation at nodes other than the commodity endpoints;
//	[R2] the source emits exactly one unit;
//	[R3] nothing flows back into the source;
//	[R4] every fraction lies in [0, 1] (NaN does not).
//
// A commodity whose source equals its destination is rejected.
func (c Commodity) Validate(g *graph.Graph, fr []float64, eps float64) error {
	if c.Src == c.Dst {
		return fmt.Errorf("source equals destination")
	}
	for e, v := range fr {
		if !(v >= -eps && v <= 1+eps) { // NaN fails both
			return fmt.Errorf("frac[%d] = %v outside [0,1] [R4]", e, v)
		}
	}
	var srcOut, srcIn float64
	for _, id := range g.Out(c.Src) {
		srcOut += fr[id]
	}
	for _, id := range g.In(c.Src) {
		srcIn += fr[id]
	}
	if math.Abs(srcOut-1) > eps {
		return fmt.Errorf("source emits %v, want 1 [R2]", srcOut)
	}
	if srcIn > eps {
		return fmt.Errorf("%v flows back into source [R3]", srcIn)
	}
	for n := 0; n < g.NumNodes(); n++ {
		node := graph.NodeID(n)
		if node == c.Src || node == c.Dst {
			continue
		}
		var in, out float64
		for _, id := range g.In(node) {
			in += fr[id]
		}
		for _, id := range g.Out(node) {
			out += fr[id]
		}
		if math.Abs(in-out) > eps {
			return fmt.Errorf("conservation violated at node %d (in %v, out %v) [R1]", n, in, out)
		}
	}
	return nil
}

// Loads returns the total load on every link: sum over commodities of
// demand × fraction.
func (f *Flow) Loads() []float64 {
	loads := make([]float64, f.G.NumLinks())
	for k, c := range f.Comms {
		if c.Demand == 0 {
			continue
		}
		for e, v := range f.Frac[k] {
			if v != 0 {
				loads[e] += c.Demand * v
			}
		}
	}
	return loads
}

// MLU returns the maximum link utilization of the given per-link loads.
func MLU(g *graph.Graph, loads []float64) float64 {
	max := 0.0
	for e, l := range loads {
		if u := l / g.Link(graph.LinkID(e)).Capacity; u > max {
			max = u
		}
	}
	return max
}

// SetDemands overwrites commodity demands from a lookup. Commodities whose
// pair has no entry keep demand zero.
func (f *Flow) SetDemands(demand func(a, b graph.NodeID) float64) {
	for k := range f.Comms {
		f.Comms[k].Demand = demand(f.Comms[k].Src, f.Comms[k].Dst)
	}
}

// Path is one decomposed routing path with the fraction of the commodity
// it carries.
type Path struct {
	Links []graph.LinkID
	Frac  float64
}

// Decompose performs flow decomposition of commodity k into at most
// maxPaths paths, after removing any circulation. The returned fractions
// sum to (approximately) 1 for a valid routing.
func (f *Flow) Decompose(k int, maxPaths int) []Path {
	c := f.Comms[k]
	resid := append([]float64(nil), f.Frac[k]...)
	var s LoopScratch
	s.removeCycles(f.G.CSR(), resid)
	var paths []Path
	const eps = 1e-9
	for len(paths) < maxPaths {
		// Widest-path extraction via greedy DFS following the largest
		// residual fraction.
		var links []graph.LinkID
		visited := make([]bool, f.G.NumNodes())
		u := c.Src
		ok := true
		for u != c.Dst {
			visited[u] = true
			best, bid := eps, graph.LinkID(-1)
			for _, id := range f.G.Out(u) {
				if resid[id] > best && !visited[f.G.Link(id).Dst] {
					best, bid = resid[id], id
				}
			}
			if bid < 0 {
				ok = false
				break
			}
			links = append(links, bid)
			u = f.G.Link(bid).Dst
		}
		if !ok || len(links) == 0 {
			break
		}
		bottleneck := math.Inf(1)
		for _, id := range links {
			if resid[id] < bottleneck {
				bottleneck = resid[id]
			}
		}
		for _, id := range links {
			resid[id] -= bottleneck
		}
		paths = append(paths, Path{Links: links, Frac: bottleneck})
	}
	return paths
}
