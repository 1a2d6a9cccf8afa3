// Package protect implements the protection/rerouting schemes the paper
// compares R3 against: OSPF reconvergence, OSPF with CSPF fast-reroute
// detours, Failure-Carrying Packets (FCP), Path Splicing, and the
// flow-based optimal link detour (opt). Each scheme answers one question:
// given a traffic matrix and a set of failed links, what load lands on
// every surviving link?
package protect

import (
	"sync"

	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/spf"
	"repro/internal/traffic"
)

// Scheme computes per-link loads for a demand matrix under a failure set.
type Scheme interface {
	// Name identifies the scheme in experiment output.
	Name() string
	// Loads returns the load on every link (failed links carry zero) and
	// the total demand dropped (lost reachability or forwarding dead
	// ends).
	Loads(failed graph.LinkSet, d *traffic.Matrix) (loads []float64, lost float64)
}

// Bottleneck returns the maximum utilization of the given loads over the
// surviving links.
func Bottleneck(g *graph.Graph, failed graph.LinkSet, loads []float64) float64 {
	return BottleneckScaled(g, failed, nil, loads)
}

// BottleneckScaled is Bottleneck against degraded capacities: capScale
// (length NumLinks when non-nil) multiplies each link's capacity, so a
// partially degraded link is judged at its effective capacity. A nil
// capScale computes exactly Bottleneck.
func BottleneckScaled(g *graph.Graph, failed graph.LinkSet, capScale []float64, loads []float64) float64 {
	worst := 0.0
	for e, l := range loads {
		if failed.Contains(graph.LinkID(e)) {
			continue
		}
		c := g.Link(graph.LinkID(e)).Capacity
		if capScale != nil {
			c *= capScale[e]
		}
		if u := l / c; u > worst {
			worst = u
		}
	}
	return worst
}

// OSPFRecon models OSPF reconvergence: after failures, OSPF recomputes
// ECMP shortest paths on the surviving topology with unchanged weights.
type OSPFRecon struct {
	G *graph.Graph
}

// Name implements Scheme.
func (s *OSPFRecon) Name() string { return "OSPF+recon" }

// Loads implements Scheme.
func (s *OSPFRecon) Loads(failed graph.LinkSet, d *traffic.Matrix) ([]float64, float64) {
	comms := routing.ODCommodities(s.G.NumNodes(), d.At)
	f := spf.ECMPFlow(s.G, comms, &failed, spf.WeightCost(s.G))
	loads := f.Loads()
	var lost float64
	for k, c := range f.Comms {
		if rowZero(f.Frac[k]) {
			lost += c.Demand
		}
	}
	return loads, lost
}

func rowZero(fr []float64) bool {
	for _, v := range fr {
		if v != 0 {
			return false
		}
	}
	return true
}

// CSPFDetour models the widely deployed MPLS fast-reroute bypass: traffic
// keeps following the pre-failure OSPF paths, and the traffic that crossed
// a failed link is tunneled over that link's bypass — the shortest path
// from its head to its tail computed with all failed links removed.
type CSPFDetour struct {
	G *graph.Graph
	// base caches the failure-free ECMP routing per distinct demand
	// matrix, keyed by content fingerprint (pointer identity would serve
	// a stale routing after an in-place matrix mutation); recomputed when
	// the matrix changes. Guarded by mu so one scheme value can serve
	// concurrent scenario evaluations.
	mu       sync.Mutex
	base     *routing.Flow
	baseFP   uint64
	haveBase bool
}

// Name implements Scheme.
func (s *CSPFDetour) Name() string { return "OSPF+CSPF-detour" }

// Loads implements Scheme.
func (s *CSPFDetour) Loads(failed graph.LinkSet, d *traffic.Matrix) ([]float64, float64) {
	fp := d.Fingerprint()
	s.mu.Lock()
	if s.base == nil || !s.haveBase || s.baseFP != fp {
		comms := routing.ODCommodities(s.G.NumNodes(), d.At)
		s.base = spf.ECMPFlow(s.G, comms, nil, spf.WeightCost(s.G))
		s.baseFP = fp
		s.haveBase = true
	}
	base := s.base
	s.mu.Unlock()
	baseLoads := base.Loads()
	loads := make([]float64, s.G.NumLinks())
	copy(loads, baseLoads)
	var lost float64
	var sc spf.Scratch
	for _, e := range failed.IDs() {
		carried := baseLoads[e]
		loads[e] = 0
		if carried == 0 {
			continue
		}
		link := s.G.Link(e)
		bypass := spf.ShortestPath(s.G, link.Src, link.Dst, &failed, spf.WeightCost(s.G), &sc)
		if bypass == nil {
			lost += carried
			continue
		}
		for _, id := range bypass {
			loads[id] += carried
		}
	}
	return loads, lost
}
