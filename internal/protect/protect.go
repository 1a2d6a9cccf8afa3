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
	// Loads returns the load on every link; failed links carry zero.
	// Traffic the scheme cannot deliver (no route left, or a forwarding
	// dead end) loads no link past the point where it drops.
	Loads(failed graph.LinkSet, d *traffic.Matrix) []float64
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
	// scratch is a free list of ECMP scratches, so one scheme value can
	// serve concurrent scenario evaluations; a scratch's contents never
	// reach a result.
	scratch freeList[spf.ECMPScratch]
	// matrix caches the commodities of the demand matrix.
	matrix perMatrix
}

// Name implements Scheme.
func (s *OSPFRecon) Name() string { return "OSPF+recon" }

// Loads implements Scheme.
func (s *OSPFRecon) Loads(failed graph.LinkSet, d *traffic.Matrix) []float64 {
	comms := s.matrix.commodities(s.G, d)
	loads := make([]float64, s.G.NumLinks())
	sc := s.scratch.get()
	spf.ECMPLoads(s.G, comms, &failed, spf.WeightCost(s.G), sc, loads)
	s.scratch.put(sc)
	return loads
}

// freeList is a mutex-guarded free list of scratch values for schemes
// that concurrent scenario evaluations share. The zero value is ready to
// use. A scratch's contents never influence a result, so the order in
// which evaluations recycle them does not either.
type freeList[T any] struct {
	mu   sync.Mutex
	free []*T
}

// get pops a scratch from the list, or returns a fresh one.
func (l *freeList[T]) get() *T {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n := len(l.free); n > 0 {
		sc := l.free[n-1]
		l.free = l.free[:n-1]
		return sc
	}
	return new(T)
}

// put returns a scratch to the list.
func (l *freeList[T]) put(sc *T) {
	l.mu.Lock()
	l.free = append(l.free, sc)
	l.mu.Unlock()
}

// perMatrix caches what a scheme derives from the demand matrix alone —
// its OD commodities and, for the schemes that keep the failure-free OSPF
// routing, that routing's ECMP loads — keyed by the matrix's content
// fingerprint (pointer identity would serve stale values after an in-place
// matrix mutation) and recomputed when the matrix changes. Evaluation hands
// every scenario the same matrix, so each is built once. The zero value is
// ready to use; a perMatrix is safe for concurrent use. The returned slices
// are shared: callers must not write to them.
type perMatrix struct {
	mu    sync.Mutex
	fp    uint64
	comms []routing.Commodity
	loads []float64
}

// at drops the cached values unless they are d's; the caller holds mu.
func (m *perMatrix) at(g *graph.Graph, d *traffic.Matrix) {
	if fp := d.Fingerprint(); m.comms == nil || m.fp != fp {
		m.fp, m.loads = fp, nil
		m.comms = routing.ODCommodities(g.NumNodes(), d.At)
	}
}

// commodities returns the OD commodities of d on g.
func (m *perMatrix) commodities(g *graph.Graph, d *traffic.Matrix) []routing.Commodity {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.at(g, d)
	return m.comms
}

// baseLoads returns the failure-free ECMP loads of d on g.
func (m *perMatrix) baseLoads(g *graph.Graph, d *traffic.Matrix) []float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.at(g, d)
	if m.loads == nil {
		loads := make([]float64, g.NumLinks())
		var sc spf.ECMPScratch
		spf.ECMPLoads(g, m.comms, nil, spf.WeightCost(g), &sc, loads)
		m.loads = loads
	}
	return m.loads
}

// CSPFDetour models the widely deployed MPLS fast-reroute bypass: traffic
// keeps following the pre-failure OSPF paths, and the traffic that crossed
// a failed link is tunneled over that link's bypass — the shortest path
// from its head to its tail computed with all failed links removed. Traffic
// on a failed link without a bypass drops.
type CSPFDetour struct {
	G *graph.Graph
	// base caches the failure-free ECMP loads per distinct demand matrix,
	// so one scheme value can serve concurrent scenario evaluations.
	base perMatrix
}

// Name implements Scheme.
func (s *CSPFDetour) Name() string { return "OSPF+CSPF-detour" }

// Loads implements Scheme.
func (s *CSPFDetour) Loads(failed graph.LinkSet, d *traffic.Matrix) []float64 {
	baseLoads := s.base.baseLoads(s.G, d)
	loads := append([]float64(nil), baseLoads...)
	var sc spf.Scratch
	for _, e := range failed.IDs() {
		carried := baseLoads[e]
		loads[e] = 0
		if carried == 0 {
			continue
		}
		link := s.G.Link(e)
		for _, id := range spf.ShortestPath(s.G, link.Src, link.Dst, &failed, spf.WeightCost(s.G), &sc) {
			loads[id] += carried
		}
	}
	return loads
}
