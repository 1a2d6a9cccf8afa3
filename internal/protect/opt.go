package protect

import (
	"repro/internal/graph"
	"repro/internal/mcf"
	"repro/internal/routing"
	"repro/internal/traffic"
)

// OptDetour is the paper's "opt" baseline: flow-based optimal link detour
// routing computed per failure scenario. The base routing is fixed (OSPF
// ECMP on the full topology); for each failure set, the traffic that
// crossed each failed link becomes a commodity from the link's head to
// its tail and the detours are jointly optimized to
// minimize the bottleneck, given the surviving base load as background.
// It bounds what any practical link-protection scheme can achieve, but
// requires a fresh optimization for every scenario.
type OptDetour struct {
	G *graph.Graph
	// Iterations is the per-scenario solver effort (default 200).
	Iterations int

	// base caches the failure-free ECMP loads per demand matrix.
	base perMatrix
	// scratch is a free list of min-MLU scratches: a scenario's detour
	// solve works in one and reads its result out before returning it.
	scratch freeList[mcf.Scratch]
}

// Name implements Scheme.
func (s *OptDetour) Name() string { return "OSPF+opt" }

// Loads implements Scheme.
func (s *OptDetour) Loads(failed graph.LinkSet, d *traffic.Matrix) []float64 {
	baseLoads := s.base.baseLoads(s.G, d)

	// Background: surviving base load.
	bg := append([]float64(nil), baseLoads...)
	var detourComms []routing.Commodity
	for _, e := range failed.IDs() {
		bg[e] = 0
		if baseLoads[e] == 0 {
			continue
		}
		link := s.G.Link(e)
		detourComms = append(detourComms, routing.Commodity{
			Src: link.Src, Dst: link.Dst, Demand: baseLoads[e],
		})
	}
	if len(detourComms) == 0 {
		return bg
	}
	iters := s.Iterations
	if iters == 0 {
		iters = 200
	}
	loads := append([]float64(nil), bg...)
	sc := s.scratch.get()
	defer s.scratch.put(sc)
	res := mcf.MinMLUScratch(s.G, detourComms, mcf.Options{Alive: failed.Alive(), Background: bg, Iterations: iters}, sc)
	res.AddLoads(loads)
	return loads
}

// Optimal is flow-based optimal routing recomputed from scratch for each
// scenario: the lower bound every performance ratio is measured against.
type Optimal struct {
	G *graph.Graph
	// Iterations is the per-scenario solver effort (default 200).
	Iterations int

	// scratch is a free list of min-MLU scratches: a scenario's solve
	// works in one and reads its result out before returning it.
	scratch freeList[mcf.Scratch]
	// matrix caches the commodities of the demand matrix.
	matrix perMatrix
}

// Name implements Scheme.
func (s *Optimal) Name() string { return "optimal" }

// Loads implements Scheme.
func (s *Optimal) Loads(failed graph.LinkSet, d *traffic.Matrix) []float64 {
	return s.ScenarioLoads(failed, nil, d)
}

// ScenarioLoads is Loads under degraded capacities: capScale (length
// NumLinks when non-nil) multiplies each link's capacity in the
// optimization, so the optimum respects a scenario's effective
// capacities. A nil capScale computes exactly Loads.
func (s *Optimal) ScenarioLoads(failed graph.LinkSet, capScale []float64, d *traffic.Matrix) []float64 {
	comms := s.matrix.commodities(s.G, d)
	iters := s.Iterations
	if iters == 0 {
		iters = 200
	}
	sc := s.scratch.get()
	defer s.scratch.put(sc)
	res := mcf.MinMLUScratch(s.G, comms, mcf.Options{Alive: failed.Alive(), CapScale: capScale, Iterations: iters}, sc)
	loads := make([]float64, s.G.NumLinks())
	res.AddLoads(loads)
	return loads
}
