package protect

import (
	"sync"

	"repro/internal/graph"
	"repro/internal/lp"
	"repro/internal/mcf"
	"repro/internal/obs"
	"repro/internal/routing"
	"repro/internal/traffic"
)

// OptDetour is the paper's "opt" baseline: flow-based optimal link detour
// routing computed per failure scenario. The base routing is fixed (OSPF
// ECMP on the full topology, or a caller-provided flow); for each failure
// set, the traffic that crossed each failed link becomes a commodity from
// the link's head to its tail and the detours are jointly optimized to
// minimize the bottleneck, given the surviving base load as background.
// It bounds what any practical link-protection scheme can achieve, but
// requires a fresh optimization for every scenario.
type OptDetour struct {
	G *graph.Graph
	// Base optionally fixes the base routing; nil means OSPF ECMP with
	// the graph's current weights.
	Base *routing.Flow
	// Iterations is the per-scenario solver effort (default 200; the
	// exact solver ignores it).
	Iterations int
	// Exact solves each scenario's detour MCF with the exact LP solver,
	// warm-started from the first scenario whose shape repeats, instead
	// of Frank–Wolfe. Any LP failure falls back to the iterative solver
	// for that scenario. Intended for small topologies.
	Exact bool
	// Obs receives the LP solver's "lp." counters from exact solves.
	Obs *obs.Registry

	// base caches the failure-free ECMP loads per demand matrix when Base
	// is nil.
	base baseLoads
	// scratch is a free list of min-MLU scratches: a scenario's detour
	// solve works in one and reads its result out before returning it.
	scratch freeList[mcf.Scratch]
	// mu guards the warm basis.
	mu   sync.Mutex
	warm *lp.Basis
}

// Name implements Scheme.
func (s *OptDetour) Name() string { return "OSPF+opt" }

// baseLoads returns the failure-free base loads of d: the cached ECMP
// loads, shared and read-only, or, when Base is set, a fresh row of
// Σ d(src,dst)·frac over Base's rows — the products Base.Clone,
// SetDemands and Loads would form, without the clone.
func (s *OptDetour) baseLoads(d *traffic.Matrix) []float64 {
	if s.Base == nil {
		return s.base.get(s.G, d)
	}
	loads := make([]float64, s.Base.G.NumLinks())
	for k, c := range s.Base.Comms {
		dk := d.At(c.Src, c.Dst)
		if dk == 0 {
			continue
		}
		for e, v := range s.Base.Frac[k] {
			if v != 0 {
				loads[e] += dk * v
			}
		}
	}
	return loads
}

// solveDetour runs one scenario's detour optimization: the exact LP
// (with a set-once warm basis so parallel evaluations are deterministic)
// when Exact is set, Frank–Wolfe otherwise or on LP failure. It adds the
// detours' loads into loads and returns their lost demand.
func (s *OptDetour) solveDetour(detourComms []routing.Commodity, failed graph.LinkSet, bg []float64, iters int, loads []float64) float64 {
	opts := mcf.Options{Alive: failed.Alive(), Background: bg, Iterations: iters}
	if s.Exact {
		s.mu.Lock()
		opts.Warm = s.warm
		s.mu.Unlock()
		opts.Obs = s.Obs
		if res, err := mcf.MinMLUExact(s.G, detourComms, opts); err == nil {
			s.mu.Lock()
			if s.warm == nil {
				s.warm = res.Basis
			}
			s.mu.Unlock()
			res.AddLoads(loads)
			return res.Lost()
		}
	}
	sc := s.scratch.get()
	defer s.scratch.put(sc)
	res := mcf.MinMLUScratch(s.G, detourComms, opts, sc)
	res.AddLoads(loads)
	return res.Lost()
}

// Loads implements Scheme.
func (s *OptDetour) Loads(failed graph.LinkSet, d *traffic.Matrix) ([]float64, float64) {
	baseLoads := s.baseLoads(d)

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
			Src: link.Src, Dst: link.Dst, Demand: baseLoads[e], Link: e,
		})
	}
	if len(detourComms) == 0 {
		return bg, 0
	}
	iters := s.Iterations
	if iters == 0 {
		iters = 200
	}
	loads := append([]float64(nil), bg...)
	lost := s.solveDetour(detourComms, failed, bg, iters, loads)
	return loads, lost
}

// Optimal is flow-based optimal routing recomputed from scratch for each
// scenario: the lower bound every performance ratio is measured against.
type Optimal struct {
	G *graph.Graph
	// Iterations is the per-scenario solver effort (default 200; the
	// exact solver ignores it).
	Iterations int
	// Exact solves each scenario with the exact LP solver instead of
	// Frank–Wolfe, warm-starting from the first solved scenario's basis
	// (every scenario shares one LP shape, partitions included, so the
	// dual simplex repairs each re-solve in a few pivots). LP failures
	// fall back to the iterative solver. Intended for small topologies.
	Exact bool
	// Obs receives the LP solver's "lp." counters from exact solves.
	Obs *obs.Registry

	// mu guards the set-once warm basis: only the first successful solve
	// publishes its basis, so results never depend on the order in which
	// concurrent scenario evaluations finish.
	mu   sync.Mutex
	warm *lp.Basis
	// scratch is a free list of min-MLU scratches: a scenario's solve
	// works in one and reads its result out before returning it.
	scratch freeList[mcf.Scratch]
}

// Name implements Scheme.
func (s *Optimal) Name() string { return "optimal" }

// Loads implements Scheme.
func (s *Optimal) Loads(failed graph.LinkSet, d *traffic.Matrix) ([]float64, float64) {
	return s.ScenarioLoads(failed, nil, d)
}

// ScenarioLoads is Loads under degraded capacities: capScale (length
// NumLinks when non-nil) multiplies each link's capacity in the
// optimization, so the optimum respects a scenario's effective
// capacities. A nil capScale computes exactly Loads.
func (s *Optimal) ScenarioLoads(failed graph.LinkSet, capScale []float64, d *traffic.Matrix) ([]float64, float64) {
	comms := routing.ODCommodities(s.G.NumNodes(), d.At)
	iters := s.Iterations
	if iters == 0 {
		iters = 200
	}
	var res *mcf.Result
	if s.Exact {
		s.mu.Lock()
		warm := s.warm
		s.mu.Unlock()
		exact, err := mcf.MinMLUExact(s.G, comms, mcf.Options{Alive: failed.Alive(), CapScale: capScale, Warm: warm, Obs: s.Obs})
		if err == nil {
			s.mu.Lock()
			if s.warm == nil {
				s.warm = exact.Basis
			}
			s.mu.Unlock()
			res = exact
		}
	}
	if res == nil {
		sc := s.scratch.get()
		defer s.scratch.put(sc)
		res = mcf.MinMLUScratch(s.G, comms, mcf.Options{Alive: failed.Alive(), CapScale: capScale, Iterations: iters}, sc)
	}
	loads := make([]float64, s.G.NumLinks())
	res.AddLoads(loads)
	return loads, res.Lost()
}
