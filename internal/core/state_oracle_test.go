package core

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/routing"
)

// eagerState is the online State as it was before the copy-on-write
// overlay: NewState deep-copies every row of the plan, Fail/Degrade scan
// ξ_e densely per row, and Loads is routing.Flow.Loads over the dense
// matrix. It is kept as the differential oracle for State
// (TestStateMatchesEagerCopyOracle): same operations, same error texts,
// and — because both sides perform the same floating-point operations in
// the same order — the same bits.
type eagerState struct {
	g        *graph.Graph
	base     *routing.Flow
	prot     [][]float64
	failed   graph.LinkSet
	detours  map[graph.LinkID][]float64
	degraded map[graph.LinkID]float64
}

func newEagerState(plan *Plan) *eagerState {
	return &eagerState{
		g:       plan.G,
		base:    denseBase(plan),
		prot:    denseProt(plan),
		detours: make(map[graph.LinkID][]float64),
	}
}

func (s *eagerState) clone() *eagerState {
	prot := make([][]float64, len(s.prot))
	for i := range prot {
		prot[i] = append([]float64(nil), s.prot[i]...)
	}
	detours := make(map[graph.LinkID][]float64, len(s.detours))
	for e, xi := range s.detours {
		detours[e] = append([]float64(nil), xi...)
	}
	var degraded map[graph.LinkID]float64
	if s.degraded != nil {
		degraded = make(map[graph.LinkID]float64, len(s.degraded))
		for e, f := range s.degraded {
			degraded[e] = f
		}
	}
	return &eagerState{
		g:        s.g,
		base:     s.base.Clone(),
		prot:     prot,
		failed:   s.failed.Clone(),
		detours:  detours,
		degraded: degraded,
	}
}

func (s *eagerState) computeDetour(e graph.LinkID) []float64 {
	nL := s.g.NumLinks()
	pe := s.prot[e]
	pee := pe[e]
	xi := make([]float64, nL)
	if pee < 1-1e-3 {
		inv := 1 / (1 - pee)
		for l := 0; l < nL; l++ {
			if l == int(e) {
				continue
			}
			if pe[l] != 0 {
				xi[l] = pe[l] * inv
			}
		}
	}
	return xi
}

func (s *eagerState) fail(e graph.LinkID) error {
	if int(e) < 0 || int(e) >= s.g.NumLinks() {
		return fmt.Errorf("core: link %d out of range", e)
	}
	if s.failed.Contains(e) {
		return fmt.Errorf("core: link %d already failed", e)
	}
	if _, ok := s.degraded[e]; ok {
		return fmt.Errorf("core: link %d already degraded; cannot also fail it", e)
	}
	return s.failWith(e, s.computeDetour(e))
}

func (s *eagerState) failWith(e graph.LinkID, xi []float64) error {
	if int(e) < 0 || int(e) >= s.g.NumLinks() {
		return fmt.Errorf("core: link %d out of range", e)
	}
	if s.failed.Contains(e) {
		return fmt.Errorf("core: link %d already failed", e)
	}
	nL := s.g.NumLinks()
	if _, ok := s.degraded[e]; ok {
		return fmt.Errorf("core: link %d already degraded; cannot also fail it", e)
	}
	if len(xi) != nL {
		return fmt.Errorf("core: detour for link %d has %d entries, want %d", e, len(xi), nL)
	}
	if xi[e] != 0 {
		return fmt.Errorf("core: detour for link %d routes through the failed link itself", e)
	}
	for l, x := range xi {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("core: detour for link %d carries %v on link %d", e, x, l)
		}
	}
	for k := range s.base.Frac {
		fr := s.base.Frac[k]
		fe := fr[e]
		if fe == 0 {
			continue
		}
		for l := 0; l < nL; l++ {
			if xi[l] != 0 {
				fr[l] += fe * xi[l]
			}
		}
		fr[e] = 0
	}
	for u := 0; u < nL; u++ {
		if u == int(e) || s.failed.Contains(graph.LinkID(u)) {
			continue
		}
		pu := s.prot[u]
		pue := pu[e]
		if pue == 0 {
			continue
		}
		for l := 0; l < nL; l++ {
			if xi[l] != 0 {
				pu[l] += pue * xi[l]
			}
		}
		pu[e] = 0
	}
	s.failed.Add(e)
	s.detours[e] = append([]float64(nil), xi...)
	return nil
}

func (s *eagerState) degrade(e graph.LinkID, frac float64) error {
	if int(e) < 0 || int(e) >= s.g.NumLinks() {
		return fmt.Errorf("core: link %d out of range", e)
	}
	if math.IsNaN(frac) || frac <= 0 || frac >= 1 {
		return fmt.Errorf("core: degradation fraction %v outside (0, 1) for link %d (use Fail for a full loss)", frac, e)
	}
	if s.failed.Contains(e) {
		return fmt.Errorf("core: link %d already failed; cannot degrade it", e)
	}
	if _, ok := s.degraded[e]; ok {
		return fmt.Errorf("core: link %d already degraded", e)
	}
	nL := s.g.NumLinks()
	xi := s.computeDetour(e)
	for k := range s.base.Frac {
		fr := s.base.Frac[k]
		fe := fr[e]
		if fe == 0 {
			continue
		}
		moved := fe * frac
		for l := 0; l < nL; l++ {
			if xi[l] != 0 {
				fr[l] += moved * xi[l]
			}
		}
		fr[e] = fe * (1 - frac)
	}
	for u := 0; u < nL; u++ {
		if u == int(e) || s.failed.Contains(graph.LinkID(u)) {
			continue
		}
		pu := s.prot[u]
		pue := pu[e]
		if pue == 0 {
			continue
		}
		moved := pue * frac
		for l := 0; l < nL; l++ {
			if xi[l] != 0 {
				pu[l] += moved * xi[l]
			}
		}
		pu[e] = pue * (1 - frac)
	}
	if s.degraded == nil {
		s.degraded = make(map[graph.LinkID]float64)
	}
	s.degraded[e] = frac
	return nil
}

func (s *eagerState) scaleDemands(factor float64, ods []OD) {
	if ods == nil {
		for k := range s.base.Comms {
			s.base.Comms[k].Demand *= factor
		}
		return
	}
	set := make(map[OD]bool, len(ods))
	for _, od := range ods {
		set[od] = true
	}
	for k := range s.base.Comms {
		c := &s.base.Comms[k]
		if set[OD{c.Src, c.Dst}] {
			c.Demand *= factor
		}
	}
}

func (s *eagerState) loads() []float64 { return s.base.Loads() }

func (s *eagerState) mlu() float64 {
	worst := 0.0
	for e, l := range s.loads() {
		if s.failed.Contains(graph.LinkID(e)) {
			continue
		}
		c := s.g.Link(graph.LinkID(e)).Capacity
		if f, ok := s.degraded[graph.LinkID(e)]; ok {
			c *= 1 - f
		}
		u := l / c
		if math.IsNaN(u) {
			return u
		}
		if u > worst {
			worst = u
		}
	}
	return worst
}

func (s *eagerState) delivered(k int) float64 {
	c := s.base.Comms[k]
	var in, out float64
	for _, id := range s.g.In(c.Dst) {
		in += s.base.Frac[k][id]
	}
	for _, id := range s.g.Out(c.Dst) {
		out += s.base.Frac[k][id]
	}
	d := in - out
	if d < 0 {
		return 0
	}
	if d > 1 {
		return 1
	}
	return d
}

func (s *eagerState) lostDemand() float64 {
	var lost float64
	for k := range s.base.Comms {
		d := s.base.Comms[k].Demand
		if d == 0 {
			continue
		}
		lost += d * (1 - s.delivered(k))
	}
	return lost
}
