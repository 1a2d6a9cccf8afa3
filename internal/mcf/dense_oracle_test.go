package mcf

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/spf"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// minMLUDense is MinMLU as it was before its iterate became sparse rows:
// dense [commodity][link] matrices for the iterate and the direction, and
// the closure-based Dijkstra wrappers for the oracle. It is kept as the
// oracle MinMLU is held to bit for bit.
func minMLUDense(g *graph.Graph, comms []routing.Commodity, opts Options) *Result {
	opts.defaults()
	nL := g.NumLinks()
	f := routing.NewFlow(g, comms)

	cap := make([]float64, nL)
	for e := 0; e < nL; e++ {
		cap[e] = g.Link(graph.LinkID(e)).Capacity
		if opts.CapScale != nil {
			cap[e] *= opts.CapScale[e]
		}
	}
	bg := opts.Background
	if bg == nil {
		bg = make([]float64, nL)
	}

	// Reachability screen; remember reachable commodities.
	reach := make([]bool, len(comms))
	dropped := 0
	distCache := map[graph.NodeID][]float64{}
	costW := func(id graph.LinkID) float64 { return 1 }
	for k, c := range comms {
		distTo, ok := distCache[c.Dst]
		if !ok {
			distTo = spf.DijkstraTo(g, c.Dst, opts.Alive, costW)
			distCache[c.Dst] = distTo
		}
		if math.IsInf(distTo[c.Src], 1) {
			dropped++
			continue
		}
		reach[k] = true
	}

	// Initialize: route every reachable commodity on an
	// inverse-capacity-cost shortest path (a reasonable starting point
	// that avoids tiny links).
	loads := append([]float64(nil), bg...)
	invCap := func(id graph.LinkID) float64 { return 1e9 / cap[id] }
	assignShortestDense(g, f.Comms, reach, opts.Alive, invCap, func(k int, path []graph.LinkID) {
		for _, id := range path {
			f.Frac[k][id] = 1
			loads[id] += comms[k].Demand
		}
	})

	mlu := util(loads, cap)
	if allZeroDemand(comms) || mlu == 0 {
		return &Result{Flow: f, MLU: util(bg, cap), Dropped: dropped}
	}

	// Frank–Wolfe on Φ_μ(loads) = μ ln Σ_e exp(util_e/μ), with μ shrinking
	// as the objective tightens. The exact line search works on the true
	// MLU (convex piecewise-linear along the segment); a zero step is a
	// stall, escaped by the μ schedule and bounded by a stall counter.
	dirFrac := make([][]float64, len(comms)) // reused direction rows
	gotDir := make([]bool, len(comms))
	stalls := 0
	for it := 0; it < opts.Iterations; it++ {
		mu := math.Max(mlu/500, mlu*0.05*math.Pow(0.97, float64(it)))
		q := make([]float64, nL)
		softmax(q, loads, cap, mu)

		// Linear minimization oracle: shortest paths under cost q_e/c_e.
		cost := func(id graph.LinkID) float64 {
			return q[id]/cap[id] + 1e-15
		}
		dirLoads := append([]float64(nil), bg...)
		for k := range dirFrac {
			gotDir[k] = false
			if dirFrac[k] == nil {
				dirFrac[k] = make([]float64, nL)
			} else {
				for e := range dirFrac[k] {
					dirFrac[k][e] = 0
				}
			}
		}
		assignShortestDense(g, f.Comms, reach, opts.Alive, cost, func(k int, path []graph.LinkID) {
			gotDir[k] = true
			for _, id := range path {
				dirFrac[k][id] = 1
				dirLoads[id] += comms[k].Demand
			}
		})
		// A commodity without a fresh direction keeps its current routing.
		for k := range comms {
			if !reach[k] || gotDir[k] {
				continue
			}
			copy(dirFrac[k], f.Frac[k])
			d := comms[k].Demand
			for e, v := range f.Frac[k] {
				if v != 0 {
					dirLoads[e] += d * v
				}
			}
		}

		// Gap estimate from the smoothed gradient inner products.
		gap := innerUtil(q, loads, cap) - innerUtil(q, dirLoads, cap)
		if gap < opts.RelTol*mlu && it > 8 {
			break
		}

		gamma := lineSearch(loads, dirLoads, cap)
		if gamma <= 1e-9 {
			stalls++
			if stalls > 24 {
				break
			}
			continue
		}
		stalls = 0
		for e := 0; e < nL; e++ {
			loads[e] = (1-gamma)*loads[e] + gamma*dirLoads[e]
		}
		for k := range comms {
			if !reach[k] {
				continue
			}
			fk, dk := f.Frac[k], dirFrac[k]
			for e := 0; e < nL; e++ {
				fk[e] = (1-gamma)*fk[e] + gamma*dk[e]
			}
		}
		mlu = util(loads, cap)
	}

	f.RemoveLoops()
	// Recompute exactly from the final fractions.
	final := append([]float64(nil), bg...)
	f.AddLoads(final)
	return &Result{Flow: f, MLU: util(final, cap), Dropped: dropped}
}

// assignShortest invokes emit(k, path) with one shortest path per
// reachable commodity under the given cost, sharing one reverse Dijkstra
// per destination. Paths follow the Dijkstra tree, so they are always
// simple.
func assignShortestDense(g *graph.Graph, comms []routing.Commodity, reach []bool, alive func(graph.LinkID) bool, cost spf.Cost, emit func(int, []graph.LinkID)) {
	// Destinations are visited in first-seen commodity order, NOT map
	// iteration order: callers accumulate floating-point loads in emit
	// order, so a randomized order would make MinMLU's result vary run to
	// run (and break the solver's bit-reproducibility guarantee).
	groups := map[graph.NodeID][]int{}
	var order []graph.NodeID
	for k := range comms {
		if reach[k] {
			dst := comms[k].Dst
			if groups[dst] == nil {
				order = append(order, dst)
			}
			groups[dst] = append(groups[dst], k)
		}
	}
	for _, dst := range order {
		_, next := spf.DijkstraToWithNext(g, dst, alive, cost)
		for _, k := range groups[dst] {
			if path := spf.PathVia(g, comms[k].Src, next); path != nil {
				emit(k, path)
			}
		}
	}
}

// ring5 is a five-node duplex ring with uneven capacities.
func ring5() *graph.Graph {
	g := graph.New("ring5")
	for i := 0; i < 5; i++ {
		g.AddNode(string(rune('a' + i)))
	}
	for i := 0; i < 5; i++ {
		g.AddDuplex(graph.NodeID(i), graph.NodeID((i+1)%5), float64(10+5*i), 1, 1)
	}
	return g
}

// TestMinMLUMatchesDenseOracle holds the sparse-row MinMLU to the dense
// implementation it replaced: every fraction, the MLU and the drop count
// bit for bit, with no options and with each option that reaches the loop
// — a failure set that partitions a node off (so commodities drop and the
// destination order skips), background load, and degraded capacities.
func TestMinMLUMatchesDenseOracle(t *testing.T) {
	for _, tc := range []struct {
		g     *graph.Graph
		total float64
		iters int
	}{
		{ring5(), 30, 120},
		{topo.Abilene(), 300, 120},
		{topo.SBC(), 0.3 * topo.OC192 * 19, 60},
	} {
		g := tc.g
		nL := g.NumLinks()
		comms := routing.ODCommodities(g.NumNodes(), traffic.Gravity(g, tc.total, 5).At)

		// Node 1 loses every link (a partition), and one more duplex link
		// elsewhere fails.
		var down graph.LinkSet
		for e := 0; e < nL; e++ {
			l := g.Link(graph.LinkID(e))
			if l.Src == 1 || l.Dst == 1 {
				down.Add(l.ID)
			}
		}
		for e := nL - 1; e >= 0; e-- {
			if l := g.Link(graph.LinkID(e)); !down.Contains(l.ID) && l.Reverse >= 0 {
				down.Add(l.ID)
				down.Add(l.Reverse)
				break
			}
		}
		bg := make([]float64, nL)
		scale := make([]float64, nL)
		for e := range bg {
			bg[e] = 0.01 * float64(e%7) * g.Link(graph.LinkID(e)).Capacity
			scale[e] = 1 - 0.1*float64(e%4)
		}

		for _, oc := range []struct {
			name string
			opts Options
		}{
			{"plain", Options{}},
			{"alive", Options{Alive: func(id graph.LinkID) bool { return !down.Contains(id) }}},
			{"background", Options{Background: bg}},
			{"capscale", Options{CapScale: scale}},
		} {
			t.Run(g.Name+"/"+oc.name, func(t *testing.T) {
				opts := oc.opts
				opts.Iterations, opts.RelTol = tc.iters, 1e-9 // run the full count, past the gap stop
				want := minMLUDense(g, comms, opts)
				got := MinMLU(g, comms, opts)
				if oc.name == "alive" && want.Dropped == 0 {
					t.Fatal("the partition dropped no commodity: the case tests nothing")
				}
				if got.Dropped != want.Dropped {
					t.Fatalf("Dropped = %d, dense oracle %d", got.Dropped, want.Dropped)
				}
				if math.Float64bits(got.MLU) != math.Float64bits(want.MLU) {
					t.Fatalf("MLU = %v, dense oracle %v", got.MLU, want.MLU)
				}
				for k := range want.Flow.Frac {
					for e, w := range want.Flow.Frac[k] {
						if v := got.Flow.Frac[k][e]; math.Float64bits(v) != math.Float64bits(w) {
							t.Fatalf("Frac[%d][%d] = %v, dense oracle %v", k, e, v, w)
						}
					}
				}
			})
		}
	}
}
