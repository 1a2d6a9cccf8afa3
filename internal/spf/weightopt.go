package spf

import (
	"math/rand"
	"sort"

	"repro/internal/graph"
	"repro/internal/routing"
)

// OptimizeOptions controls the local-search IGP weight optimizer.
type OptimizeOptions struct {
	// Rounds is the number of local-search rounds (default 60).
	Rounds int
	// Seed drives tie-breaking perturbations.
	Seed int64
}

const (
	// weightCandidates is how many of the most-utilized links the
	// optimizer considers for a weight change each round.
	weightCandidates = 5
	// maxWeight caps weights.
	maxWeight = 20
)

func (o *OptimizeOptions) defaults() {
	if o.Rounds == 0 {
		o.Rounds = 60
	}
}

// OptimizeWeights runs a Fortz–Thorup-style local search that sets integer
// IGP weights on g to minimize the worst maximum-link-utilization across
// the given demand sets. Each demand set is a function d(a,b); the
// optimizer evaluates OSPF ECMP routing of all sets and minimizes the max
// MLU. It mutates g's weights and returns the achieved worst-case MLU.
func OptimizeWeights(g *graph.Graph, demands []func(a, b graph.NodeID) float64, opts OptimizeOptions) float64 {
	opts.defaults()
	rng := rand.New(rand.NewSource(opts.Seed))

	// Start from unit weights (hop count), a decent seed for meshes.
	UnitWeights(g)

	commsPer := make([][]routing.Commodity, len(demands))
	for i, d := range demands {
		commsPer[i] = routing.ODCommodities(g.NumNodes(), d)
	}

	// One scratch across every candidate evaluation: the local search
	// probes hundreds of weight settings, and each probe reuses the same
	// per-destination distance table instead of growing a fresh cache.
	// Each demand set gets a loads row of its own, since the worst one is
	// kept.
	var sc ECMPScratch
	evaluate := func() (float64, []float64) {
		worst := 0.0
		var worstLoads []float64
		for i := range demands {
			loads := make([]float64, g.NumLinks())
			ECMPLoads(g, commsPer[i], nil, WeightCost(g), &sc, loads)
			if u := routing.MLU(g, loads); u > worst {
				worst = u
				worstLoads = loads
			}
		}
		return worst, worstLoads
	}

	best, loads := evaluate()
	for round := 0; round < opts.Rounds; round++ {
		// Rank links by utilization under the worst demand set.
		type lu struct {
			id graph.LinkID
			u  float64
		}
		ranked := make([]lu, g.NumLinks())
		for e := range ranked {
			id := graph.LinkID(e)
			ranked[e] = lu{id, loads[e] / g.Link(id).Capacity}
		}
		sort.Slice(ranked, func(i, j int) bool { return ranked[i].u > ranked[j].u })

		improved := false
		for c := 0; c < weightCandidates && c < len(ranked); c++ {
			id := ranked[c].id
			old := g.Link(id).Weight
			// Try pushing traffic off the hot link by raising its weight.
			delta := 1 + float64(rng.Intn(3))
			nw := old + delta
			if nw > maxWeight {
				continue
			}
			g.SetWeight(id, nw)
			if u, l := evaluate(); u < best-1e-9 {
				best, loads = u, l
				improved = true
				break
			}
			g.SetWeight(id, old)
		}
		if !improved {
			// Perturb a random link to escape plateaus; keep only if not
			// worse.
			id := graph.LinkID(rng.Intn(g.NumLinks()))
			old := g.Link(id).Weight
			nw := old + float64(1+rng.Intn(2))
			if nw <= maxWeight {
				g.SetWeight(id, nw)
				if u, l := evaluate(); u <= best+1e-9 {
					best, loads = u, l
				} else {
					g.SetWeight(id, old)
				}
			}
		}
	}
	return best
}
