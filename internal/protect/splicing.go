package protect

import (
	"math/rand"
	"sort"
	"sync"

	"repro/internal/graph"
	"repro/internal/spf"
	"repro/internal/traffic"
)

// spliceSlices is PathSplicing's number of routing slices, the paper's k.
const spliceSlices = 10

// PathSplicing models Path Splicing (Motiwala et al., SIGCOMM 2008) as
// configured in the paper's evaluation: k = 10 slices whose link weights
// are the base weights perturbed by a degree-dependent random factor with
// a = 0, b = 3 and Weight(i,j) = (degree(i)+degree(j))/degree_max. Each
// slice forwards on its own shortest-path tree; when a slice's next hop
// is failed, traffic is spliced uniformly across the other slices whose
// next hop at that node is alive.
type PathSplicing struct {
	G *graph.Graph
	// Seed drives the deterministic weight perturbations.
	Seed int64

	// mu guards the lazily built slice weights and next-hop caches so one
	// scheme value can serve concurrent scenario evaluations.
	mu           sync.Mutex
	sliceWeights [][]float64
	// nextCache[slice][dst] is the static next-link vector of a slice
	// (spf.Scratch.Next); slices do not react to failures (only splicing
	// does), so the cache persists across Loads calls.
	nextCache map[int]map[graph.NodeID][]int32
}

// Name implements Scheme.
func (s *PathSplicing) Name() string { return "PathSplice" }

// init computes the perturbed per-slice weights once.
func (s *PathSplicing) init() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sliceWeights != nil {
		return
	}
	rng := rand.New(rand.NewSource(s.Seed + 1))
	degMax := float64(s.G.MaxDegree())
	s.sliceWeights = make([][]float64, spliceSlices)
	for sl := 0; sl < spliceSlices; sl++ {
		w := make([]float64, s.G.NumLinks())
		for _, l := range s.G.Links() {
			base := l.Weight
			if sl == 0 {
				// Slice 0 is the unperturbed base routing.
				w[l.ID] = base
				continue
			}
			f := (float64(s.G.Degree(l.Src)) + float64(s.G.Degree(l.Dst))) / degMax
			// a=0, b=3: multiplier uniform in [0, 3*f].
			w[l.ID] = base * (1 + 3*f*rng.Float64())
		}
		s.sliceWeights[sl] = w
	}
}

// spliceState is a fluid aggregate: flow at a node currently forwarded in
// a slice.
type spliceState struct {
	node  graph.NodeID
	slice int
}

// Loads implements Scheme.
func (s *PathSplicing) Loads(failed graph.LinkSet, d *traffic.Matrix) ([]float64, float64) {
	s.init()
	g := s.G
	loads := make([]float64, g.NumLinks())
	var lost float64
	alive := func(id int32) bool { return id >= 0 && !failed.Contains(graph.LinkID(id)) }

	// Next-hop link per (slice, dst, node): first link on the slice's
	// shortest path (computed on the full topology — slices are static;
	// only splicing reacts to failures).
	var sc spf.Scratch
	nextFor := func(sl int, dst graph.NodeID) []int32 {
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.nextCache == nil {
			s.nextCache = make(map[int]map[graph.NodeID][]int32)
		}
		m := s.nextCache[sl]
		if m == nil {
			m = make(map[graph.NodeID][]int32)
			s.nextCache[sl] = m
		}
		if v, ok := m[dst]; ok {
			return v
		}
		spf.SPFTo(g.CSR(), dst, s.sliceWeights[sl], nil, &sc)
		next := append([]int32(nil), sc.Next...)
		m[dst] = next
		return next
	}

	const eps = 1e-12
	maxHops := 3 * g.NumNodes()
	d.Pairs(func(a, b graph.NodeID, vol float64) {
		flow := map[spliceState]float64{{a, 0}: vol}
		for hop := 0; hop < maxHops && len(flow) > 0; hop++ {
			next := make(map[spliceState]float64, len(flow))
			// Visit states in a fixed order: loads[nh] += f sums floats,
			// so map iteration order would leak into the result bits.
			states := make([]spliceState, 0, len(flow))
			for st := range flow {
				states = append(states, st)
			}
			sort.Slice(states, func(i, j int) bool {
				if states[i].node != states[j].node {
					return states[i].node < states[j].node
				}
				return states[i].slice < states[j].slice
			})
			for _, st := range states {
				f := flow[st]
				if f <= eps {
					continue
				}
				nh := nextFor(st.slice, b)[st.node]
				if alive(nh) {
					v := g.Link(graph.LinkID(nh)).Dst
					loads[nh] += f
					if v != b {
						next[spliceState{v, st.slice}] += f
					}
					continue
				}
				// Splice: uniform split across slices with an alive next
				// hop at this node.
				var targets []spliceState
				for sl := 0; sl < spliceSlices; sl++ {
					if sl == st.slice {
						continue
					}
					if alive(nextFor(sl, b)[st.node]) {
						targets = append(targets, spliceState{st.node, sl})
					}
				}
				if len(targets) == 0 {
					lost += f
					continue
				}
				share := f / float64(len(targets))
				for _, tg := range targets {
					next[tg] += share
				}
			}
			flow = next
		}
		// Flow still circulating after the hop budget is counted as lost
		// (persistent forwarding loops drop at TTL expiry in practice).
		// Sorted for the same bit-reproducibility reason as above.
		rest := make([]spliceState, 0, len(flow))
		for st := range flow {
			rest = append(rest, st)
		}
		sort.Slice(rest, func(i, j int) bool {
			if rest[i].node != rest[j].node {
				return rest[i].node < rest[j].node
			}
			return rest[i].slice < rest[j].slice
		})
		for _, st := range rest {
			if f := flow[st]; f > eps {
				lost += f
			}
		}
	})
	return loads, lost
}
