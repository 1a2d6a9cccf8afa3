package protect

import (
	"math/bits"
	"math/rand"
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

	// mu guards the lazily built next-hop vectors so one scheme value can
	// serve concurrent scenario evaluations.
	mu sync.Mutex
	// next[slice][dst] is a slice's next-link vector toward dst
	// (spf.Scratch.Next) on the full topology: slices do not react to
	// failures (only splicing does), so the vectors persist across Loads
	// calls and are read-only once built.
	next [spliceSlices][][]int32
	// scratch is a free list of per-call flow rows.
	scratch freeList[spliceScratch]
}

// Name implements Scheme.
func (s *PathSplicing) Name() string { return "PathSplice" }

// init computes the perturbed per-slice weights and every slice's next-link
// vectors once.
func (s *PathSplicing) init() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.next[0] != nil {
		return
	}
	rng := rand.New(rand.NewSource(s.Seed + 1))
	degMax := float64(s.G.MaxDegree())
	w := make([]float64, s.G.NumLinks())
	var sc spf.Scratch
	for sl := range s.next {
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
		s.next[sl] = make([][]int32, s.G.NumNodes())
		for dst := range s.next[sl] {
			spf.SPFTo(s.G.CSR(), graph.NodeID(dst), w, nil, &sc)
			s.next[sl][dst] = append([]int32(nil), sc.Next...)
		}
	}
}

// spliceScratch holds one Loads call's fluid state: the flow of this hop
// and of the next, each a spliceRow over the (node, slice) states.
type spliceScratch struct{ cur, nxt spliceRow }

// spliceRow is the flow per (node, slice) state, indexed node·k + slice,
// and the set of states holding flow, one bit each. Ascending index is
// ascending (node, slice), so a walk in it visits states in a fixed order:
// loads[nh] += f sums floats, and any other order would leak into the
// result bits. A row is empty between OD pairs.
type spliceRow struct {
	flow []float64
	set  []uint64
}

// size makes room for n states.
func (r *spliceRow) size(n int) {
	if len(r.flow) < n {
		r.flow = make([]float64, n)
		r.set = make([]uint64, (n+63)/64)
	}
}

// add adds f to state i's flow.
func (r *spliceRow) add(i int, f float64) {
	r.set[i/64] |= 1 << (i % 64)
	r.flow[i] += f
}

// drain calls visit on every state holding flow, in ascending index, and
// leaves the row empty. It reports whether it visited any state.
func (r *spliceRow) drain(visit func(i int, f float64)) bool {
	visited := false
	for wi, w := range r.set {
		for ; w != 0; w &= w - 1 {
			i := wi*64 + bits.TrailingZeros64(w)
			f := r.flow[i]
			r.flow[i] = 0
			visit(i, f)
			visited = true
		}
		r.set[wi] = 0
	}
	return visited
}

// Loads implements Scheme.
func (s *PathSplicing) Loads(failed graph.LinkSet, d *traffic.Matrix) []float64 {
	s.init()
	g := s.G
	loads := make([]float64, g.NumLinks())
	alive := func(id int32) bool { return id >= 0 && !failed.Contains(graph.LinkID(id)) }
	sc := s.scratch.get()
	defer s.scratch.put(sc)
	sc.cur.size(g.NumNodes() * spliceSlices)
	sc.nxt.size(g.NumNodes() * spliceSlices)

	const eps = 1e-12
	maxHops := 3 * g.NumNodes()
	d.Pairs(func(a, b graph.NodeID, vol float64) {
		cur, nxt := &sc.cur, &sc.nxt
		cur.add(int(a)*spliceSlices, vol)
		step := func(i int, f float64) {
			if f <= eps {
				return
			}
			u, sl := i/spliceSlices, i%spliceSlices
			if nh := s.next[sl][b][u]; alive(nh) {
				loads[nh] += f
				if v := g.Link(graph.LinkID(nh)).Dst; v != b {
					nxt.add(int(v)*spliceSlices+sl, f)
				}
				return
			}
			// Splice: uniform split across slices with an alive next hop
			// at this node. Without one the flow drops.
			var targets [spliceSlices]int
			k := 0
			for t := range s.next {
				if t != sl && alive(s.next[t][b][u]) {
					targets[k] = u*spliceSlices + t
					k++
				}
			}
			for _, tg := range targets[:k] {
				nxt.add(tg, f/float64(k))
			}
		}
		for hop := 0; hop < maxHops && cur.drain(step); hop++ {
			cur, nxt = nxt, cur
		}
		// Flow still circulating after the hop budget drops (persistent
		// forwarding loops drop at TTL expiry in practice).
		cur.drain(func(int, float64) {})
	})
	return loads
}
