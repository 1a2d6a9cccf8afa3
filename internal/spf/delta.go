package spf

import "repro/internal/graph"

// Delta-stepping bucket kernel. On 1000-node-class generated topologies
// the binary heap's pop cost dominates SPF; a monotone bucket queue with
// width Δ trades the log factor for O(1) pushes and sequential bucket
// scans. The kernel is label-correcting rather than settle-once — a node
// may be relaxed at a stale label and corrected later — but the final
// distance vector is the same unique fixpoint the heap kernel computes
// (each label is one float64 add anchored at dst, improvements are strict,
// and relaxation runs until no label improves), and Next is derived by the
// canonicalNextInto post-pass, which applies SPFTo's rule to the settled
// distances. (Dist, Next) is therefore bitwise
// identical to SPFTo for every input, regardless of Δ or pop order; the
// differential tests in dynamic_test.go pin that.

// DeltaCutoverNodes is the topology size from which the planner's DynTrees
// rebuild with delta-stepping instead of the binary heap.
const DeltaCutoverNodes = 768

// DeltaScratch holds the bucket queue between calls so a warm scratch
// allocates nothing. It must not be shared between concurrent calls.
type DeltaScratch struct {
	buckets [][]int32
}

// SPFToDelta computes the same (Dist, Next) as SPFTo — bit for bit — using
// a delta-stepping bucket queue instead of a binary heap. Δ is chosen from
// the cost distribution (mean positive cost, floored so the bucket index
// range stays O(N)); the choice affects only wall-clock, never the result.
func SPFToDelta(c *graph.CSR, dst graph.NodeID, cost []float64, down *graph.LinkSet, s *Scratch, ds *DeltaScratch) {
	s.reset(c.N)
	dist := s.Dist
	dist[dst] = 0

	var sum, maxC float64
	for _, cv := range cost {
		sum += cv
		if cv > maxC {
			maxC = cv
		}
	}
	delta := sum / float64(len(cost))
	// dist ≤ (N-1)·maxC, so flooring Δ at maxC/4 bounds the bucket index
	// by ~4N even when one huge cost dwarfs the mean.
	if f := maxC / 4; delta < f {
		delta = f
	}
	if !(delta > 0) { // zero costs or an empty link set (NaN guard)
		delta = 1
	}

	for i := range ds.buckets {
		ds.buckets[i] = ds.buckets[i][:0]
	}
	cur := 0
	push := func(d float64, u int32) {
		bi := int(d / delta)
		if bi < cur {
			// A fresh label always lands at or past the bucket being
			// drained; clamp against float rounding at the boundary.
			bi = cur
		}
		for bi >= len(ds.buckets) {
			ds.buckets = append(ds.buckets, nil)
		}
		ds.buckets[bi] = append(ds.buckets[bi], u)
	}
	push(0, int32(dst))
	for cur = 0; cur < len(ds.buckets); cur++ {
		// Re-read each iteration: a light-edge relaxation can append to
		// the bucket currently being drained.
		for len(ds.buckets[cur]) > 0 {
			b := ds.buckets[cur]
			u := b[len(b)-1]
			ds.buckets[cur] = b[:len(b)-1]
			du := dist[u]
			for a, bb := c.InHead[u], c.InHead[u+1]; a < bb; a++ {
				id := c.InLinks[a]
				if down != nil && down.Contains(graph.LinkID(id)) {
					continue
				}
				w := c.Src[id]
				nd := du + cost[id]
				if nd < dist[w] {
					dist[w] = nd
					push(nd, w)
				}
			}
		}
	}
	canonicalNextInto(c, dst, cost, down, s)
}
