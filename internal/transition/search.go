package transition

// search decides the round decomposition and hands each round's group
// indices to apply, in order. Small instances get the exact minimal-k
// search over the subset lattice; larger ones, and instances with no
// fully feasible ordering, go to the model's greedy, which calls apply
// itself (and repairs what does not fit with LP interim steps).
// envelope(full, 0) is the end state's MLU: no feasible path can end
// above tolerance, so the lattice is not walked then.
func search(n, maxExact int, envelope func(cum, add uint64) float64, apply func(idx []int), greedy func()) {
	if n <= maxExact && envelope(uint64(1)<<n-1, 0) <= feasTol {
		if masks := minKPath(n, envelope); masks != nil {
			for _, m := range masks {
				var idx []int
				for i := 0; i < n; i++ {
					if m&(1<<i) != 0 {
						idx = append(idx, i)
					}
				}
				apply(idx)
			}
			return
		}
	}
	greedy()
}

// minKPath is a BFS over the subset lattice of n groups from ∅ to the
// full set, where an edge S → S∪A (one round applying batch A) exists
// when envelope(S, A) ≤ feasTol — the transient bound for asynchronous
// application of the batch on top of the already-applied set. Batches
// are tried largest-first, so the minimal-k solution prefers few big
// rounds. Returns nil when no fully feasible path exists. The envelope
// is the model's: intermediate-subset MLUs for failure activation, mixed
// old/new commodity loads for plan swaps.
func minKPath(n int, envelope func(cum, add uint64) float64) []uint64 {
	const inf = int(1) << 30
	full := uint64(1)<<n - 1
	dist := make([]int, full+1)
	prev := make([]uint64, full+1)
	for i := range dist {
		dist[i] = inf
	}
	dist[0] = 0
	queue := []uint64{0}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		if s == full {
			break
		}
		rem := full &^ s
		for add := rem; add > 0; add = (add - 1) & rem {
			t := s | add
			if dist[t] != inf {
				continue
			}
			if envelope(s, add) > feasTol {
				continue
			}
			dist[t] = dist[s] + 1
			prev[t] = add
			queue = append(queue, t)
		}
	}
	if dist[full] == inf {
		return nil
	}
	batches := make([]uint64, dist[full])
	for s, i := full, dist[full]-1; s != 0; i-- {
		batches[i] = prev[s]
		s &^= prev[s]
	}
	return batches
}
