package spf

import "repro/internal/graph"

// DynTree is a dynamic reverse shortest-path tree: after a batch of link
// cost changes it repairs only the affected cone of the previous tree
// (Ramalingam–Reps style) instead of re-running Dijkstra from scratch.
//
// Bit-identity: the repaired Dist is the same unique fixpoint the flat
// kernel computes — invalidated nodes are re-derived from boundary offers
// that use the identical cost[e] + dist[head] float64 add, and the
// relaxation loop runs to quiescence — and Next is re-derived by the same
// canonicalNextInto rule: per affected node on plateau-free trees, and by
// the full global pass whenever plateaus exist (their multi-pass
// resolution is a whole-graph computation). A DynTree is
// therefore interchangeable with SPFTo call-for-call without changing a
// single output bit; dynamic_test.go enforces this over random
// perturbation sequences.
//
// DynTrees do not support down-sets (the planner's gradient trees never
// fail links; costs just move). A DynTree must not be shared between
// concurrent calls.
type DynTree struct {
	c     *graph.CSR
	dst   graph.NodeID
	delta bool // delta-stepping full rebuilds

	cost []float64
	sc   Scratch
	dsc  DeltaScratch
	init bool

	// Repair scratch. mark is a generation-stamped visited set shared by
	// the invalidation BFS and the affected-node dedupe (their lifetimes
	// do not overlap); gen advances per use.
	mark  []int32
	markT []int32 // touched-in-relaxation stamp (overlaps mark's lifetime)
	gen   int32
	genT  int32
	inc   []int32   // links whose cost increased, this batch
	dec   []int32   // links whose cost decreased, this batch
	desc  []int32   // invalidated cone (tree descendants of increase roots)
	oldD  []float64 // pre-repair distances of desc, index-aligned
	chg   []int32   // non-desc nodes improved by the relaxation loop
	aff   []int32   // nodes whose next link must be re-derived
}

// UpdateKind reports how DynTree.Update absorbed a batch of cost changes.
type UpdateKind int

const (
	// UpdateNone: no cost actually changed; the tree is untouched.
	UpdateNone UpdateKind = iota
	// UpdateRepaired: the affected cone was repaired incrementally.
	UpdateRepaired
	// UpdateRebuilt: the batch crossed a cutover (dirty-link fraction,
	// invalidated-cone size) or the tree was fresh; built flat.
	UpdateRebuilt
)

// Reset binds the tree to a topology and destination, dropping any
// previous state. deltaKernel selects delta-stepping full rebuilds.
func (t *DynTree) Reset(c *graph.CSR, dst graph.NodeID, deltaKernel bool) {
	t.c, t.dst, t.delta = c, dst, deltaKernel
	t.init = false
	if cap(t.cost) < c.NumLinks() {
		t.cost = make([]float64, c.NumLinks())
		t.mark = make([]int32, c.N)
		t.markT = make([]int32, c.N)
	}
	t.cost = t.cost[:c.NumLinks()]
}

// Ready reports whether the tree has been built at least once.
func (t *DynTree) Ready() bool { return t.init }

// Next returns the tree's canonical next vector (valid after Full/Update).
func (t *DynTree) Next() []int32 { return t.sc.Next }

// Full copies the cost row and builds the tree from scratch.
func (t *DynTree) Full(cost []float64) {
	copy(t.cost, cost)
	t.rebuild()
}

func (t *DynTree) rebuild() {
	if t.delta {
		SPFToDelta(t.c, t.dst, t.cost, nil, &t.sc, &t.dsc)
	} else {
		SPFTo(t.c, t.dst, t.cost, nil, &t.sc)
	}
	t.init = true
}

// Update applies a batch of cost changes — vals[j] is the new cost of link
// ids[j]; entries equal to the current cost are ignored — and repairs the
// tree. cutover is the dirty-link fraction above which repair is skipped
// in favor of a flat rebuild (the cone-size cutover |D| > N/2 always
// applies). Returns how the batch was absorbed and the dirty fraction.
// ids/vals are read-only and may be shared across trees.
func (t *DynTree) Update(ids []int32, vals []float64, cutover float64) (UpdateKind, float64) {
	inc, dec := t.inc[:0], t.dec[:0]
	for j, id := range ids {
		if vals[j] > t.cost[id] {
			inc = append(inc, id)
		} else if vals[j] < t.cost[id] {
			dec = append(dec, id)
		}
	}
	t.inc, t.dec = inc, dec
	dirty := len(inc) + len(dec)
	if dirty == 0 && t.init {
		return UpdateNone, 0
	}
	for j, id := range ids {
		t.cost[id] = vals[j]
	}
	frac := float64(dirty) / float64(len(t.cost))
	if !t.init || frac > cutover {
		t.rebuild()
		return UpdateRebuilt, frac
	}
	if !t.repair() {
		t.rebuild()
		return UpdateRebuilt, frac
	}
	return UpdateRepaired, frac
}

// repair runs the incremental update: invalidate the tree descendants of
// every increase root, re-seed them from boundary offers, relax to
// quiescence, then re-derive canonical next links for every node whose
// distance or candidate set could have changed. Returns false to request
// a flat rebuild when the invalidated cone crosses the size cutover.
func (t *DynTree) repair() bool {
	c, cost := t.c, t.cost
	dist, next := t.sc.Dist, t.sc.Next

	// Invalidated cone: descendants (in the current tree) of sources of
	// increased tree links. Increased non-tree links cannot raise any
	// distance — some other tight link still provides the old minimum.
	t.gen++
	gen := t.gen
	desc, oldD := t.desc[:0], t.oldD[:0]
	for _, id := range t.inc {
		u := c.Src[id]
		if next[u] == id && t.mark[u] != gen {
			t.mark[u] = gen
			desc = append(desc, u)
			oldD = append(oldD, dist[u])
		}
	}
	for k := 0; k < len(desc); k++ {
		v := desc[k]
		for a, b := c.InHead[v], c.InHead[v+1]; a < b; a++ {
			f := c.InLinks[a]
			w := c.Src[f]
			if next[w] == f && t.mark[w] != gen {
				t.mark[w] = gen
				desc = append(desc, w)
				oldD = append(oldD, dist[w])
			}
		}
	}
	t.desc, t.oldD = desc, oldD
	if len(desc) > c.N/2 {
		return false
	}

	for _, u := range desc {
		dist[u] = Infinity
	}
	// Boundary offers: each invalidated node's best label through the
	// surviving frontier (invalidated heads are +Inf and drop out).
	h := t.sc.heap[:0]
	for _, u := range desc {
		best := Infinity
		for a, b := c.OutHead[u], c.OutHead[u+1]; a < b; a++ {
			id := c.OutLinks[a]
			if nd := cost[id] + dist[c.Dst[id]]; nd < best {
				best = nd
			}
		}
		if best < Infinity {
			dist[u] = best
			h = append(h, kItem{best, u})
			siftUp(h, len(h)-1)
		}
	}
	// Improvement offers from decreased links outside the cone. A node
	// improved here has changed distance even if the relaxation loop never
	// touches it again, so it must enter chg now: its in-neighbors can
	// gain a new exact tie (and thus a new canonical next) without their
	// own distance moving.
	t.genT++
	genT := t.genT
	chg := t.chg[:0]
	for _, id := range t.dec {
		u := c.Src[id]
		if nd := cost[id] + dist[c.Dst[id]]; nd < dist[u] {
			dist[u] = nd
			if t.mark[u] != gen && t.markT[u] != genT {
				t.markT[u] = genT
				chg = append(chg, u)
			}
			h = append(h, kItem{nd, u})
			siftUp(h, len(h)-1)
		}
	}
	// Relax to quiescence. Seeds may carry stale-high labels (a boundary
	// node can improve later), so this is label-correcting: any
	// improvement re-enters the queue, and the loop ends at the same
	// unique fixpoint the flat kernel computes.
	for len(h) > 0 {
		last := len(h) - 1
		h[0], h[last] = h[last], h[0]
		siftDown(h[:last], 0)
		it := h[last]
		h = h[:last]
		if it.dist > dist[it.node] {
			continue
		}
		for a, b := c.InHead[it.node], c.InHead[it.node+1]; a < b; a++ {
			id := c.InLinks[a]
			u := c.Src[id]
			nd := it.dist + cost[id]
			if nd < dist[u] {
				dist[u] = nd
				if t.mark[u] != gen && t.markT[u] != genT {
					t.markT[u] = genT
					chg = append(chg, u)
				}
				h = append(h, kItem{nd, u})
				siftUp(h, len(h)-1)
			}
		}
	}
	t.sc.heap = h[:0]
	t.chg = chg

	// Next is a pure function of (cost, dist): re-derive it wherever a
	// distance or an incident candidate changed. mark is reused with a
	// fresh generation as the dedupe stamp.
	t.gen++
	genA := t.gen
	aff := t.aff[:0]
	addAff := func(u int32) {
		if t.mark[u] != genA {
			t.mark[u] = genA
			aff = append(aff, u)
		}
	}
	changed := func(v int32) {
		addAff(v)
		for a, b := c.InHead[v], c.InHead[v+1]; a < b; a++ {
			addAff(c.Src[c.InLinks[a]])
		}
	}
	for k, u := range desc {
		if dist[u] != oldD[k] {
			changed(u)
		}
	}
	for _, u := range chg {
		changed(u)
	}
	for _, id := range t.inc {
		addAff(c.Src[id])
	}
	for _, id := range t.dec {
		addAff(c.Src[id])
	}
	t.aff = aff
	// Plateau resolution is a global multi-pass computation: when an
	// affected node's plateau status changes, the resolution pass
	// structure of plateau nodes far outside aff changes with it. The
	// per-node rule is therefore sound only when the tree had no plateaus
	// at the last full derivation AND none appear among the affected
	// nodes; otherwise re-derive globally — still a pure function of the
	// repaired dist, so still bitwise equal to the flat kernel.
	if t.sc.Plateaus {
		t.sc.Plateaus = canonicalNextInto(c, t.dst, cost, nil, dist, next)
		return true
	}
	for _, u := range aff {
		if u == int32(t.dst) || dist[u] == Infinity {
			next[u] = -1
			continue
		}
		id, plateau := canonicalLinkAt(c, u, cost, nil, dist)
		if plateau {
			t.sc.Plateaus = canonicalNextInto(c, t.dst, cost, nil, dist, next)
			return true
		}
		next[u] = id
	}
	return true
}
