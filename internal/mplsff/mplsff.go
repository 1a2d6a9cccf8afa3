// Package mplsff implements the paper's MPLS-ff data plane (§4): an MPLS
// extension whose forward (FWD) instructions hold multiple next-hop label
// forwarding entries (NHLFEs) with per-next-hop splitting ratios, driven
// by a flow hash salted with a per-router private number. R3's protection
// routing p is programmed into these tables; a link failure activates
// protection by label stacking, and reconfiguration rescales the local
// splitting ratios.
package mplsff

import (
	"cmp"
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/bits"
	"slices"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/routing"
)

// Label is an MPLS label. Protection labels are allocated one per
// protected link, starting at ProtLabelBase.
type Label uint32

// ProtLabelBase is the first label used for link protection (labels below
// are reserved for other LSPs, as in common deployments).
const ProtLabelBase Label = 100

// LabelFor returns the protection label of link e.
func LabelFor(e graph.LinkID) Label { return ProtLabelBase + Label(e) }

// FlowKey identifies a flow for consistent splitting: the classic 4-tuple
// (we omit the protocol byte, as the paper's hash does).
type FlowKey struct {
	SrcIP, DstIP     uint32
	SrcPort, DstPort uint16
}

// NHLFE is one next-hop label forwarding entry: the outgoing link and
// the fraction of flows this entry should receive. The label carried is
// implicit: none on the base FIB, and the protection label unchanged
// along a detour, as in the paper's example.
type NHLFE struct {
	Out   graph.LinkID
	Ratio float64
}

// entry is how a table row stores one NHLFE: the out-link (popOut for
// the pop at a protected link's tail) and the ratio. key belongs to the
// row's router index (see layout): in a row's i-th entry, for i below the
// number of routers with entries in the row, it is where the i-th of
// those routers' entries end.
type entry struct {
	key, out int32
	ratio    float64
}

// draft is an entry being programmed, with the router it belongs to.
type draft struct {
	at, out int32
	ratio   float64
}

// popOut marks the entry that pops a protection label.
const popOut = -1

// Router is one node's identity in the data plane. Its forwarding state
// lives in the Network's rows.
type Router struct {
	Node graph.NodeID
	// salt is the 96-bit router-private number mixed into the flow hash
	// so splits at different routers are independent (§4.2).
	salt [12]byte
	// salted[x] is the hash of a flow whose FNV state after its own
	// twelve bytes has low bits x: the state's low k bits after a byte
	// depend only on its low k bits before and on the byte, and Hash
	// keeps the low HashBits bits, so the salt's twelve steps fold into
	// this table.
	salted [hashBuckets]uint8
}

// newRouter is router v with the given salt.
func newRouter(v graph.NodeID, salt [12]byte) *Router {
	r := &Router{Node: v, salt: salt}
	for x := range r.salted {
		h := fnv64a(x)
		for _, b := range salt {
			h = (h ^ fnv64a(b)) * 1099511628211
		}
		r.salted[x] = uint8(h % hashBuckets)
	}
	return r
}

// HashBits is the width of the splitting hash (the paper uses 6 bits).
const HashBits = 6

// hashBuckets is the number of hash buckets.
const hashBuckets = 1 << HashBits

// Hash maps a flow to a bucket in [0, 2^HashBits), mixing the router's
// private salt so different routers split independently: FNV-64a over the
// flow's four fields, big-endian, then the salt — 24 bytes, the flow's
// twelve fed as a word and four bytes, the salt's through salted.
func (r *Router) Hash(f FlowKey) uint32 {
	h := fnv64a(14695981039346656037)
	h.word(uint64(f.SrcIP)<<32 | uint64(f.DstIP))
	for ports, s := uint32(f.SrcPort)<<16|uint32(f.DstPort), 24; s >= 0; s -= 8 {
		h = (h ^ fnv64a(byte(ports>>s))) * 1099511628211
	}
	return uint32(r.salted[h%hashBuckets])
}

// pick selects the entry whose cumulative ratio bucket contains the
// flow's hash value. Entries with zero ratio are never selected. A lone
// positive entry needs no hash: x = (h+0.5)/64·total is below total = cum
// before rounding, so it rounds to at most cum and the entry is chosen.
func (r *Router) pick(entries []entry, f FlowKey) (entry, bool) {
	if len(entries) == 1 && entries[0].ratio > 0 {
		return entries[0], true
	}
	var total float64
	for _, e := range entries {
		total += e.ratio
	}
	if total <= 0 {
		return entry{}, false
	}
	x := (float64(r.Hash(f)) + 0.5) / hashBuckets * total
	var cum float64
	for _, e := range entries {
		cum += e.ratio
		if x <= cum && e.ratio > 0 {
			return e, true
		}
	}
	// Ratio rounding: fall back to the last positive entry.
	for i := len(entries) - 1; i >= 0; i-- {
		if entries[i].ratio > 0 {
			return entries[i], true
		}
	}
	return entry{}, false
}

// Network is the MPLS-ff control and data plane for a whole topology,
// programmed from an R3 state. Its tables are rows: one base-FIB row per
// OD pair at src·N+dst, then one ILM row per protected link at
// N² + (label − ProtLabelBase). A row holds every router's entries,
// routers ascending and each router's entries in out-link order, with
// its router index behind them; an empty row is an absent one.
// Installed rows are never written, so clones and deltas share them, and
// a change installs a new row.
type Network struct {
	G *graph.Graph
	// Routers never change after Build; clones share them.
	Routers []*Router
	rows    [][]entry

	state *core.State
	// failed is the network's own failure knowledge, updated by OnFailure
	// and by staged row deltas (ApplyDelta); forwarding and fingerprints
	// consult it rather than the bookkeeping state, so a view driven
	// purely by table-level rounds behaves identically to one driven by
	// R3's online rescaling.
	failed graph.LinkSet
	// nextRound and pending implement versioned round application: rounds
	// are 1-based and strictly ordered; out-of-order arrivals buffer in
	// pending until their predecessors apply.
	nextRound int
	pending   map[int]*Delta
	// buf, cand and prot are programming scratch, never shared with a
	// clone: a row's drafts, the row they lay out, and a protection row.
	buf  []draft
	cand []entry
	prot routing.SparseRow
}

// Build programs a network from a precomputed R3 plan: the central server
// role of §4.3 (label allocation, MPLS-ff setup, distribution of p). The
// base FIB holds each OD pair's next hops with ratios from the flow
// representation of r.
func Build(plan *core.Plan) *Network {
	g := plan.G
	nN := g.NumNodes()
	n := &Network{
		G:         g,
		Routers:   make([]*Router, nN),
		rows:      make([][]entry, nN*nN+g.NumLinks()),
		state:     core.NewState(plan),
		nextRound: 1,
	}
	for v := range n.Routers {
		// Router-private 96-bit salt derived from the node ID; any
		// unpredictable per-router value works.
		h := fnv.New128a()
		var b [4]byte
		binary.BigEndian.PutUint32(b[:], uint32(v)^0x5bd1e995)
		h.Write(b[:])
		var salt [12]byte
		copy(salt[:], h.Sum(nil))
		n.Routers[v] = newRouter(graph.NodeID(v), salt)
	}
	for k, c := range plan.Comms {
		i := n.fib(c.Src, c.Dst)
		// A repeated OD pair extends its row, each router's entries in
		// commodity order.
		n.buf = n.buf[:0]
		parts(n.rows[i], func(u graph.NodeID, part []entry) {
			for _, e := range part {
				n.buf = append(n.buf, draft{at: int32(u), out: e.out, ratio: e.ratio})
			}
		})
		row := &plan.Base[k]
		for j, l := range row.Idx {
			if v := row.Val[j]; v > 1e-12 {
				n.buf = append(n.buf, draft{at: int32(g.Link(graph.LinkID(l)).Src), out: l, ratio: v})
			}
		}
		n.install(i)
	}
	n.programILM()
	return n
}

// fib is the row index of OD pair (src, dst).
func (n *Network) fib(src, dst graph.NodeID) int { return int(src)*len(n.Routers) + int(dst) }

// ilm is the row index of link e's protection label.
func (n *Network) ilm(e graph.LinkID) int { return len(n.Routers)*len(n.Routers) + int(e) }

// install makes n.buf row i, its drafts stably sorted by router, so each
// router's entries keep the order they were written in. A row with the
// same entries stays installed; otherwise a new row replaces it, because
// the installed one may be shared.
func (n *Network) install(i int) {
	slices.SortStableFunc(n.buf, func(a, b draft) int { return cmp.Compare(a.at, b.at) })
	cand := layout(&n.cand, n.buf)
	switch {
	case len(cand) == 0:
		n.rows[i] = nil
	case slices.Equal(full(n.rows[i]), full(cand)):
	default:
		row := make([]entry, len(cand), cap(cand))
		copy(full(row), full(cand))
		n.rows[i] = row
	}
}

// A row's router index lives in the row's own allocation. The i-th
// entry's key holds where the entries of the row's i-th router end, and
// behind the entries, past the row's length, come its blocks: one for
// each block of 64 router IDs the row has entries in, in block order. A
// block is an entry whose key is the block (router>>6), whose out counts
// the row's routers in earlier blocks, and whose ratio holds the bits of
// the block's router mask (bit router&63 set for each router with
// entries). A router's rank among the row's routers is its block's count
// plus the mask bits below it, and its entries run from the previous
// rank's end to its own. The index adds one entry per block to a row,
// and the keys it uses are the entries' own, so rows stay O(entries).

// layout writes the row of sorted drafts ds, with its index, into the
// storage of *scratch and returns it: length len(ds), capacity len(ds)
// plus blocks.
func layout(scratch *[]entry, ds []draft) []entry {
	blocks := 0
	for j, d := range ds {
		if j == 0 || d.at>>6 != ds[j-1].at>>6 {
			blocks++
		}
	}
	nd := len(ds)
	*scratch = slices.Grow((*scratch)[:0], nd+blocks)
	dst := (*scratch)[:nd+blocks]
	for j, d := range ds {
		dst[j] = entry{out: d.out, ratio: d.ratio}
	}
	idx := dst[nd:]
	rank, b, mask := 0, -1, uint64(0)
	for j, d := range ds {
		if j+1 < nd && ds[j+1].at == d.at {
			continue
		}
		// d is router d.at's last entry.
		dst[rank].key = int32(j + 1)
		if b < 0 || d.at>>6 != idx[b].key {
			if b >= 0 {
				idx[b].ratio = math.Float64frombits(mask)
			}
			b, mask = b+1, 0
			idx[b] = entry{key: d.at >> 6, out: int32(rank)}
		}
		mask |= 1 << (d.at & 63)
		rank++
	}
	if b >= 0 {
		idx[b].ratio = math.Float64frombits(mask)
	}
	return dst[: nd : nd+blocks]
}

// full is the whole of a row's allocation: its entries and its index.
func full(row []entry) []entry { return row[:cap(row)] }

// blocks is a row's index blocks.
func blocks(row []entry) []entry { return row[len(row):cap(row)] }

// routerMask is the router mask of block x.
func routerMask(x entry) uint64 { return math.Float64bits(x.ratio) }

// seg returns router u's entries in a row.
func seg(row []entry, u graph.NodeID) []entry {
	blk, bit := int32(u)>>6, uint(u)&63
	for _, x := range blocks(row) {
		if x.key < blk {
			continue
		}
		mask := routerMask(x)
		if x.key > blk || mask>>bit&1 == 0 {
			return nil
		}
		r := int(x.out) + bits.OnesCount64(mask&(1<<bit-1))
		lo := 0
		if r > 0 {
			lo = int(row[r-1].key)
		}
		return row[lo:row[r].key]
	}
	return nil
}

// parts calls fn with each router that has entries in a row, ascending,
// and its entries.
func parts(row []entry, fn func(u graph.NodeID, part []entry)) {
	r, lo := 0, 0
	for _, x := range blocks(row) {
		for mask := routerMask(x); mask != 0; mask &= mask - 1 {
			hi := int(row[r].key)
			fn(graph.NodeID(x.key<<6|int32(bits.TrailingZeros64(mask))), row[lo:hi])
			r, lo = r+1, hi
		}
	}
}

// NextBase returns router u's base-routing next hop for a flow of OD pair
// (src, dst).
func (n *Network) NextBase(u, src, dst graph.NodeID, f FlowKey) (NHLFE, bool) {
	e, ok := n.Routers[u].pick(seg(n.rows[n.fib(src, dst)], u), f)
	return NHLFE{Out: graph.LinkID(e.out), Ratio: e.ratio}, ok
}

// NextProtected returns router u's forwarding decision for a packet whose
// top label is lbl: either an NHLFE to follow, or pop=true at the tail.
func (n *Network) NextProtected(u graph.NodeID, lbl Label, f FlowKey) (nh NHLFE, pop, ok bool) {
	if lbl < ProtLabelBase || int(lbl-ProtLabelBase) >= n.G.NumLinks() {
		return NHLFE{}, false, false
	}
	s := seg(n.rows[n.ilm(graph.LinkID(lbl-ProtLabelBase))], u)
	if len(s) > 0 && s[0].out == popOut {
		return NHLFE{}, true, true
	}
	e, ok := n.Routers[u].pick(s, f)
	return NHLFE{Out: graph.LinkID(e.out), Ratio: e.ratio}, false, ok
}

// Clone copies the network's row headers, failure knowledge, bookkeeping
// state and round version; the rows themselves are shared. Buffered
// out-of-order rounds are not carried over.
func (n *Network) Clone() *Network {
	return n.cloneWith(n.state.Clone(), n.failed.Clone())
}

// Reprogrammed returns a clone of n that keeps st as its bookkeeping state
// and programs its ILM from it; n's own state is not cloned. The base FIB
// stays n's (it deliberately keeps the pre-failure routing, exactly as
// OnFailure does). The transition scheduler uses this to materialize each
// staged intermediate state on the previous round's network before
// diffing the two.
func (n *Network) Reprogrammed(st *core.State) *Network {
	c := n.cloneWith(st, st.Failed())
	c.programILM()
	return c
}

// cloneWith is Clone with the given state and failure knowledge.
func (n *Network) cloneWith(st *core.State, failed graph.LinkSet) *Network {
	return &Network{
		G:         n.G,
		Routers:   n.Routers,
		rows:      slices.Clone(n.rows),
		state:     st,
		failed:    failed,
		nextRound: n.nextRound,
	}
}

// SetFIBRow replaces the base-FIB row of one OD pair. Each entry belongs
// to its out-link's head router, and entries come in ascending link
// order, as a plan's rows do; no entries deletes the row. The transition
// scheduler uses this to materialize mixed old/new intermediate
// configurations one commodity at a time.
func (n *Network) SetFIBRow(od [2]graph.NodeID, entries []NHLFE) {
	n.buf = n.buf[:0]
	for _, e := range entries {
		n.buf = append(n.buf, draft{at: int32(n.G.Link(e.Out).Src), out: int32(e.Out), ratio: e.Ratio})
	}
	n.install(n.fib(od[0], od[1]))
}

// CopyFIBRow gives n the base-FIB row src holds for one OD pair.
func (n *Network) CopyFIBRow(src *Network, od [2]graph.NodeID) {
	i := n.fib(od[0], od[1])
	n.rows[i] = src.rows[i]
}

// OnFailure applies a link failure: R3 online reconfiguration rescales p,
// and every router reprograms its protection splitting ratios (§4.3
// protection routing update). The base FIB deliberately keeps the
// pre-failure routing r — as in the paper's prototype, traffic that would
// cross a failed link is carried around it by label stacking, which is
// load-equivalent to the updated r' of equation (9). Idempotent per link.
func (n *Network) OnFailure(e graph.LinkID) error {
	if n.failed.Contains(e) {
		return nil
	}
	if err := n.state.Fail(e); err != nil {
		return err
	}
	n.failed.Add(e)
	n.programILM()
	return nil
}

// programILM brings every ILM row in line with the state. Link l's label
// pops at l's tail; every other router on its detour forwards with the
// label kept, on its out-links' positive fractions of p'_l, or of the
// detour ξ_l frozen when l failed. p_l(l) only matters before l fails, so
// l itself carries no entry. Rows whose entries did not change stay
// installed.
func (n *Network) programILM() {
	g := n.G
	for l := range g.NumLinks() {
		lid := graph.LinkID(l)
		tail := g.Link(lid).Dst
		n.buf = append(n.buf[:0], draft{at: int32(tail), out: popOut})
		hop := func(id graph.LinkID, v float64) {
			if src := g.Link(id).Src; id != lid && src != tail && v > 1e-12 {
				n.buf = append(n.buf, draft{at: int32(src), out: int32(id), ratio: v})
			}
		}
		if xi := n.state.Detour(lid); xi != nil {
			for id, v := range xi {
				hop(graph.LinkID(id), v)
			}
		} else {
			n.prot = n.state.ProtRow(lid, n.prot)
			for j, id := range n.prot.Idx {
				hop(graph.LinkID(id), n.prot.Val[j])
			}
		}
		n.install(n.ilm(lid))
	}
}
