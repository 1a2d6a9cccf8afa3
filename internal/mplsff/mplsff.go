// Package mplsff implements the paper's MPLS-ff data plane (§4): an MPLS
// extension whose forward (FWD) instructions hold multiple next-hop label
// forwarding entries (NHLFEs) with per-next-hop splitting ratios, driven
// by a flow hash salted with a per-router private number. R3's protection
// routing p is programmed into these tables; a link failure activates
// protection by label stacking, and reconfiguration rescales the local
// splitting ratios.
package mplsff

import (
	"encoding/binary"
	"hash/fnv"

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

// FlowKey identifies a flow for consistent splitting: the classic 4-tuple
// (we omit the protocol byte, as the paper's hash does).
type FlowKey struct {
	SrcIP, DstIP     uint32
	SrcPort, DstPort uint16
}

// NHLFE is one next-hop label forwarding entry: the outgoing link, the
// label to carry (our implementation keeps the protection label
// unchanged along the detour, as in the paper's example), and the
// fraction of flows this entry should receive.
type NHLFE struct {
	Out      graph.LinkID
	OutLabel Label
	Ratio    float64
}

// FWD is a forward instruction: a set of NHLFEs with splitting ratios,
// or a pop at the protected link's tail.
type FWD struct {
	Entries []NHLFE
	// Pop indicates the protection label is popped here (tail of the
	// protected link) and forwarding continues on the base routing.
	Pop bool
}

// Router is one node's MPLS-ff forwarding state.
type Router struct {
	Node graph.NodeID
	// salt is the 96-bit router-private number mixed into the flow hash
	// so splits at different routers are independent (§4.2).
	salt [12]byte
	// ILM is the incoming label map: protection label → FWD.
	ILM map[Label]*FWD
	// FIB holds base-routing next hops per OD pair, with ratios from the
	// flow representation of r normalized at this node.
	FIB map[[2]graph.NodeID][]NHLFE
}

// HashBits is the width of the splitting hash (the paper uses 6 bits).
const HashBits = 6

// hashBuckets is the number of hash buckets.
const hashBuckets = 1 << HashBits

// Hash maps a flow to a bucket in [0, 2^HashBits), mixing the router's
// private salt so different routers split independently.
func (r *Router) Hash(f FlowKey) uint32 {
	h := fnv.New64a()
	var buf [12]byte
	binary.BigEndian.PutUint32(buf[0:], f.SrcIP)
	binary.BigEndian.PutUint32(buf[4:], f.DstIP)
	binary.BigEndian.PutUint16(buf[8:], f.SrcPort)
	binary.BigEndian.PutUint16(buf[10:], f.DstPort)
	h.Write(buf[:])
	h.Write(r.salt[:])
	return uint32(h.Sum64() % hashBuckets)
}

// selectNHLFE picks the entry whose cumulative ratio bucket contains the
// flow's hash value. Entries with zero ratio are never selected.
func (r *Router) selectNHLFE(entries []NHLFE, f FlowKey) (NHLFE, bool) {
	var total float64
	for _, e := range entries {
		total += e.Ratio
	}
	if total <= 0 {
		return NHLFE{}, false
	}
	x := (float64(r.Hash(f)) + 0.5) / hashBuckets * total
	var cum float64
	for _, e := range entries {
		cum += e.Ratio
		if x <= cum && e.Ratio > 0 {
			return e, true
		}
	}
	// Ratio rounding: fall back to the last positive entry.
	for i := len(entries) - 1; i >= 0; i-- {
		if entries[i].Ratio > 0 {
			return entries[i], true
		}
	}
	return NHLFE{}, false
}

// NextBase returns the base-routing next hop for a flow of OD pair
// (src, dst) at this router.
func (r *Router) NextBase(src, dst graph.NodeID, f FlowKey) (NHLFE, bool) {
	entries, ok := r.FIB[[2]graph.NodeID{src, dst}]
	if !ok {
		return NHLFE{}, false
	}
	return r.selectNHLFE(entries, f)
}

// NextProtected returns the forwarding decision for a packet whose top
// label is lbl: either an NHLFE to follow, or pop=true at the tail.
func (r *Router) NextProtected(lbl Label, f FlowKey) (nh NHLFE, pop, ok bool) {
	fwd, found := r.ILM[lbl]
	if !found {
		return NHLFE{}, false, false
	}
	if fwd.Pop {
		return NHLFE{}, true, true
	}
	nh, ok = r.selectNHLFE(fwd.Entries, f)
	return nh, false, ok
}

// Network is the MPLS-ff control and data plane for a whole topology:
// per-router tables programmed from an R3 state, plus the label
// allocation for protected links.
type Network struct {
	G       *graph.Graph
	Routers []*Router
	// LabelOf maps each protected link to its protection label.
	LabelOf map[graph.LinkID]Label

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
}

// LabelFor returns the protection label of link e.
func LabelFor(e graph.LinkID) Label { return ProtLabelBase + Label(e) }

// Build programs a network from a precomputed R3 plan: the central server
// role of §4.3 (label allocation, MPLS-ff setup, distribution of p).
func Build(plan *core.Plan) *Network {
	st := core.NewState(plan)
	n := &Network{
		G:         plan.G,
		LabelOf:   make(map[graph.LinkID]Label, plan.G.NumLinks()),
		state:     st,
		nextRound: 1,
	}
	for e := 0; e < plan.G.NumLinks(); e++ {
		n.LabelOf[graph.LinkID(e)] = LabelFor(graph.LinkID(e))
	}
	n.Routers = make([]*Router, plan.G.NumNodes())
	for v := 0; v < plan.G.NumNodes(); v++ {
		r := &Router{
			Node: graph.NodeID(v),
			ILM:  make(map[Label]*FWD),
			FIB:  make(map[[2]graph.NodeID][]NHLFE),
		}
		// Router-private 96-bit salt derived from the node ID; any
		// unpredictable per-router value works.
		h := fnv.New128a()
		var b [4]byte
		binary.BigEndian.PutUint32(b[:], uint32(v)^0x5bd1e995)
		h.Write(b[:])
		copy(r.salt[:], h.Sum(nil))
		n.Routers[v] = r
	}
	n.programILM()
	n.programFIB(plan)
	return n
}

// Clone deep-copies the network: tables, label allocation, failure
// knowledge, bookkeeping state, and round version. Buffered out-of-order
// rounds are not carried over. The transition scheduler clones a
// reference network per migration batch so intermediate mixed
// configurations never alias each other.
func (n *Network) Clone() *Network {
	cp := &Network{
		G:         n.G,
		LabelOf:   make(map[graph.LinkID]Label, len(n.LabelOf)),
		state:     n.state.Clone(),
		failed:    n.failed.Clone(),
		nextRound: n.nextRound,
	}
	for k, v := range n.LabelOf {
		cp.LabelOf[k] = v
	}
	cp.Routers = make([]*Router, len(n.Routers))
	for i, r := range n.Routers {
		nr := &Router{
			Node: r.Node,
			salt: r.salt,
			ILM:  make(map[Label]*FWD, len(r.ILM)),
			FIB:  make(map[[2]graph.NodeID][]NHLFE, len(r.FIB)),
		}
		for k, v := range r.ILM {
			nr.ILM[k] = cloneFWD(v)
		}
		for k, v := range r.FIB {
			nr.FIB[k] = cloneNHLFEs(v)
		}
		cp.Routers[i] = nr
	}
	return cp
}

// SetFIBRow replaces router u's base-FIB row for one OD pair, deep-copying
// the entries; a nil row deletes (matching Build, which only installs rows
// with at least one entry). The transition scheduler uses this to
// materialize mixed old/new intermediate configurations one commodity at
// a time.
func (n *Network) SetFIBRow(u graph.NodeID, od [2]graph.NodeID, entries []NHLFE) {
	r := n.Routers[u]
	if entries == nil {
		delete(r.FIB, od)
		return
	}
	r.FIB[od] = cloneNHLFEs(entries)
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

// ReprogramILM swaps in a new bookkeeping state and rebuilds every ILM
// row from it, leaving the base FIB untouched (the FIB deliberately keeps
// the pre-failure routing, exactly as OnFailure does). The transition
// scheduler uses this to materialize each staged intermediate state on a
// reference network before diffing it into a round delta.
func (n *Network) ReprogramILM(st *core.State) {
	n.state = st
	n.failed = st.Failed()
	n.programILM()
}

// programILM rebuilds every router's ILM from the current state.
func (n *Network) programILM() {
	g := n.G
	failed := n.state.Failed()

	for _, r := range n.Routers {
		r.ILM = make(map[Label]*FWD)
	}
	// For each protected (surviving) link l, program the routers on its
	// detour with splitting ratios normalized from the current p'; failed
	// links keep their frozen detour ξ, which head routers use when
	// stacking.
	var row routing.SparseRow
	for l := 0; l < g.NumLinks(); l++ {
		lid := graph.LinkID(l)
		if failed.Contains(lid) {
			xi := n.state.Detour(lid)
			if xi == nil {
				continue
			}
			row.SetDense(xi)
		} else {
			row = n.state.ProtRow(lid, row)
		}
		n.programColumn(lid, row)
	}
}

// programFIB installs the plan's base routing next hops per OD pair.
// Called once at Build: the base FIB is never reprogrammed on failures.
// A row's links ascend, and so does every node's out-link list, so each
// router's entries come in out-link order.
func (n *Network) programFIB(plan *core.Plan) {
	for k, c := range plan.Comms {
		od := [2]graph.NodeID{c.Src, c.Dst}
		row := plan.Base[k]
		for j, l := range row.Idx {
			if v := row.Val[j]; v > 1e-12 {
				id := graph.LinkID(l)
				r := n.Routers[n.G.Link(id).Src]
				r.FIB[od] = append(r.FIB[od], NHLFE{Out: id, Ratio: v})
			}
		}
	}
}

// programColumn installs ILM entries for one protected link's detour
// fractions (p'_l or ξ_l), a row with its links ascending. Every node's
// out-links ascend too, so each router's entries come in out-link order.
func (n *Network) programColumn(lid graph.LinkID, row routing.SparseRow) {
	g := n.G
	link := g.Link(lid)
	lbl := n.LabelOf[lid]
	n.Routers[link.Dst].ILM[lbl] = &FWD{Pop: true}
	for j, l := range row.Idx {
		id := graph.LinkID(l)
		// Traffic protected against l never uses l itself once l has
		// failed; p_l(l) only matters pre-failure.
		v, src := row.Val[j], g.Link(id).Src
		if id == lid || src == link.Dst || !(v > 1e-12) {
			continue
		}
		fwd := n.Routers[src].ILM[lbl]
		if fwd == nil {
			fwd = &FWD{}
			n.Routers[src].ILM[lbl] = fwd
		}
		fwd.Entries = append(fwd.Entries, NHLFE{Out: id, OutLabel: lbl, Ratio: v})
	}
}
