package mplsff

import (
	"sort"

	"repro/internal/graph"
)

// This file implements versioned, row-granular table updates: the unit of
// work a staged reconfiguration distributes. A Delta is the exact
// row-level difference between two programmed networks; rounds carry
// deltas with 1-based sequence numbers and apply strictly in order, so
// duplicated or reordered deliveries (anti-entropy refloods, chaos) leave
// a view byte-identical to a single in-order delivery.

// RouterDelta is the table change set for one router. A nil value marks a
// row deletion; a non-nil value replaces the row wholesale (rows are
// small, so row- rather than entry-granularity keeps application
// trivially idempotent).
type RouterDelta struct {
	FIB map[[2]graph.NodeID][]NHLFE
	ILM map[Label]*FWD
}

// Delta is one round's network-wide change set: newly learned failures
// plus per-router row updates.
type Delta struct {
	Failed  []graph.LinkID
	Routers map[graph.NodeID]*RouterDelta
}

// Empty reports whether the delta changes nothing.
func (d *Delta) Empty() bool {
	if d == nil {
		return true
	}
	if len(d.Failed) > 0 {
		return false
	}
	for _, rd := range d.Routers {
		if len(rd.FIB) > 0 || len(rd.ILM) > 0 {
			return false
		}
	}
	return true
}

// WireSize estimates the serialized size in bytes (IDs and counts as
// fixed 8-byte words, NHLFEs as out+label+ratio words), so experiments
// can report control-plane cost per round.
func (d *Delta) WireSize() int {
	if d == nil {
		return 0
	}
	sz := 8 + 8*len(d.Failed)
	for _, rd := range d.Routers {
		sz += 8 // router id
		for _, v := range rd.FIB {
			sz += 16 + 24*len(v)
		}
		for _, v := range rd.ILM {
			sz += 8
			if v != nil {
				sz += 8 + 24*len(v.Entries)
			}
		}
	}
	return sz
}

func nhlfesEqual(a, b []NHLFE) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func fwdEqual(a, b *FWD) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Pop == b.Pop && nhlfesEqual(a.Entries, b.Entries)
}

func cloneNHLFEs(a []NHLFE) []NHLFE {
	return append([]NHLFE(nil), a...)
}

func cloneFWD(f *FWD) *FWD {
	if f == nil {
		return nil
	}
	return &FWD{Entries: cloneNHLFEs(f.Entries), Pop: f.Pop}
}

// Diff computes the row-level delta that transforms old's tables and
// failure knowledge into next's. Both networks must be built over the
// same graph (same routers, same label allocation). Rows are compared
// exactly (bit-equal ratios): the deterministic per-router salts and
// programming order make equal states produce equal rows, so a no-op
// diff really is empty.
func Diff(old, next *Network) *Delta {
	d := &Delta{}
	for _, id := range next.failed.IDs() {
		if !old.failed.Contains(id) {
			d.Failed = append(d.Failed, id)
		}
	}
	sort.Slice(d.Failed, func(i, j int) bool { return d.Failed[i] < d.Failed[j] })

	for i, nr := range next.Routers {
		or := old.Routers[i]
		var rd *RouterDelta
		get := func() *RouterDelta {
			if rd == nil {
				rd = &RouterDelta{
					FIB: make(map[[2]graph.NodeID][]NHLFE),
					ILM: make(map[Label]*FWD),
				}
			}
			return rd
		}
		for k, v := range nr.FIB {
			if ov, ok := or.FIB[k]; !ok || !nhlfesEqual(ov, v) {
				get().FIB[k] = cloneNHLFEs(v)
			}
		}
		for k := range or.FIB {
			if _, ok := nr.FIB[k]; !ok {
				get().FIB[k] = nil
			}
		}
		for k, v := range nr.ILM {
			if ov, ok := or.ILM[k]; !ok || !fwdEqual(ov, v) {
				get().ILM[k] = cloneFWD(v)
			}
		}
		for k := range or.ILM {
			if _, ok := nr.ILM[k]; !ok {
				get().ILM[k] = nil
			}
		}
		if rd != nil {
			if d.Routers == nil {
				d.Routers = make(map[graph.NodeID]*RouterDelta)
			}
			d.Routers[nr.Node] = rd
		}
	}
	return d
}

// ApplyDelta applies a delta unconditionally (no versioning): failures
// are learned, nil rows deleted, non-nil rows replaced. Rows are
// deep-copied, so one Delta can be applied to many views without shared
// storage. The bookkeeping state is NOT touched: a staged view's tables
// are authoritative, exactly as a real router's RIB lags its FIB during
// a rollout.
func (n *Network) ApplyDelta(d *Delta) {
	if d == nil {
		return
	}
	for _, e := range d.Failed {
		n.failed.Add(e)
	}
	for node, rd := range d.Routers {
		r := n.Routers[node]
		for k, v := range rd.FIB {
			if v == nil {
				delete(r.FIB, k)
			} else {
				r.FIB[k] = cloneNHLFEs(v)
			}
		}
		for k, v := range rd.ILM {
			if v == nil {
				delete(r.ILM, k)
			} else {
				r.ILM[k] = cloneFWD(v)
			}
		}
	}
}

// ApplyRound delivers round seq (1-based). Rounds apply strictly in
// order: a duplicate of an already-applied round is ignored, a future
// round buffers until its predecessors arrive. Returns how many rounds
// were applied as a result of this delivery (0, 1, or more when a gap
// fills). Any interleaving of duplicated and reordered deliveries of
// rounds 1..k leaves the view identical to applying them once, in order.
func (n *Network) ApplyRound(seq int, d *Delta) int {
	if seq < n.nextRound {
		return 0
	}
	if n.pending == nil {
		n.pending = make(map[int]*Delta)
	}
	n.pending[seq] = d
	applied := 0
	for {
		next, ok := n.pending[n.nextRound]
		if !ok {
			break
		}
		delete(n.pending, n.nextRound)
		n.ApplyDelta(next)
		n.nextRound++
		applied++
	}
	return applied
}
