package mplsff

import (
	"math"
	"math/bits"
	"slices"

	"repro/internal/graph"
)

// This file implements versioned, row-granular table updates: the unit of
// work a staged reconfiguration distributes. A Delta is the exact
// row-level difference between two programmed networks; rounds carry
// deltas with 1-based sequence numbers and apply strictly in order, so
// duplicated or reordered deliveries (anti-entropy refloods, chaos) leave
// a view byte-identical to a single in-order delivery.

// Delta is one round's network-wide change set: newly learned failures
// plus the rows that changed, each carried whole (rows are small, so row-
// rather than entry-granularity keeps application trivially idempotent).
type Delta struct {
	Failed []graph.LinkID
	rows   []rowChange
	// wire is what the changed rows cost on the wire, per router.
	wire int
}

// rowChange installs row at index i; a nil row deletes.
type rowChange struct {
	i   int
	row []entry
}

// Empty reports whether the delta changes nothing.
func (d *Delta) Empty() bool { return d == nil || len(d.Failed) == 0 && len(d.rows) == 0 }

// WireSize estimates the serialized size in bytes, encoded per router:
// IDs and counts as fixed 8-byte words, NHLFEs as out+label+ratio words.
// Each router whose entries in a row changed carries its id once and its
// part of the row (a FIB row 16 B + 24 B per NHLFE; an ILM row 8 B, plus
// 8 B + 24 B per NHLFE unless deleted), so experiments can report
// control-plane cost per round.
func (d *Delta) WireSize() int {
	if d == nil {
		return 0
	}
	return 8 + 8*len(d.Failed) + d.wire
}

// Diff computes the row-level delta that transforms old's tables and
// failure knowledge into next's. Both networks must be built over the
// same graph (same routers, same label allocation). Rows the two share
// are skipped; the rest are compared exactly (bit-equal ratios): the
// deterministic programming order makes equal states produce equal rows,
// so a no-op diff really is empty.
func Diff(old, next *Network) *Delta {
	d := &Delta{}
	for l := range next.G.NumLinks() {
		if e := graph.LinkID(l); next.failed.Contains(e) && !old.failed.Contains(e) {
			d.Failed = append(d.Failed, e)
		}
	}
	named := make([]bool, len(next.Routers))
	fibRows := len(next.Routers) * len(next.Routers)
	for i, b := range next.rows {
		a := old.rows[i]
		if len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0] || slices.Equal(a, b)) {
			continue
		}
		d.rows = append(d.rows, rowChange{i, b})
		// Walk both rows router by router: block by block through their
		// indexes, and in each block through the union of the masks.
		xa, xb := blocks(a), blocks(b)
		for len(xa) > 0 || len(xb) > 0 {
			blk := int32(math.MaxInt32)
			if len(xa) > 0 {
				blk = xa[0].key
			}
			if len(xb) > 0 {
				blk = min(blk, xb[0].key)
			}
			var mask uint64
			if len(xa) > 0 && xa[0].key == blk {
				mask |= routerMask(xa[0])
				xa = xa[1:]
			}
			if len(xb) > 0 && xb[0].key == blk {
				mask |= routerMask(xb[0])
				xb = xb[1:]
			}
			for ; mask != 0; mask &= mask - 1 {
				u := graph.NodeID(blk<<6 | int32(bits.TrailingZeros64(mask)))
				d.wire += routerWire(named, u, i < fibRows, seg(a, u), seg(b, u))
			}
		}
	}
	return d
}

// routerWire is what router u's part of a changed row costs on the wire
// (see WireSize): nothing if its entries did not change, sa before and sb
// after, plus its id the first time one of its parts changes.
func routerWire(named []bool, u graph.NodeID, fib bool, sa, sb []entry) int {
	// A key is the row index's, not the part's.
	if slices.EqualFunc(sa, sb, func(x, y entry) bool { return x.out == y.out && x.ratio == y.ratio }) {
		return 0
	}
	w := 0
	if !named[u] {
		named[u] = true
		w += 8
	}
	switch {
	case fib:
		w += 16 + 24*len(sb)
	case len(sb) == 0:
		w += 8
	case sb[0].out == popOut:
		w += 16
	default:
		w += 16 + 24*len(sb)
	}
	return w
}

// ApplyDelta applies a delta unconditionally (no versioning): failures
// are learned and each changed row is installed whole, shared with the
// delta (rows are never written). The bookkeeping state is NOT touched: a
// staged view's tables are authoritative, exactly as a real router's RIB
// lags its FIB during a rollout.
func (n *Network) ApplyDelta(d *Delta) {
	if d == nil {
		return
	}
	for _, e := range d.Failed {
		n.failed.Add(e)
	}
	for _, c := range d.rows {
		n.rows[c.i] = c.row
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
