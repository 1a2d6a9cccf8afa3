package mplsff

import (
	"math"

	"repro/internal/graph"
)

// MaxStackDepth bounds the label-stack walk in one forwarding decision:
// a packet needing more than this many stack operations at a single
// router is looping through protection labels and must be dropped. R3
// with F failures never stacks deeper than F labels, so 16 leaves ample
// headroom while keeping adversarial tables from spinning forever.
const MaxStackDepth = 16

// KnowsFailed reports whether this view has been told link e failed,
// without cloning the failure set (consulted per packet).
func (n *Network) KnowsFailed(e graph.LinkID) bool { return n.failed.Contains(e) }

// fnv64a is an FNV-64a hash fed big-endian words.
type fnv64a uint64

func (h *fnv64a) word(v uint64) {
	for s := 56; s >= 0; s -= 8 {
		*h = (*h ^ fnv64a(byte(v>>s))) * 1099511628211
	}
}

// Fingerprint digests the view's forwarding state: the failure set, then
// per router its base-FIB entries by OD pair and its ILM entries of every
// *surviving* link by label. Two routers whose floods delivered the same
// failure set in any order produce identical fingerprints (Theorem 3);
// the emulator's invariant checker compares them after every convergence.
//
// ILM rows of failed links are excluded on purpose: they hold the detour
// ξ_e frozen at the moment e failed, and that snapshot legitimately
// depends on the order failures were detected (see State.ProtEquals).
func (n *Network) Fingerprint() uint64 {
	h := fnv64a(14695981039346656037)
	nL, nN := n.G.NumLinks(), len(n.Routers)
	for l := range nL {
		if n.failed.Contains(graph.LinkID(l)) {
			h.word(uint64(l))
		}
	}
	fib, ilm := n.rows[:nN*nN], n.rows[nN*nN:]
	for _, r := range n.Routers {
		h.word(uint64(r.Node))
		for i, row := range fib {
			s := seg(row, r.Node)
			if len(s) == 0 {
				continue
			}
			h.word(uint64(i/nN)<<32 | uint64(i%nN))
			for _, e := range s {
				h.word(uint64(e.out))
				h.word(0)
				h.word(math.Float64bits(e.ratio))
			}
		}
		for l, row := range ilm {
			s := seg(row, r.Node)
			if len(s) == 0 || n.failed.Contains(graph.LinkID(l)) {
				continue // frozen detour row: order dependent by design
			}
			lbl := uint64(LabelFor(graph.LinkID(l)))
			h.word(lbl)
			if s[0].out == popOut {
				h.word(1)
				continue
			}
			h.word(2)
			for _, e := range s {
				h.word(uint64(e.out))
				h.word(lbl)
				h.word(math.Float64bits(e.ratio))
			}
		}
	}
	return uint64(h)
}
