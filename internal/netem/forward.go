package netem

import (
	"repro/internal/graph"
	"repro/internal/mplsff"
)

// mplsForward walks one control-plane view's MPLS-ff tables to pick the
// next link for pk at router u: base FIB lookup, label stacking onto
// protection LSPs at links the view knows are failed (including nested
// stacking under overlapping failures), and popping at protected-link
// tails. The walk is bounded by mplsff.MaxStackDepth stack operations:
// tables that keep pushing protection labels in a cycle exhaust the
// bound and the packet is dropped (ok=false) instead of looping forever.
// Every per-router view of R3DistributedForwarder, and the centralized
// forwarder the tests compare them with, share this decision procedure.
func mplsForward(view *mplsff.Network, u graph.NodeID, pk *Packet) (graph.LinkID, bool) {
	r := view.Routers[u]
	for depth := 0; depth < mplsff.MaxStackDepth; depth++ {
		if len(pk.Stack) == 0 {
			nh, ok := r.NextBase(pk.Src, pk.Dst, pk.Flow)
			if !ok {
				return 0, false
			}
			if view.KnowsFailed(nh.Out) {
				// Activate protection: push the failed link's label and
				// retry the lookup in labeled mode.
				pk.Stack = append(pk.Stack, view.LabelOf[nh.Out])
				continue
			}
			return nh.Out, true
		}
		top := pk.Stack[len(pk.Stack)-1]
		nh, pop, ok := r.NextProtected(top, pk.Flow)
		if !ok {
			return 0, false
		}
		if pop {
			pk.Stack = pk.Stack[:len(pk.Stack)-1]
			continue
		}
		if view.KnowsFailed(nh.Out) {
			// Nested failure along a frozen detour: stack another label.
			lbl := view.LabelOf[nh.Out]
			if len(pk.Stack) > 0 && pk.Stack[len(pk.Stack)-1] == lbl {
				return 0, false // detour for a link cannot protect itself
			}
			pk.Stack = append(pk.Stack, lbl)
			continue
		}
		return nh.Out, true
	}
	return 0, false
}
