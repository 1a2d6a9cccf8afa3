package netem

import (
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mplsff"
)

// R3DistributedForwarder is the fully distributed variant of §4.3: every
// router keeps its own copy of the protection routing p and applies R3's
// rescaling independently as failure notifications reach it through the
// flood. Between a failure and the flood's arrival at a given router,
// that router still forwards on its stale view; once all routers have
// heard of all failures their states are identical — Theorem 3's order
// independence in action (verified by TestDistributedConvergence and the
// emulator's always-on view-divergence invariant).
type R3DistributedForwarder struct {
	// views[u] is router u's private control plane.
	views []*mplsff.Network
}

// NewR3Distributed builds the plan's network once and gives every other
// router a clone of it.
func NewR3Distributed(plan *core.Plan) *R3DistributedForwarder {
	views := make([]*mplsff.Network, plan.G.NumNodes())
	views[0] = mplsff.Build(plan)
	for v := 1; v < len(views); v++ {
		views[v] = views[0].Clone()
	}
	return &R3DistributedForwarder{views: views}
}

// Name implements Forwarder.
func (f *R3DistributedForwarder) Name() string { return "MPLS-ff+R3 (distributed)" }

// ApplyFailure implements Forwarder; unused in flood mode (OnNotification
// carries the per-router knowledge), but kept total: it informs every
// router at once.
func (f *R3DistributedForwarder) ApplyFailure(e graph.LinkID) {
	for v := range f.views {
		_ = f.views[v].OnFailure(e)
	}
}

// OnNotification implements FloodAware.
func (f *R3DistributedForwarder) OnNotification(u graph.NodeID, e graph.LinkID) {
	_ = f.views[u].OnFailure(e)
}

// OnRound implements StageAware: a staged-reconfiguration round applies
// to router u's private view with strict sequencing — duplicated or
// reordered deliveries leave the view identical to one in-order delivery
// (mplsff.ApplyRound buffers future rounds and ignores applied ones).
func (f *R3DistributedForwarder) OnRound(u graph.NodeID, seq int, d *mplsff.Delta) {
	f.views[u].ApplyRound(seq, d)
}

// ViewFingerprint implements ViewInspector for the always-on convergence
// invariant: canonical digest of router u's forwarding state.
func (f *R3DistributedForwarder) ViewFingerprint(u graph.NodeID) uint64 {
	return f.views[u].Fingerprint()
}

// ViewKnowsFailed implements ViewInspector.
func (f *R3DistributedForwarder) ViewKnowsFailed(u graph.NodeID, e graph.LinkID) bool {
	return f.views[u].KnowsFailed(e)
}

// Forward implements Forwarder, consulting only router u's own view.
func (f *R3DistributedForwarder) Forward(u graph.NodeID, pk *Packet) (graph.LinkID, bool) {
	return mplsForward(f.views[u], u, pk)
}
