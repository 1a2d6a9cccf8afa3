package netem

import (
	"fmt"
	"strings"

	"repro/internal/graph"
	"repro/internal/mplsff"
)

// ViewInspector is implemented by forwarders that keep one control-plane
// view per router (R3DistributedForwarder). The invariant checker uses it
// to assert that, post-convergence, every router's view is byte-identical
// (Theorem 3), and that no router ever forwards a packet into a link its
// own view already knows is failed.
type ViewInspector interface {
	Forwarder
	// ViewFingerprint digests router u's forwarding state canonically.
	ViewFingerprint(u graph.NodeID) uint64
	// ViewKnowsFailed reports whether router u has been told e is down.
	ViewKnowsFailed(u graph.NodeID, e graph.LinkID) bool
}

// Violation is one invariant breach, timestamped in emulation seconds.
type Violation struct {
	At     float64
	Kind   string // "stack-depth", "known-failed-tx", "dead-link-tx", "view-divergence", "capacity"
	Detail string
}

func (v Violation) String() string {
	return fmt.Sprintf("t=%.6f %s: %s", v.At, v.Kind, v.Detail)
}

// Invariants is the always-on emulator invariant checker, hooked into the
// event loop: label-stack depth stays bounded, nothing is transmitted
// into a failed link, converged router views are byte-identical, and
// per-phase delivered load respects capacity (Theorem 2). A violation
// either panics loudly — seeds and recent event trace included — or, when
// Config.OnViolation is set, is handed to that callback after being
// recorded.
type Invariants struct {
	em *Emulator
	// StackDepth is the label-stack bound (mplsff.MaxStackDepth).
	StackDepth int
	violations []Violation
}

func newInvariants(em *Emulator) *Invariants {
	return &Invariants{em: em, StackDepth: mplsff.MaxStackDepth}
}

// Violations returns the breaches recorded so far (nil when clean).
func (iv *Invariants) Violations() []Violation { return iv.violations }

func (iv *Invariants) fail(kind, format string, args ...interface{}) {
	v := Violation{At: iv.em.now, Kind: kind, Detail: fmt.Sprintf(format, args...)}
	iv.violations = append(iv.violations, v)
	if h := iv.em.cfg.OnViolation; h != nil {
		h(v)
		return
	}
	panic(fmt.Sprintf("netem: invariant violation %s\nseed=%d chaos.seed=%d chaos.enabled=%v\nrecent events:\n%s",
		v, iv.em.cfg.Seed, iv.em.cfg.Chaos.Seed, iv.em.cfg.Chaos.Enabled, iv.em.trace.dump()))
}

// checkForward runs the per-decision invariants after a Forwarder picked
// an output link: the label stack must stay within the depth bound (a
// deeper stack means the decision loop escaped its guard), and a
// view-keeping forwarder must never route into a link its own view knows
// is failed (it must stack a protection label instead).
func (iv *Invariants) checkForward(u graph.NodeID, out graph.LinkID, pk *Packet) {
	if len(pk.Stack) > iv.StackDepth {
		iv.fail("stack-depth", "router %d left packet %v->%v with %d labels (bound %d)",
			u, pk.Src, pk.Dst, len(pk.Stack), iv.StackDepth)
	}
	if insp := iv.em.insp; insp != nil && insp.ViewKnowsFailed(u, out) {
		iv.fail("known-failed-tx", "router %d forwarded %v->%v into link %d its view knows is failed",
			u, pk.Src, pk.Dst, out)
	}
}

// checkTx asserts the emulator itself never serializes a packet onto a
// link that is down in the data plane (the blackhole drop must have
// caught it earlier).
func (iv *Invariants) checkTx(out graph.LinkID) {
	if !iv.em.linkUp[out] {
		iv.fail("dead-link-tx", "packet serialized onto failed link %d", out)
	}
}

// checkConverged runs when no failure is awaiting reconfiguration: every
// per-router view must have an identical fingerprint (Theorem 3 — the
// notification order routers saw must not matter). While staged
// reconfiguration rounds are outstanding the check is suspended: views
// at different rounds of a rollout legitimately differ.
func (iv *Invariants) checkConverged() {
	insp := iv.em.insp
	if insp == nil {
		return
	}
	if len(iv.em.stagedAt) > 0 {
		return
	}
	want := insp.ViewFingerprint(0)
	for v := 1; v < iv.em.g.NumNodes(); v++ {
		if got := insp.ViewFingerprint(graph.NodeID(v)); got != want {
			iv.fail("view-divergence", "router %d view fingerprint %#x != router 0's %#x after convergence",
				v, got, want)
		}
	}
}

// checkPhaseCapacity asserts Theorem 2 on the delivered-load counters:
// no link carried more than capacity × duration during the phase, plus
// the backlog that may drain after the boundary (one queue plus one
// packet of slack — packets are charged to the phase that enqueued them).
func (iv *Invariants) checkPhaseCapacity(p *PhaseStats) {
	dur := p.End - p.Start
	if dur <= 0 {
		return
	}
	slack := float64(queueBytes + packetBytes)
	for e, b := range p.LinkBytes {
		capBytes := iv.em.rateBytes(graph.LinkID(e)) * dur
		if float64(b) > capBytes+slack {
			iv.fail("capacity", "link %d carried %d bytes in a %.3fs phase (capacity %.0f + slack %.0f)",
				e, b, dur, capBytes, slack)
		}
	}
}

// traceRing is a fixed-size ring of notable emulation events (failures,
// notifications, chaos actions), dumped when an invariant trips.
type traceRing struct {
	entries [128]traceEntry
	n       int
}

type traceEntry struct {
	at   float64
	kind traceKind
	a, b int32
}

type traceKind uint8

const (
	traceFail traceKind = iota + 1
	traceNotify
	traceChaosDropCtrl
	traceChaosDropData
	traceChaosDup
	traceStage
)

func (k traceKind) String() string {
	switch k {
	case traceFail:
		return "link-failed"
	case traceNotify:
		return "router-notified"
	case traceChaosDropCtrl:
		return "chaos-drop-ctrl"
	case traceChaosDropData:
		return "chaos-drop-data"
	case traceChaosDup:
		return "chaos-dup"
	case traceStage:
		return "stage-round"
	}
	return "?"
}

func (t *traceRing) add(at float64, kind traceKind, a, b int32) {
	t.entries[t.n%len(t.entries)] = traceEntry{at: at, kind: kind, a: a, b: b}
	t.n++
}

func (t *traceRing) dump() string {
	var sb strings.Builder
	start := 0
	if t.n > len(t.entries) {
		start = t.n - len(t.entries)
	}
	for i := start; i < t.n; i++ {
		e := t.entries[i%len(t.entries)]
		fmt.Fprintf(&sb, "  t=%.6f %s link=%d", e.at, e.kind, e.a)
		if e.b >= 0 {
			fmt.Fprintf(&sb, " node=%d", e.b)
		}
		sb.WriteByte('\n')
	}
	if sb.Len() == 0 {
		return "  (no notable events recorded)\n"
	}
	return sb.String()
}
