package netem

import (
	"repro/internal/graph"
	"repro/internal/mplsff"
)

// This file delivers staged reconfigurations (internal/transition)
// through the emulator: each round's row-level delta is injected at an
// origin router, flooded over the same reliable sequence-numbered
// anti-entropy channel as failure notifications, and applied per router
// on first receipt. Failures activate via FailAtSilent — data plane only,
// no notification flood — so the scheduler's rounds, not the failure
// flood, decide when each router's tables change. While rounds are
// outstanding the view-divergence invariant is suspended (views
// legitimately differ mid-rollout); the moment the last round reaches the
// last router it re-arms and fires.

// StageAware forwarders accept versioned staged-reconfiguration rounds:
// per-router row-level deltas applied with strict 1-based sequencing.
// OnRound is invoked as a round's flood reaches each router;
// mplsff.ApplyRound semantics (duplicates ignored, future rounds
// buffered) make delivery dup/reorder safe.
type StageAware interface {
	Forwarder
	// OnRound delivers staged round seq (1-based) to router u.
	OnRound(u graph.NodeID, seq int, d *mplsff.Delta)
}

// stageStream keys the staged-round flood's sequence-number dedup — the
// ctrlStream analogue for reconfiguration rounds.
type stageStream struct {
	seq    int
	origin graph.NodeID
}

// FailAtSilent schedules data-plane-only bidirectional link failures as
// one correlated event: the links go down and in-flight packets
// blackhole, but no detection or notification flood fires. The control
// plane learns of the failures exclusively from staged rounds, whose
// deltas carry the failed links. A new measurement phase starts at the
// failure instant.
func (em *Emulator) FailAtSilent(t float64, links ...graph.LinkID) {
	em.schedule(t, func() {
		var ids []graph.LinkID
		for _, e := range links {
			ids = append(ids, e)
			if rev := em.g.Link(e).Reverse; rev >= 0 {
				ids = append(ids, rev)
			}
		}
		for _, id := range ids {
			if !em.linkUp[id] {
				continue
			}
			em.linkUp[id] = false
			em.trace.add(em.now, traceFail, int32(id), -1)
		}
		em.closePhase(em.now)
		em.cur = em.newPhase(em.now)
	})
}

// StageRoundAt schedules staged round seq (1-based, from a
// transition.Sequence) for injection at the origin router at time t. The
// origin applies it immediately and floods it; every other router applies
// it as the flood arrives. A new measurement phase starts at the
// injection instant, so the per-phase link counters bound each round's
// transient. Requires a StageAware forwarder. Injecting the same round
// twice is a no-op.
func (em *Emulator) StageRoundAt(t float64, origin graph.NodeID, seq int, d *mplsff.Delta) {
	em.schedule(t, func() {
		sa, ok := em.cfg.Forwarder.(StageAware)
		if !ok {
			panic("netem: StageRoundAt requires a StageAware forwarder")
		}
		em.stageNow(sa, origin, seq, d)
	})
}

// StagesConverged reports whether every injected staged round has reached
// every router. Trivially true before any round.
func (em *Emulator) StagesConverged() bool { return len(em.stagedAt) == 0 }

// stageNow injects round seq at origin: record it, open a new measurement
// phase, apply locally and start the flood.
func (em *Emulator) stageNow(sa StageAware, origin graph.NodeID, seq int, d *mplsff.Delta) {
	if _, dup := em.stagedDeltas[seq]; dup {
		return
	}
	em.stagedDeltas[seq] = d
	em.stagedAt[seq] = em.now
	em.trace.add(em.now, traceStage, int32(seq), int32(origin))
	em.obsStage.Inc()
	em.closePhase(em.now)
	em.cur = em.newPhase(em.now)
	em.stageApply(sa, origin, seq)
}

// stageApply delivers round seq to router u the first time, relays the
// flood and schedules the re-flood rounds — notify()'s analogue for
// staged rounds. When the round has reached every router its
// injection→converged latency is observed and, once no rounds or
// failures remain outstanding, the view-divergence invariant runs.
func (em *Emulator) stageApply(sa StageAware, u graph.NodeID, seq int) {
	if em.stageApplied[u][seq] {
		return
	}
	if em.stageApplied[u] == nil {
		em.stageApplied[u] = make(map[int]bool)
	}
	em.stageApplied[u][seq] = true
	em.trace.add(em.now, traceStage, int32(seq), int32(u))
	sa.OnRound(u, seq, em.stagedDeltas[seq])
	em.stageCount[seq]++
	if em.stageCount[seq] == em.g.NumNodes() {
		em.observeReconfig(em.now - em.stagedAt[seq])
		delete(em.stagedAt, seq)
		delete(em.stageCount, seq)
		if len(em.stagedAt) == 0 && len(em.failedAt) == 0 {
			em.inv.checkConverged()
		}
	}
	em.stageFloodOut(sa, u, seq)
	for i := 1; i <= em.cfg.refloodRounds; i++ {
		em.schedule(em.now+float64(i)*refloodInterval, func() {
			em.refloodRounds++
			em.obsReflood.Inc()
			em.stageFloodOut(sa, u, seq)
		})
	}
}

// stageFloodOut relays round seq from router u on every alive outgoing
// link, stamped with u's next sequence number for the round and sized by
// the delta's wire encoding (the real control-plane cost of a round).
func (em *Emulator) stageFloodOut(sa StageAware, u graph.NodeID, seq int) {
	if em.stageNext[u] == nil {
		em.stageNext[u] = make(map[int]uint32)
	}
	sn := em.stageNext[u][seq]
	em.stageNext[u][seq] = sn + 1
	size := em.stagedDeltas[seq].WireSize()
	if size < 64 {
		size = 64
	}
	for _, id := range em.g.Out(u) {
		if !em.linkUp[id] {
			continue
		}
		pk := &Packet{Size: size, SentAt: em.now, StageSeq: seq, CtrlOrigin: u, CtrlSeq: sn}
		em.transmitCtrl(sa, id, pk)
	}
}

// receiveStage processes an arriving staged-round announcement:
// per (round, origin) stream dedup, then first-time application and
// relay.
func (em *Emulator) receiveStage(u graph.NodeID, pk *Packet) {
	sa, ok := em.cfg.Forwarder.(StageAware)
	if !ok {
		return
	}
	key := stageStream{seq: pk.StageSeq, origin: pk.CtrlOrigin}
	if last, ok := em.stageSeen[u][key]; ok && pk.CtrlSeq <= last {
		return
	}
	if em.stageSeen[u] == nil {
		em.stageSeen[u] = make(map[stageStream]uint32)
	}
	em.stageSeen[u][key] = pk.CtrlSeq
	em.stageApply(sa, u, pk.StageSeq)
}
