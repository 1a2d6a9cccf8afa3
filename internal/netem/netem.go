// Package netem is a discrete-event packet-level network emulator
// standing in for the paper's Emulab testbed: links with finite rate,
// propagation delay and drop-tail buffering; CBR/Poisson flow generators
// driven by a traffic matrix; link-failure injection with detection and
// reconvergence delays; and per-phase measurement of OD throughput, link
// intensity, egress loss and ping RTT — everything Figures 11–13 need.
//
// Two robustness layers sit on top of the basic emulation: a seeded
// chaos mode (chaos.go) that adversarially drops, duplicates, reorders
// and delays packets and injects correlated failure bursts, and an
// always-on invariant checker (invariants.go) that fails loudly — with
// the seeds and an event trace — the moment the emulation violates the
// paper's guarantees.
package netem

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"

	"repro/internal/graph"
	"repro/internal/mplsff"
	"repro/internal/obs"
)

// Packet is one emulated packet.
type Packet struct {
	Flow     mplsff.FlowKey
	Src, Dst graph.NodeID
	Size     int // bytes
	Stack    []mplsff.Label
	SentAt   float64
	// Ping marks RTT probes; Return marks the echo leg.
	Ping   bool
	Return bool
	// Ctrl marks a failure-notification packet (the ICMP type-42 flood of
	// §4.3) announcing that FailedLink is down.
	Ctrl       bool
	FailedLink graph.LinkID
	// CtrlOrigin and CtrlSeq identify the announcing router's
	// retransmission stream: the reliable flood dedups received
	// notifications per (FailedLink, CtrlOrigin) by sequence number, so
	// chaos-duplicated or re-flooded copies are discarded exactly once
	// per router.
	CtrlOrigin graph.NodeID
	CtrlSeq    uint32
	// StageSeq, when positive, marks a staged-reconfiguration round
	// announcement (staging.go): the packet carries transition round
	// StageSeq instead of a failure notification, deduped per
	// (StageSeq, CtrlOrigin) stream.
	StageSeq int
}

// Forwarder is a routing control/data plane under emulation.
type Forwarder interface {
	// Name labels the forwarder in results.
	Name() string
	// Forward picks the next link for pk at node u (pk may be mutated,
	// e.g. label stack operations). ok=false drops the packet.
	Forward(u graph.NodeID, pk *Packet) (out graph.LinkID, ok bool)
	// ApplyFailure informs the control plane that link e (already down in
	// the data plane) is now known network-wide.
	ApplyFailure(e graph.LinkID)
}

// FloodAware forwarders keep per-router state: instead of a global
// ApplyFailure after a fixed convergence delay, the emulator floods
// notification packets through the network (the paper's ICMP type-42
// flood) and calls OnNotification as each router receives one. Routers
// then reconfigure independently — Theorem 3's order independence is
// what makes their states converge.
type FloodAware interface {
	Forwarder
	// OnNotification tells router u that link e failed.
	OnNotification(u graph.NodeID, e graph.LinkID)
}

// event is a scheduled action: a callback (fn != nil), or data packet pk
// arriving over link out after hops prior hops (fn == nil). Hops are plain
// values, so scheduling one allocates nothing.
type event struct {
	at   float64
	seq  int
	fn   func()
	pk   *Packet
	out  graph.LinkID
	hops int32
}

// before orders events by (at, seq). seq is unique, so the order is total.
func (e *event) before(o *event) bool {
	return e.at < o.at || (e.at == o.at && e.seq < o.seq)
}

// eventHeap is a 4-ary min-heap of events under before. The order is
// total, so pops come out in one sequence whatever the arity or layout.
type eventHeap []event

func (h *eventHeap) push(ev event) {
	s := append(*h, ev)
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !ev.before(&s[p]) {
			break
		}
		s[i] = s[p]
		i = p
	}
	s[i] = ev
	*h = s
}

// pop removes and returns the first event. The vacated slot is cleared so
// the backing array keeps no dead packet or closure alive.
func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	last := s[n]
	s[n] = event{}
	s = s[:n]
	*h = s
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		for j, end := c+1, min(c+4, n); j < end; j++ {
			if s[j].before(&s[m]) {
				m = j
			}
		}
		if !s[m].before(&last) {
			break
		}
		s[i] = s[m]
		i = m
	}
	s[i] = last
	return top
}

// InstantDetect is the DetectDelay sentinel for zero-delay failure
// detection. A plain zero keeps the 10 ms default (the Go zero value must
// stay backward compatible), so instant detection needs an explicit
// negative.
const InstantDetect = -1.0

// Config parameterizes an emulation run.
type Config struct {
	G         *graph.Graph
	Forwarder Forwarder
	// PacketBytes is the data packet size (default 1500).
	PacketBytes int
	// QueueBytes is the per-link drop-tail buffer (default 128 KiB).
	QueueBytes int
	// DetectDelay is the time from a failure to adjacent-router detection
	// (default 10 ms). Use InstantDetect (any negative value) for
	// zero-delay detection; 0 keeps the default.
	DetectDelay float64
	// ConvergeDelay is the additional time until ApplyFailure is invoked
	// (0 for R3's local activation; seconds for OSPF reconvergence).
	ConvergeDelay float64
	// FlowsPerPair is how many hashed flows carry each OD pair's traffic
	// (default 8).
	FlowsPerPair int
	// Seed drives packet arrival jitter.
	Seed int64
	// Chaos, when Enabled, layers seeded fault injection over the run:
	// control/data packet drop, duplication and reordering, detection
	// jitter and correlated multi-link failure bursts (see ChaosConfig).
	Chaos ChaosConfig
	// RefloodRounds is how many times each router that knows of a failure
	// re-announces it to its neighbors (sequence-numbered, spaced
	// RefloodInterval apart) — the reliable flood that survives lossy
	// control channels. 0 defaults to 8 rounds when chaos is enabled and
	// to the classic fire-once flood otherwise; negative forces fire-once.
	RefloodRounds int
	// RefloodInterval is the spacing of re-flood rounds (default 50 ms).
	RefloodInterval float64
	// OnViolation, when non-nil, receives invariant violations instead of
	// the default loud panic (which reports the seeds and event trace).
	// Violations are recorded on the emulator either way.
	OnViolation func(Violation)
	// Obs, when non-nil, receives emulator counters prefixed
	// "netem.<forwarder>." (forwarded/dropped/delivered data packets and
	// ctrl_packets for the notification flood), the global
	// "netem.reflood_rounds" and "netem.chaos.*" fault counters, plus the
	// "netem.reconfig_us" histogram of reconfiguration latency in emulated
	// microseconds: failure instant to network-wide convergence — last
	// router notified on the flood path, ApplyFailure on the global path.
	Obs *obs.Registry
}

func (c *Config) defaults() {
	if c.PacketBytes == 0 {
		c.PacketBytes = 1500
	}
	if c.QueueBytes == 0 {
		c.QueueBytes = 128 << 10
	}
	if c.DetectDelay == 0 {
		c.DetectDelay = 0.010
	} else if c.DetectDelay < 0 {
		c.DetectDelay = 0 // InstantDetect
	}
	if c.FlowsPerPair == 0 {
		c.FlowsPerPair = 8
	}
	if c.RefloodRounds == 0 && c.Chaos.Enabled {
		c.RefloodRounds = 8
	}
	if c.RefloodRounds < 0 {
		c.RefloodRounds = 0
	}
	if c.RefloodInterval == 0 {
		c.RefloodInterval = 0.050
	}
	c.Chaos.defaults()
}

// PhaseStats aggregates measurements between failure events.
type PhaseStats struct {
	// Start and End bound the phase in emulation seconds.
	Start, End float64
	// DeliveredBytes per OD pair.
	DeliveredBytes map[[2]graph.NodeID]int64
	// OfferedBytes per OD pair (generated during the phase).
	OfferedBytes map[[2]graph.NodeID]int64
	// LinkBytes transmitted per link.
	LinkBytes []int64
	// DropsByDst counts bytes dropped, keyed by the packet's egress
	// (destination) router.
	DropsByDst []int64
}

// Duration returns the phase length.
func (p *PhaseStats) Duration() float64 { return p.End - p.Start }

// AppendCanonical serializes the phase into buf in a canonical order
// (sorted OD pairs, float bit patterns), so two runs can be compared
// byte for byte — the chaos determinism tests hash this.
func (p *PhaseStats) AppendCanonical(buf []byte) []byte {
	var b [8]byte
	w64 := func(v uint64) {
		binary.BigEndian.PutUint64(b[:], v)
		buf = append(buf, b[:]...)
	}
	w64(math.Float64bits(p.Start))
	w64(math.Float64bits(p.End))
	keys := make([][2]graph.NodeID, 0, len(p.OfferedBytes))
	for k := range p.OfferedBytes {
		keys = append(keys, k)
	}
	for k := range p.DeliveredBytes {
		if _, ok := p.OfferedBytes[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, k := range keys {
		w64(uint64(k[0])<<32 | uint64(k[1]))
		w64(uint64(p.OfferedBytes[k]))
		w64(uint64(p.DeliveredBytes[k]))
	}
	for _, v := range p.LinkBytes {
		w64(uint64(v))
	}
	for _, v := range p.DropsByDst {
		w64(uint64(v))
	}
	return buf
}

// Emulator runs one configuration.
type Emulator struct {
	cfg Config
	g   *graph.Graph
	rng *rand.Rand

	now    float64
	seq    int
	events eventHeap

	linkUp   []bool
	linkFree []float64 // time the link's transmitter becomes free
	// capFrac is the lost capacity fraction per link (0 = full rate): a
	// degraded link serializes at (1-capFrac)·rate but stays up.
	capFrac []float64

	phases []*PhaseStats
	cur    *PhaseStats
	// odOffered and odDelivered count the current phase's bytes per OD
	// pair, indexed src·N+dst; closePhase moves them into cur's maps.
	odOffered, odDelivered []int64

	// RTT samples: (send time, rtt seconds).
	RTT [][2]float64

	// notifSeen[router] records which failed links the router has been
	// notified of (flood deduplication).
	notifSeen []graph.LinkSet
	// ctrlSeen[router] is the reliable flood's receive-side dedup:
	// highest sequence number processed per (failed link, origin) stream.
	ctrlSeen []map[ctrlStream]uint32
	// ctrlNext[router] is the per-failure send sequence counter.
	ctrlNext []map[graph.LinkID]uint32
	// CtrlBytes counts notification-flood bytes (control-plane overhead).
	CtrlBytes int64

	// Staged reconfiguration (staging.go): per-round deltas keyed by
	// transition sequence number, injection instants and reached-router
	// counts for outstanding rounds (gates the view-divergence invariant
	// during a rollout), per-router receive dedup and send counters for
	// the round flood, and the per-router applied set.
	stagedDeltas map[int]*mplsff.Delta
	stagedAt     map[int]float64
	stageCount   map[int]int
	stageSeen    []map[stageStream]uint32
	stageNext    []map[int]uint32
	stageApplied []map[int]bool
	obsStage     *obs.Counter

	maxHops int

	chaos *chaosState
	inv   *Invariants
	insp  ViewInspector // cfg.Forwarder, when it exposes per-router views
	trace traceRing

	refloodRounds int64

	// Metric handles; nil (no-op) when Config.Obs is nil.
	obsFwd, obsDrop, obsDeliv, obsCtrl *obs.Counter
	obsReflood                         *obs.Counter
	reconfigUS                         *obs.Histogram
	// Reconfiguration-latency tracking per failed link: failure instant
	// and, on the flood path, how many routers have been notified so far.
	failedAt map[graph.LinkID]float64
	notified map[graph.LinkID]int
	// reconfigTimes mirrors the reconfig_us histogram as raw seconds so
	// callers without a registry (the loss sweep) can read latencies.
	reconfigTimes []float64
}

// ctrlStream keys the reliable flood's sequence-number dedup.
type ctrlStream struct {
	e      graph.LinkID
	origin graph.NodeID
}

// New builds an emulator.
func New(cfg Config) *Emulator {
	cfg.defaults()
	em := &Emulator{
		cfg:     cfg,
		g:       cfg.G,
		rng:     rand.New(rand.NewSource(cfg.Seed + 99)),
		linkUp:  make([]bool, cfg.G.NumLinks()),
		maxHops: 4 * cfg.G.NumNodes(),
	}
	for i := range em.linkUp {
		em.linkUp[i] = true
	}
	em.linkFree = make([]float64, cfg.G.NumLinks())
	em.capFrac = make([]float64, cfg.G.NumLinks())
	em.odOffered = make([]int64, cfg.G.NumNodes()*cfg.G.NumNodes())
	em.odDelivered = make([]int64, cfg.G.NumNodes()*cfg.G.NumNodes())
	em.notifSeen = make([]graph.LinkSet, cfg.G.NumNodes())
	em.ctrlSeen = make([]map[ctrlStream]uint32, cfg.G.NumNodes())
	em.ctrlNext = make([]map[graph.LinkID]uint32, cfg.G.NumNodes())
	em.stagedDeltas = make(map[int]*mplsff.Delta)
	em.stagedAt = make(map[int]float64)
	em.stageCount = make(map[int]int)
	em.stageSeen = make([]map[stageStream]uint32, cfg.G.NumNodes())
	em.stageNext = make([]map[int]uint32, cfg.G.NumNodes())
	em.stageApplied = make([]map[int]bool, cfg.G.NumNodes())
	name := "fwd"
	if cfg.Forwarder != nil {
		name = cfg.Forwarder.Name()
	}
	prefix := "netem." + name + "."
	em.obsFwd = cfg.Obs.Counter(prefix + "forwarded")
	em.obsDrop = cfg.Obs.Counter(prefix + "dropped")
	em.obsDeliv = cfg.Obs.Counter(prefix + "delivered")
	em.obsCtrl = cfg.Obs.Counter(prefix + "ctrl_packets")
	em.obsStage = cfg.Obs.Counter("netem.stage_rounds")
	em.obsReflood = cfg.Obs.Counter("netem.reflood_rounds")
	// Emulated reconfiguration latencies range from sub-millisecond LAN
	// floods to multi-second OSPF timers: 1 µs .. ~67 s exponential grid.
	em.reconfigUS = cfg.Obs.Histogram("netem.reconfig_us", obs.ExpBounds(1, 2, 26))
	em.failedAt = make(map[graph.LinkID]float64)
	em.notified = make(map[graph.LinkID]int)
	if cfg.Chaos.Enabled {
		em.chaos = newChaosState(cfg.Chaos, cfg.Obs)
		for _, b := range cfg.Chaos.Bursts {
			b := b
			em.schedule(b.At, func() { em.burst(b) })
		}
	}
	em.insp, _ = cfg.Forwarder.(ViewInspector)
	em.inv = newInvariants(em)
	em.cur = em.newPhase(0)
	return em
}

func (em *Emulator) newPhase(start float64) *PhaseStats {
	p := &PhaseStats{
		Start:          start,
		DeliveredBytes: make(map[[2]graph.NodeID]int64),
		OfferedBytes:   make(map[[2]graph.NodeID]int64),
		LinkBytes:      make([]int64, em.g.NumLinks()),
		DropsByDst:     make([]int64, em.g.NumNodes()),
	}
	em.phases = append(em.phases, p)
	return p
}

// Phases returns the per-phase measurements (phase 0 = no failures,
// phase i = after the i-th injected failure event). The current phase's
// OfferedBytes and DeliveredBytes are filled in when it closes, at the
// latest when Run returns.
func (em *Emulator) Phases() []*PhaseStats { return em.phases }

// Now returns the current emulation time.
func (em *Emulator) Now() float64 { return em.now }

// Invariants returns the always-on invariant checker (its recorded
// violations in particular).
func (em *Emulator) Invariants() *Invariants { return em.inv }

// Violations returns the invariant violations recorded so far.
func (em *Emulator) Violations() []Violation { return em.inv.Violations() }

// FloodConverged reports whether every injected failure has completed
// reconfiguration (all routers notified on the flood path, ApplyFailure
// fired on the global path). Trivially true before any failure.
func (em *Emulator) FloodConverged() bool { return len(em.failedAt) == 0 }

// ReconfigTimes returns the failure→converged latencies (seconds)
// observed so far, one per failed directed link, in convergence order.
func (em *Emulator) ReconfigTimes() []float64 { return em.reconfigTimes }

// RefloodRoundsFired counts reliable-flood retransmission rounds fired.
func (em *Emulator) RefloodRoundsFired() int64 { return em.refloodRounds }

// Fingerprint digests the run's externally visible output — every phase's
// canonical bytes, the control-plane byte count and the RTT samples —
// into one value. Two runs with identical (Seed, Chaos.Seed) must agree.
func (em *Emulator) Fingerprint() uint64 {
	h := fnv.New64a()
	var buf []byte
	for _, p := range em.phases {
		buf = p.AppendCanonical(buf[:0])
		h.Write(buf)
	}
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(em.CtrlBytes))
	h.Write(b[:])
	for _, s := range em.RTT {
		binary.BigEndian.PutUint64(b[:], math.Float64bits(s[0]))
		h.Write(b[:])
		binary.BigEndian.PutUint64(b[:], math.Float64bits(s[1]))
		h.Write(b[:])
	}
	return h.Sum64()
}

func (em *Emulator) schedule(at float64, fn func()) {
	em.seq++
	em.events.push(event{at: at, seq: em.seq, fn: fn})
}

// scheduleHop schedules pk's arrival over link out after hops prior hops.
func (em *Emulator) scheduleHop(at float64, pk *Packet, out graph.LinkID, hops int) {
	em.seq++
	em.events.push(event{at: at, seq: em.seq, pk: pk, out: out, hops: int32(hops)})
}

// odIndex is pair (a, b)'s slot in the dense OD counters.
func (em *Emulator) odIndex(a, b graph.NodeID) int { return int(a)*em.g.NumNodes() + int(b) }

// AddCBRTraffic installs FlowsPerPair Poisson packet flows from a to b at
// the given aggregate rate (bytes/sec), generating until stop.
func (em *Emulator) AddCBRTraffic(a, b graph.NodeID, bytesPerSec float64, stop float64) {
	if bytesPerSec <= 0 || a == b {
		return
	}
	perFlow := bytesPerSec / float64(em.cfg.FlowsPerPair)
	od := em.odIndex(a, b)
	for i := 0; i < em.cfg.FlowsPerPair; i++ {
		flow := mplsff.FlowKey{
			SrcIP:   uint32(a)<<8 | 10,
			DstIP:   uint32(b)<<8 | 10,
			SrcPort: uint16(1024 + i),
			DstPort: 80,
		}
		mean := float64(em.cfg.PacketBytes) / perFlow
		var gen func()
		gen = func() {
			if em.now >= stop {
				return
			}
			pk := &Packet{Flow: flow, Src: a, Dst: b, Size: em.cfg.PacketBytes, SentAt: em.now}
			em.odOffered[od] += int64(pk.Size)
			em.forward(a, pk, 0)
			em.schedule(em.now+em.rng.ExpFloat64()*mean, gen)
		}
		em.schedule(em.rng.Float64()*mean, gen)
	}
}

// AddPing installs an RTT probe: a small packet from a to b every
// interval; the echo is recorded in RTT.
func (em *Emulator) AddPing(a, b graph.NodeID, interval, stop float64) {
	flow := mplsff.FlowKey{SrcIP: uint32(a)<<8 | 1, DstIP: uint32(b)<<8 | 1, SrcPort: 7, DstPort: 7}
	var gen func()
	gen = func() {
		if em.now >= stop {
			return
		}
		pk := &Packet{Flow: flow, Src: a, Dst: b, Size: 64, SentAt: em.now, Ping: true}
		em.forward(a, pk, 0)
		em.schedule(em.now+interval, gen)
	}
	em.schedule(0, gen)
}

// MarkPhaseAt schedules a measurement-phase boundary at time t without
// any other effect, so runs whose reconfiguration events fall at
// different instants can still be compared over an identical measurement
// grid (the staged-vs-one-shot transient comparison).
func (em *Emulator) MarkPhaseAt(t float64) {
	em.schedule(t, func() {
		em.closePhase(em.now)
		em.cur = em.newPhase(em.now)
	})
}

// FailAt schedules a bidirectional link failure: the data plane drops the
// link immediately. For FloodAware forwarders the adjacent routers detect
// it after DetectDelay and flood notification packets, with every router
// reconfiguring as its notification arrives; for others, a global
// ApplyFailure fires after DetectDelay + ConvergeDelay. A new measurement
// phase starts at the failure instant.
func (em *Emulator) FailAt(t float64, e graph.LinkID) {
	em.schedule(t, func() {
		ids := []graph.LinkID{e}
		if rev := em.g.Link(e).Reverse; rev >= 0 {
			ids = append(ids, rev)
		}
		em.failNow(ids)
	})
}

// DegradeAt schedules a bidirectional partial capacity loss: from t on,
// link e and its reverse serialize at (1-frac) of their configured rate
// but stay up — no blackholing, no detection, no notification flood (the
// flow-level reaction to degradation is exercised in core/eval; the
// emulator measures what a degraded data plane delivers). A measurement
// phase boundary is placed at t, so per-phase counters are judged against
// the capacity in force while they accumulated. A repeat call replaces
// the link's lost fraction (frac may shrink: partial recovery).
//
// frac <= 0 is a complete no-op — nothing is scheduled, not even the
// phase boundary, so a run stays byte-identical to one without the call.
// frac >= 1 is a full loss and delegates to FailAt, making the α=0 limit
// of the degradation envelope exactly the hard-failure emulation.
func (em *Emulator) DegradeAt(t float64, e graph.LinkID, frac float64) {
	if frac <= 0 || math.IsNaN(frac) {
		return
	}
	if frac >= 1 {
		em.FailAt(t, e)
		return
	}
	em.schedule(t, func() {
		ids := []graph.LinkID{e}
		if rev := em.g.Link(e).Reverse; rev >= 0 {
			ids = append(ids, rev)
		}
		em.closePhase(em.now)
		em.cur = em.newPhase(em.now)
		for _, id := range ids {
			em.capFrac[id] = frac
			em.trace.add(em.now, traceDegrade, int32(id), -1)
		}
	})
}

// DegradedFrac returns link e's current lost capacity fraction.
func (em *Emulator) DegradedFrac(e graph.LinkID) float64 { return em.capFrac[e] }

// rateBytes is link out's current serialization rate in bytes/sec:
// configured capacity (Mbps) scaled by any degradation in force.
func (em *Emulator) rateBytes(out graph.LinkID) float64 {
	r := em.g.Link(out).Capacity * 1e6 / 8
	if f := em.capFrac[out]; f > 0 {
		r *= 1 - f
	}
	return r
}

// failNow takes a set of directed links down at the current instant as
// one correlated event: one phase boundary, then detection and
// notification per link. FailAt routes single duplex failures here;
// chaos bursts pass several links at once.
func (em *Emulator) failNow(ids []graph.LinkID) {
	for _, id := range ids {
		em.linkUp[id] = false
		em.failedAt[id] = em.now
		em.trace.add(em.now, traceFail, int32(id), -1)
	}
	em.closePhase(em.now)
	em.cur = em.newPhase(em.now)
	if fa, ok := em.cfg.Forwarder.(FloodAware); ok {
		if ch := em.chaos; ch != nil && ch.cfg.DetectJitter > 0 {
			// Each adjacent router detects independently: layer-2
			// monitoring timers are not synchronized across routers.
			for _, id := range ids {
				l := em.g.Link(id)
				for _, end := range [2]graph.NodeID{l.Src, l.Dst} {
					end, id := end, id
					at := em.now + em.cfg.DetectDelay + ch.rng.Float64()*ch.cfg.DetectJitter
					em.schedule(at, func() { em.notify(fa, end, id) })
				}
			}
			return
		}
		em.schedule(em.now+em.cfg.DetectDelay, func() {
			for _, id := range ids {
				l := em.g.Link(id)
				// Both endpoints detect via layer-2 monitoring and
				// originate the flood.
				em.notify(fa, l.Src, id)
				em.notify(fa, l.Dst, id)
			}
		})
		return
	}
	delay := em.cfg.DetectDelay + em.cfg.ConvergeDelay
	em.schedule(em.now+delay, func() {
		for _, id := range ids {
			em.cfg.Forwarder.ApplyFailure(id)
			if t, ok := em.failedAt[id]; ok {
				em.observeReconfig(em.now - t)
				delete(em.failedAt, id)
			}
		}
		if len(em.failedAt) == 0 {
			em.inv.checkConverged()
		}
	})
}

// burst fails b.Links randomly chosen alive duplex links simultaneously
// (a correlated multi-failure event — shared conduits, power domains).
func (em *Emulator) burst(b ChaosBurst) {
	ch := em.chaos
	var candidates []graph.LinkID
	for id := 0; id < em.g.NumLinks(); id++ {
		lid := graph.LinkID(id)
		if !em.linkUp[lid] {
			continue
		}
		if rev := em.g.Link(lid).Reverse; rev >= 0 && rev < lid {
			continue // canonical direction only
		}
		candidates = append(candidates, lid)
	}
	if len(candidates) == 0 || b.Links <= 0 {
		return
	}
	n := b.Links
	if n > len(candidates) {
		n = len(candidates)
	}
	perm := ch.rng.Perm(len(candidates))
	var ids []graph.LinkID
	for _, pi := range perm[:n] {
		id := candidates[pi]
		ids = append(ids, id)
		if rev := em.g.Link(id).Reverse; rev >= 0 {
			ids = append(ids, rev)
		}
	}
	em.trace.add(em.now, traceBurst, int32(len(ids)), -1)
	em.failNow(ids)
}

// observeReconfig records one failure→converged latency.
func (em *Emulator) observeReconfig(dt float64) {
	em.reconfigUS.Observe(int64(dt * 1e6))
	em.reconfigTimes = append(em.reconfigTimes, dt)
}

// closePhase ends the current phase at t and runs the per-phase
// invariants (Theorem 2: delivered load never exceeds capacity).
func (em *Emulator) closePhase(t float64) {
	em.cur.End = t
	em.flushOD()
	em.inv.checkPhaseCapacity(em.cur)
}

// flushOD adds the dense OD counters to the current phase's maps and
// zeroes them. Every counted data packet has Size cfg.PacketBytes, which is
// never 0, so a counter is nonzero exactly when a packet of its pair was
// counted: a pair enters a map exactly when it did before.
func (em *Emulator) flushOD() {
	n := em.g.NumNodes()
	for i, b := range em.odOffered {
		if b != 0 {
			em.cur.OfferedBytes[[2]graph.NodeID{graph.NodeID(i / n), graph.NodeID(i % n)}] += b
			em.odOffered[i] = 0
		}
	}
	for i, b := range em.odDelivered {
		if b != 0 {
			em.cur.DeliveredBytes[[2]graph.NodeID{graph.NodeID(i / n), graph.NodeID(i % n)}] += b
			em.odDelivered[i] = 0
		}
	}
}

// notify delivers a failure notification to router u. The first time u
// hears of e it reconfigures (OnNotification), relays the flood on every
// alive outgoing link, and — when RefloodRounds > 0 — schedules periodic
// sequence-numbered re-announcements so neighbors behind lossy links
// still learn of e.
func (em *Emulator) notify(fa FloodAware, u graph.NodeID, e graph.LinkID) {
	if em.notifSeen[u].Contains(e) {
		return
	}
	em.notifSeen[u].Add(e)
	em.trace.add(em.now, traceNotify, int32(e), int32(u))
	fa.OnNotification(u, e)
	if t, ok := em.failedAt[e]; ok {
		em.notified[e]++
		// Convergence on the flood path: the last router has reconfigured.
		if em.notified[e] == em.g.NumNodes() {
			em.observeReconfig(em.now - t)
			delete(em.failedAt, e)
			delete(em.notified, e)
			if len(em.failedAt) == 0 {
				em.inv.checkConverged()
			}
		}
	}
	em.floodOut(fa, u, e)
	for i := 1; i <= em.cfg.RefloodRounds; i++ {
		em.schedule(em.now+float64(i)*em.cfg.RefloodInterval, func() {
			em.refloodRounds++
			em.obsReflood.Inc()
			em.floodOut(fa, u, e)
		})
	}
}

// floodOut announces failure e from router u on every alive outgoing
// link, stamped with u's next sequence number for e.
func (em *Emulator) floodOut(fa FloodAware, u graph.NodeID, e graph.LinkID) {
	if em.ctrlNext[u] == nil {
		em.ctrlNext[u] = make(map[graph.LinkID]uint32)
	}
	seq := em.ctrlNext[u][e]
	em.ctrlNext[u][e] = seq + 1
	for _, id := range em.g.Out(u) {
		if !em.linkUp[id] {
			continue
		}
		pk := &Packet{Size: 64, SentAt: em.now, Ctrl: true, FailedLink: e, CtrlOrigin: u, CtrlSeq: seq}
		em.transmitCtrl(fa, id, pk)
	}
}

// receiveCtrl processes an arriving control packet: staged-round
// announcements branch to the staging path, failure notifications go
// through sequence-numbered dedup per (failure, origin) stream, then the
// learn/relay path.
func (em *Emulator) receiveCtrl(fwd Forwarder, u graph.NodeID, pk *Packet) {
	if pk.StageSeq > 0 {
		em.receiveStage(u, pk)
		return
	}
	fa, ok := fwd.(FloodAware)
	if !ok {
		return
	}
	key := ctrlStream{e: pk.FailedLink, origin: pk.CtrlOrigin}
	if last, ok := em.ctrlSeen[u][key]; ok && pk.CtrlSeq <= last {
		return
	}
	if em.ctrlSeen[u] == nil {
		em.ctrlSeen[u] = make(map[ctrlStream]uint32)
	}
	em.ctrlSeen[u][key] = pk.CtrlSeq
	em.notify(fa, u, pk.FailedLink)
}

// transmitCtrl sends a control packet over one link, sharing the data
// plane's serialization and propagation model. Chaos may lose, duplicate
// or delay the packet in flight.
func (em *Emulator) transmitCtrl(fwd Forwarder, out graph.LinkID, pk *Packet) {
	link := em.g.Link(out)
	rateBytes := em.rateBytes(out)
	start := em.linkFree[out]
	if start < em.now {
		start = em.now
	}
	depart := start + float64(pk.Size)/rateBytes
	em.linkFree[out] = depart
	em.CtrlBytes += int64(pk.Size)
	em.obsCtrl.Inc()
	arrive := depart + link.Delay/1000
	deliver := func() {
		if !em.linkUp[out] {
			return
		}
		em.receiveCtrl(fwd, link.Dst, pk)
	}
	if ch := em.chaos; ch != nil {
		if ch.cfg.CtrlDrop > 0 && ch.rng.Float64() < ch.cfg.CtrlDrop {
			ch.droppedCtrl.Inc()
			em.trace.add(em.now, traceChaosDropCtrl, int32(out), int32(pk.FailedLink))
			return
		}
		if ch.cfg.CtrlDup > 0 && ch.rng.Float64() < ch.cfg.CtrlDup {
			ch.duplicated.Inc()
			em.trace.add(em.now, traceChaosDup, int32(out), int32(pk.FailedLink))
			em.schedule(ch.jitter(arrive, ch.cfg.CtrlJitter), deliver)
		}
		arrive = ch.jitter(arrive, ch.cfg.CtrlJitter)
	}
	em.schedule(arrive, deliver)
}

// forward routes pk at node u after hops prior hops.
func (em *Emulator) forward(u graph.NodeID, pk *Packet, hops int) {
	if u == pk.Dst {
		em.deliver(u, pk)
		return
	}
	if hops > em.maxHops {
		em.drop(pk)
		return
	}
	out, ok := em.cfg.Forwarder.Forward(u, pk)
	if !ok {
		em.drop(pk)
		return
	}
	em.inv.checkForward(u, out, pk)
	if !em.linkUp[out] {
		// Blackhole window: the data plane link is down but the control
		// plane has not yet reacted.
		em.drop(pk)
		return
	}
	link := em.g.Link(out)
	rateBytes := em.rateBytes(out) // capacity is Mbps
	backlog := (em.linkFree[out] - em.now) * rateBytes
	if backlog > float64(em.cfg.QueueBytes) {
		em.drop(pk)
		return
	}
	em.inv.checkTx(out)
	start := em.linkFree[out]
	if start < em.now {
		start = em.now
	}
	depart := start + float64(pk.Size)/rateBytes
	em.linkFree[out] = depart
	em.cur.LinkBytes[out] += int64(pk.Size)
	em.obsFwd.Inc()
	arrive := depart + link.Delay/1000
	if ch := em.chaos; ch != nil {
		if ch.cfg.DataDrop > 0 && ch.rng.Float64() < ch.cfg.DataDrop {
			ch.droppedData.Inc()
			em.trace.add(em.now, traceChaosDropData, int32(out), -1)
			em.drop(pk)
			return
		}
		if ch.cfg.DataDup > 0 && ch.rng.Float64() < ch.cfg.DataDup {
			ch.duplicated.Inc()
			dup := *pk
			dup.Stack = append([]mplsff.Label(nil), pk.Stack...)
			em.scheduleHop(ch.jitter(arrive, ch.cfg.DataJitter), &dup, out, hops)
		}
		arrive = ch.jitter(arrive, ch.cfg.DataJitter)
	}
	em.scheduleHop(arrive, pk, out, hops)
}

// arrive hands pk, which crossed link out after hops prior hops, to the
// link's far end.
func (em *Emulator) arrive(pk *Packet, out graph.LinkID, hops int) {
	if !em.linkUp[out] {
		// The link died while the packet was in flight.
		em.drop(pk)
		return
	}
	em.forward(em.g.Link(out).Dst, pk, hops+1)
}

func (em *Emulator) deliver(u graph.NodeID, pk *Packet) {
	if pk.Ping {
		if pk.Return {
			em.RTT = append(em.RTT, [2]float64{pk.SentAt, em.now - pk.SentAt})
			return
		}
		// Echo back.
		echo := &Packet{
			Flow: mplsff.FlowKey{SrcIP: pk.Flow.DstIP, DstIP: pk.Flow.SrcIP, SrcPort: pk.Flow.DstPort, DstPort: pk.Flow.SrcPort},
			Src:  pk.Dst, Dst: pk.Src, Size: pk.Size,
			SentAt: pk.SentAt, Ping: true, Return: true,
		}
		em.forward(u, echo, 0)
		return
	}
	em.odDelivered[em.odIndex(pk.Src, pk.Dst)] += int64(pk.Size)
	em.obsDeliv.Inc()
}

func (em *Emulator) drop(pk *Packet) {
	if pk.Ping {
		return
	}
	em.cur.DropsByDst[pk.Dst] += int64(pk.Size)
	em.obsDrop.Inc()
}

// Run processes events until the given time (events beyond it stay
// queued).
func (em *Emulator) Run(until float64) {
	for len(em.events) > 0 {
		if em.events[0].at > until {
			break
		}
		ev := em.events.pop()
		em.now = ev.at
		if ev.fn != nil {
			ev.fn()
		} else {
			em.arrive(ev.pk, ev.out, int(ev.hops))
		}
	}
	em.now = until
	em.closePhase(until)
}
