// Package netem is a discrete-event packet-level network emulator
// standing in for the paper's Emulab testbed: links with finite rate,
// propagation delay and drop-tail buffering; CBR/Poisson flow generators
// driven by a traffic matrix; link-failure injection with detection and
// reconvergence delays; and per-phase measurement of OD throughput, link
// intensity, egress loss and ping RTT — everything Figures 11–13 need.
//
// Two robustness layers sit on top of the basic emulation: a seeded
// chaos mode (chaos.go) that adversarially drops, duplicates, reorders
// and delays failure notifications, and an
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
	// FailedLink is the link a failure-notification packet (the ICMP
	// type-42 flood of §4.3) announces is down.
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
	// e.g. label stack operations). ok=false drops the packet. pk lives
	// in a slot the emulator reuses once the packet is delivered or
	// dropped, so Forward may use pk, its Stack included, only during
	// the call and must keep no reference to either.
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

// slots is a growable array of reusable items: get hands out a released
// index before it grows the array, and put releases one.
type slots[T any] struct {
	items []T
	free  []int32
}

func (p *slots[T]) get() int32 {
	if n := len(p.free); n > 0 {
		i := p.free[n-1]
		p.free = p.free[:n-1]
		return i
	}
	var zero T
	p.items = append(p.items, zero)
	return int32(len(p.items) - 1)
}

func (p *slots[T]) put(i int32) { p.free = append(p.free, i) }

// packetSlot holds a data, ping or echo packet and the hop count of its
// one pending arrival. The emulator releases the slot when the packet is
// delivered or dropped, and the next packet keeps the slot's label-stack
// storage.
type packetSlot struct {
	pk   Packet
	hops int
}

// Config parameterizes an emulation run.
type Config struct {
	G         *graph.Graph
	Forwarder Forwarder
	// ConvergeDelay is the additional time until ApplyFailure is invoked
	// (0 for R3's local activation; seconds for OSPF reconvergence).
	ConvergeDelay float64
	// Seed drives packet arrival jitter.
	Seed int64
	// Chaos, when Enabled, layers seeded fault injection over the run:
	// control packet drop, duplication and reordering (see ChaosConfig).
	Chaos ChaosConfig
	// refloodRounds is how many times each router that knows of a failure
	// re-announces it to its neighbors (sequence-numbered, spaced
	// refloodInterval apart) — the reliable flood that survives lossy
	// control channels. 0 defaults to 8 rounds when chaos is enabled and
	// to the classic fire-once flood otherwise; the package's tests set a
	// negative value to force fire-once under chaos.
	refloodRounds int
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

// The emulated network's fixed parameters.
const (
	packetBytes     = 1500      // data packet size
	queueBytes      = 128 << 10 // per-link drop-tail buffer
	detectDelay     = 0.010     // failure to adjacent-router detection, seconds
	flowsPerPair    = 8         // hashed flows carrying each OD pair's traffic
	refloodInterval = 0.050     // spacing of re-flood rounds, seconds
)

func (c *Config) defaults() {
	if c.refloodRounds == 0 && c.Chaos.Enabled {
		c.refloodRounds = 8
	}
	if c.refloodRounds < 0 {
		c.refloodRounds = 0
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
	seq    uint64
	events eventQueue
	// packets and calls are the slots events name: the packets in flight
	// and the scheduled callbacks. gens are the flow generators, each
	// with at most one next packet queued.
	packets slots[packetSlot]
	calls   slots[func()]
	gens    []func(g int)

	linkUp   []bool
	linkFree []float64 // time the link's transmitter becomes free

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
	em.events = newEventQueue(cfg.G.NumLinks())
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

// next is the event ref at time at, after every event queued so far for
// the same time.
func (em *Emulator) next(at float64, ref int32) event {
	em.seq++
	return event{at: timeKey(at), seq: em.seq, ref: ref}
}

func (em *Emulator) schedule(at float64, fn func()) {
	c := em.calls.get()
	em.calls.items[c] = fn
	em.events.pushCall(em.next(at, c))
}

// generator adds a flow generator, called with its own number g, and
// schedules its first call at time at. A call schedules the next with
// scheduleGen, or ends the flow by scheduling none.
func (em *Emulator) generator(at float64, gen func(g int)) {
	em.gens = append(em.gens, gen)
	em.scheduleGen(len(em.gens)-1, at)
}

// scheduleGen schedules generator g's next call.
func (em *Emulator) scheduleGen(g int, at float64) {
	em.events.pushGen(g, em.next(at, 0))
}

// scheduleHop schedules the arrival of packet slot i over link out after
// hops prior hops.
func (em *Emulator) scheduleHop(at float64, i int32, out graph.LinkID, hops int) {
	em.packets.items[i].hops = hops
	if !em.events.pushHop(int(out), em.next(at, i)) {
		// The link's arrivals would leave (at, seq) order, which the
		// queue's merge relies on: report it and drop the packet.
		em.inv.fail("hop-order", "arrival over link %d at %v precedes the link's last queued arrival", out, at)
		em.drop(i)
	}
}

// send puts a new packet in a free packet slot, with the slot's
// label-stack storage, and forwards it from its source.
func (em *Emulator) send(flow mplsff.FlowKey, src, dst graph.NodeID, size int, ping bool) {
	i := em.packets.get()
	pk := &em.packets.items[i].pk
	stack := pk.Stack[:0]
	*pk = Packet{Flow: flow, Src: src, Dst: dst, Size: size, Stack: stack, SentAt: em.now, Ping: ping}
	em.forward(src, i, 0)
}

// odIndex is pair (a, b)'s slot in the dense OD counters.
func (em *Emulator) odIndex(a, b graph.NodeID) int { return int(a)*em.g.NumNodes() + int(b) }

// AddCBRTraffic installs flowsPerPair Poisson packet flows from a to b at
// the given aggregate rate (bytes/sec), generating until stop.
func (em *Emulator) AddCBRTraffic(a, b graph.NodeID, bytesPerSec float64, stop float64) {
	if bytesPerSec <= 0 || a == b {
		return
	}
	perFlow := bytesPerSec / flowsPerPair
	od := em.odIndex(a, b)
	for i := 0; i < flowsPerPair; i++ {
		flow := mplsff.FlowKey{
			SrcIP:   uint32(a)<<8 | 10,
			DstIP:   uint32(b)<<8 | 10,
			SrcPort: uint16(1024 + i),
			DstPort: 80,
		}
		mean := packetBytes / perFlow
		em.generator(em.rng.Float64()*mean, func(g int) {
			if em.now >= stop {
				return
			}
			em.odOffered[od] += packetBytes
			em.send(flow, a, b, packetBytes, false)
			em.scheduleGen(g, em.now+em.rng.ExpFloat64()*mean)
		})
	}
}

// AddPing installs an RTT probe: a small packet from a to b every
// interval; the echo is recorded in RTT.
func (em *Emulator) AddPing(a, b graph.NodeID, interval, stop float64) {
	flow := mplsff.FlowKey{SrcIP: uint32(a)<<8 | 1, DstIP: uint32(b)<<8 | 1, SrcPort: 7, DstPort: 7}
	em.generator(0, func(g int) {
		if em.now >= stop {
			return
		}
		em.send(flow, a, b, 64, true)
		em.scheduleGen(g, em.now+interval)
	})
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
// it after detectDelay and flood notification packets, with every router
// reconfiguring as its notification arrives; for others, a global
// ApplyFailure fires after detectDelay + ConvergeDelay. A new measurement
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

// rateBytes is link out's serialization rate in bytes/sec (capacity is
// Mbps).
func (em *Emulator) rateBytes(out graph.LinkID) float64 {
	return em.g.Link(out).Capacity * 1e6 / 8
}

// failNow takes a set of directed links down at the current instant as
// one correlated event: one phase boundary, then detection and
// notification per link. FailAt routes each duplex failure here.
func (em *Emulator) failNow(ids []graph.LinkID) {
	for _, id := range ids {
		em.linkUp[id] = false
		em.failedAt[id] = em.now
		em.trace.add(em.now, traceFail, int32(id), -1)
	}
	em.closePhase(em.now)
	em.cur = em.newPhase(em.now)
	if fa, ok := em.cfg.Forwarder.(FloodAware); ok {
		if ch := em.chaos; ch != nil && ch.cfg.detectJitter > 0 {
			// Each adjacent router detects independently: layer-2
			// monitoring timers are not synchronized across routers.
			for _, id := range ids {
				l := em.g.Link(id)
				for _, end := range [2]graph.NodeID{l.Src, l.Dst} {
					end, id := end, id
					at := em.now + detectDelay + ch.rng.Float64()*ch.cfg.detectJitter
					em.schedule(at, func() { em.notify(fa, end, id) })
				}
			}
			return
		}
		em.schedule(em.now+detectDelay, func() {
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
	delay := detectDelay + em.cfg.ConvergeDelay
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
// zeroes them. Every counted data packet has Size packetBytes, which is
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
// alive outgoing link, and — when refloodRounds > 0 — schedules periodic
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
	for i := 1; i <= em.cfg.refloodRounds; i++ {
		em.schedule(em.now+float64(i)*refloodInterval, func() {
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
		pk := &Packet{Size: 64, SentAt: em.now, FailedLink: e, CtrlOrigin: u, CtrlSeq: seq}
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

// forward routes the packet in slot i at node u after hops prior hops.
func (em *Emulator) forward(u graph.NodeID, i int32, hops int) {
	pk := &em.packets.items[i].pk
	if u == pk.Dst {
		em.deliver(u, i)
		return
	}
	if hops > em.maxHops {
		em.drop(i)
		return
	}
	out, ok := em.cfg.Forwarder.Forward(u, pk)
	if !ok {
		em.drop(i)
		return
	}
	em.inv.checkForward(u, out, pk)
	if !em.linkUp[out] {
		// Blackhole window: the data plane link is down but the control
		// plane has not yet reacted.
		em.drop(i)
		return
	}
	link := em.g.Link(out)
	rateBytes := em.rateBytes(out) // capacity is Mbps
	backlog := (em.linkFree[out] - em.now) * rateBytes
	if backlog > queueBytes {
		em.drop(i)
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
	if ch := em.chaos; ch != nil && ch.cfg.dataDrop > 0 && ch.rng.Float64() < ch.cfg.dataDrop {
		ch.droppedData.Inc()
		em.trace.add(em.now, traceChaosDropData, int32(out), -1)
		em.drop(i)
		return
	}
	em.scheduleHop(depart+link.Delay/1000, i, out, hops)
}

// arrive hands the packet in slot i to the far end of link out.
func (em *Emulator) arrive(out graph.LinkID, i int32) {
	if !em.linkUp[out] {
		// The link died while the packet was in flight.
		em.drop(i)
		return
	}
	em.forward(em.g.Link(out).Dst, i, em.packets.items[i].hops+1)
}

// deliver ends the packet in slot i at its destination u. A ping turns
// into its echo in the same slot.
func (em *Emulator) deliver(u graph.NodeID, i int32) {
	pk := &em.packets.items[i].pk
	if pk.Ping {
		if pk.Return {
			em.RTT = append(em.RTT, [2]float64{pk.SentAt, em.now - pk.SentAt})
			em.packets.put(i)
			return
		}
		f := pk.Flow
		pk.Flow = mplsff.FlowKey{SrcIP: f.DstIP, DstIP: f.SrcIP, SrcPort: f.DstPort, DstPort: f.SrcPort}
		pk.Src, pk.Dst = pk.Dst, pk.Src
		pk.Stack = pk.Stack[:0]
		pk.Return = true
		em.forward(u, i, 0)
		return
	}
	em.odDelivered[em.odIndex(pk.Src, pk.Dst)] += int64(pk.Size)
	em.obsDeliv.Inc()
	em.packets.put(i)
}

// drop ends the packet in slot i short of its destination.
func (em *Emulator) drop(i int32) {
	if pk := &em.packets.items[i].pk; !pk.Ping {
		em.cur.DropsByDst[pk.Dst] += int64(pk.Size)
		em.obsDrop.Inc()
	}
	em.packets.put(i)
}

// Run processes events until the given time (events beyond it stay
// queued).
func (em *Emulator) Run(until float64) {
	end := timeKey(until)
	for {
		ev, from, src, ok := em.events.pop(end)
		if !ok {
			break
		}
		em.now = keyTime(ev.at)
		switch from {
		case fromHop:
			em.arrive(graph.LinkID(src), ev.ref)
			continue
		case fromGen:
			em.gens[src](src)
			continue
		}
		c := ev.ref
		fn := em.calls.items[c]
		em.calls.items[c] = nil
		em.calls.put(c)
		fn()
	}
	em.now = until
	em.closePhase(until)
}
