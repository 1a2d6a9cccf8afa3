package netem

import (
	"container/heap"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/graph"
	"repro/internal/transition"
)

// refEvent is an event as the oracle holds it: its time as a float.
type refEvent struct {
	at  float64
	seq uint64
	ref int32
}

// refHeap is the oracle: a binary container/heap queue under the float
// (at, seq) order.
type refHeap []refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// TestEventHeapMatchesContainerHeap drives the typed 4-ary heap and the
// container/heap oracle through the same random interleavings of pushes
// and pops — few distinct times, so most events tie on at and are ordered
// by seq alone; negative times, -0 and +0 among them; seq drawn out of
// push order; pops down to empty — and requires the same (at, seq)
// sequence from both, each event carrying the ref it was pushed with: a
// packet slot for an even seq, a callback slot for an odd one. Every
// popped key must map back to its time. Then the oracle drives the
// emulator's whole queue (mergedQueueTrial).
func TestEventHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	refOf := func(seq uint64) int32 {
		if seq%2 == 0 {
			return int32(seq / 2)
		}
		return ^int32(seq / 2)
	}
	times := []float64{math.Inf(-1), -3, -1e-300, math.Copysign(0, -1), 0, 1e-300, 0.25, 0.5, 1, 1e9, math.Inf(1)}
	for trial := 0; trial < 300; trial++ {
		var h eventHeap
		var ref refHeap
		perm := rng.Perm(1000)
		levels := 1 + rng.Intn(6)
		lo := rng.Intn(len(times) - levels + 1)
		pushes := 1 + rng.Intn(len(perm))
		check := func() {
			t.Helper()
			got, want := h.pop(), heap.Pop(&ref).(refEvent)
			if at := keyTime(got.at); at != want.at || got.seq != want.seq {
				t.Fatalf("trial %d: pop (%v, %d), container/heap (%v, %d)", trial, at, got.seq, want.at, want.seq)
			}
			if got.ref != want.ref {
				t.Fatalf("trial %d: (%v, %d) popped with ref %d, pushed with %d", trial, want.at, got.seq, got.ref, want.ref)
			}
		}
		for _, p := range perm[:pushes] {
			for len(h) > 0 && rng.Intn(3) == 0 {
				check()
			}
			seq := uint64(p)
			at := times[lo+rng.Intn(levels)]
			h.push(event{at: timeKey(at), seq: seq, ref: refOf(seq)})
			heap.Push(&ref, refEvent{at: at, seq: seq, ref: refOf(seq)})
		}
		for len(h) > 0 {
			check()
		}
		if ref.Len() != 0 {
			t.Fatalf("trial %d: typed heap empty, container/heap holds %d", trial, ref.Len())
		}
	}
	for trial := 0; trial < 300; trial++ {
		mergedQueueTrial(t, rng, trial, times)
	}
	for _, at := range times {
		if got := keyTime(timeKey(at)); got != at || (at != 0 && math.Float64bits(got) != math.Float64bits(at)) {
			t.Errorf("keyTime(timeKey(%v)) = %v", at, got)
		}
	}
	if timeKey(math.Copysign(0, -1)) != timeKey(0) {
		t.Errorf("-0 and +0 have different keys")
	}
}

// pushed is what the merged-queue trial queued under one seq: its front
// and source, and for an arrival its packet slot.
type pushed struct {
	from, src int
	slot      int32
}

// mergedQueueTrial drives an eventQueue and the container/heap oracle
// through one random interleaving of pops and the emulator's three kinds
// of push, seq rising as the emulator's does: callbacks at any of the
// trial's times; arrivals on a few links, each link's in (at, seq) order
// (ties on at, -0 after +0 and the reverse among them) and free to start
// anywhere again once the link drains; and generators with at most one
// event each, which a popped generator queues again at once, later, or
// never, as a flow that ends. The queue must pop the oracle's (at, seq)
// sequence, each event from the front and source it was pushed to; it
// must refuse an arrival before its link's last one and queue nothing
// then; and pop must leave an event that is not yet due in place.
func mergedQueueTrial(t *testing.T, rng *rand.Rand, trial int, times []float64) {
	t.Helper()
	links, gens := 1+rng.Intn(5), 1+rng.Intn(6)
	q := newEventQueue(links)
	var oracle refHeap
	sent := map[uint64]pushed{}
	lastAt := make([]float64, links)
	idleGen := make([]bool, gens)
	levels := 1 + rng.Intn(6)
	lo := rng.Intn(len(times) - levels + 1)
	var seq uint64
	push := func(at float64, from, src int, slot int32) event {
		seq++
		ev := event{at: timeKey(at), seq: seq, ref: slot}
		heap.Push(&oracle, refEvent{at: at, seq: seq})
		sent[seq] = pushed{from, src, slot}
		return ev
	}
	for g := range gens {
		q.pushGen(g, push(times[lo+rng.Intn(levels)], fromGen, g, 0))
	}
	pop := func() {
		t.Helper()
		want := heap.Pop(&oracle).(refEvent)
		if rng.Intn(4) == 0 && !math.IsInf(want.at, 0) {
			// An end before the first event's time: nothing is due.
			if _, _, _, ok := q.pop(timeKey(math.Nextafter(want.at, math.Inf(-1)))); ok {
				t.Fatalf("trial %d: popped an event before (%v, %d) was due", trial, want.at, want.seq)
			}
		}
		got, from, src, ok := q.pop(timeKey(math.Inf(1)))
		if !ok {
			t.Fatalf("trial %d: queue empty, oracle pops (%v, %d)", trial, want.at, want.seq)
		}
		if at := keyTime(got.at); at != want.at || got.seq != want.seq {
			t.Fatalf("trial %d: pop (%v, %d), container/heap (%v, %d)", trial, at, got.seq, want.at, want.seq)
		}
		p := sent[got.seq]
		if from != p.from || (from != fromCall && src != p.src) || (from == fromHop && got.ref != p.slot) {
			t.Fatalf("trial %d: seq %d popped from front %d source %d slot %d, pushed to %d, %d, %d",
				trial, got.seq, from, src, got.ref, p.from, p.src, p.slot)
		}
		if from == fromGen {
			// The generator queues its next event at once, or stays
			// idle until the loop below starts it again, if ever.
			if rng.Intn(2) == 0 {
				q.pushGen(src, push(times[lo+rng.Intn(levels)], fromGen, src, 0))
			} else {
				idleGen[src] = true
			}
		}
	}
	for n := 1 + rng.Intn(400); n > 0; n-- {
		for oracle.Len() > 0 && rng.Intn(3) == 0 {
			pop()
		}
		at := times[lo+rng.Intn(levels)]
		switch k := rng.Intn(4); {
		case k == 0:
			q.pushCall(push(at, fromCall, 0, ^int32(seq)))
		case k == 1:
			// A generator that ended or was never rescheduled starts again.
			g := rng.Intn(gens)
			if idleGen[g] {
				idleGen[g] = false
				q.pushGen(g, push(at, fromGen, g, 0))
			}
		default:
			l := rng.Intn(links)
			if q.links[l].n > 0 {
				if at < lastAt[l] {
					late := event{at: timeKey(at), seq: seq + 1}
					if q.pushHop(l, late) {
						t.Fatalf("trial %d: link %d took an arrival at %v after one at %v", trial, l, at, lastAt[l])
					}
					at = lastAt[l]
				}
			}
			lastAt[l] = at
			if !q.pushHop(l, push(at, fromHop, l, int32(seq))) {
				t.Fatalf("trial %d: link %d refused an arrival in order at %v", trial, l, at)
			}
		}
	}
	for oracle.Len() > 0 {
		pop()
	}
	if _, _, _, ok := q.pop(timeKey(math.Inf(1))); ok {
		t.Fatalf("trial %d: oracle empty, queue still pops", trial)
	}
}

// TestLinkArrivalsInOrder checks the premise of the hop queue: each
// link's data arrivals are queued in (at, seq) order. Under every chaos
// setting the package's tests use, it steps the golden scenario
// (failures), a staged rollout on Abilene and a staged plan swap, all
// carrying traffic, a millisecond at a time, reads every link's queued
// arrivals in order after each step, and requires the invariant checker,
// which tests each arrival as it is queued, to report no "hop-order".
func TestLinkArrivalsInOrder(t *testing.T) {
	chaos := []ChaosConfig{
		{},
		{Enabled: true, Seed: 7},
		{Enabled: true, Seed: 1, CtrlDrop: 0.3},
		{Enabled: true, Seed: 3, dataDrop: 0.05},
		{Enabled: true, Seed: 11, CtrlDrop: 0.2, dataDrop: 0.02},
		{Enabled: true, Seed: 42, CtrlDrop: 0.3, CtrlDup: 0.1, CtrlJitter: 0.005, dataDrop: 0.02, detectJitter: 0.004},
		{Enabled: true, Seed: 1, CtrlDrop: 0.30, CtrlDup: 0.15, CtrlJitter: 0.002},
		{Enabled: true, Seed: 1, CtrlDrop: 0.20, CtrlDup: 0.10, CtrlJitter: 0.002, dataDrop: 0.01},
		{Enabled: true, Seed: 2, CtrlDrop: 0.2, CtrlDup: 0.3, CtrlJitter: 0.030, detectJitter: 0.020},
		{Enabled: true, Seed: 9, CtrlDup: 0.5},
		{Enabled: true, Seed: 1, CtrlDrop: 0.45},
	}
	abilene := planForAbilene(t, 150)
	fails := append(stagedDuplex(t, abilene.G, "Houston", "KansasCity"), stagedDuplex(t, abilene.G, "Chicago", "Indianapolis")...)
	staged, err := transition.Schedule(abilene, fails, transition.Options{SkipCertify: true})
	if err != nil {
		t.Fatal(err)
	}
	old, next := swapPlanPair(t)
	swap, err := transition.SchedulePlanSwap(old, next, transition.Options{SkipCertify: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, ch := range chaos {
		var hopOrder []Violation
		cfg := Config{Chaos: ch, OnViolation: func(v Violation) {
			if v.Kind == "hop-order" {
				hopOrder = append(hopOrder, v)
			}
		}}
		golden, goldenEnd := goldenEmulator(t, cfg)
		cfg.Seed = 1
		stagedEm, _, stagedEnd := stagedEmulator(abilene, staged, fails, cfg, true)
		swapEm, _, swapEnd := swapEmulator(old, swap, cfg, true)
		for _, run := range []struct {
			name string
			em   *Emulator
			end  float64
		}{{"failures", golden, goldenEnd}, {"staged", stagedEm, stagedEnd}, {"swap", swapEm, swapEnd}} {
			pairs := 0
			for step := 1; float64(step)*0.001 < run.end+0.001; step++ {
				run.em.Run(min(float64(step)*0.001, run.end))
				for l := range run.em.events.links {
					a := &run.em.events.links[l]
					for j := 1; j < a.n; j++ {
						mask := len(a.ring) - 1
						prev, cur := &a.ring[(a.head+j-1)&mask], &a.ring[(a.head+j)&mask]
						if less(cur, prev) == 1 {
							t.Fatalf("chaos %d, %s: link %d queues an arrival at %v after one at %v",
								i, run.name, l, keyTime(cur.at), keyTime(prev.at))
						}
						pairs++
					}
				}
			}
			if pairs == 0 {
				t.Fatalf("chaos %d, %s: no link ever held two arrivals", i, run.name)
			}
		}
		if len(hopOrder) > 0 {
			t.Fatalf("chaos %d: %d hop-order violations, the first %v", i, len(hopOrder), hopOrder[0])
		}
	}
}

// TestEmulatorHopZeroAlloc holds the event loop to no allocation per
// packet: a generated packet takes a released slot, and its hops,
// scheduled arrivals, generator callbacks and delivery allocate nothing.
// CBR traffic and a ping cross a six-router line in both directions, five
// hops each way; after a warm-up has grown the queue, the slots and the
// phase maps, the mallocs of a second of emulated time must stay within
// 0.01 × the packets generated in it.
func TestEmulatorHopZeroAlloc(t *testing.T) {
	g := graph.New("line6")
	const n = 6
	for i := 0; i < n; i++ {
		g.AddNode(string(rune('a' + i)))
	}
	for i := 0; i+1 < n; i++ {
		g.AddDuplex(graph.NodeID(i), graph.NodeID(i+1), 100, 1, 1)
	}
	em := New(Config{G: g, Forwarder: NewOSPFRecon(g), Seed: 1})
	const stop = 3.0
	em.AddCBRTraffic(0, n-1, 20e6/8, stop)
	em.AddCBRTraffic(n-1, 0, 20e6/8, stop)
	em.AddPing(0, n-1, 0.05, stop)
	em.Run(1)
	offered := totalOffered(em.Phases()[0])

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	em.Run(2)
	runtime.ReadMemStats(&after)

	p := em.Phases()[0]
	packets := (totalOffered(p) - offered) / 1500
	mallocs := int64(after.Mallocs - before.Mallocs)
	if packets < 1000 {
		t.Fatalf("only %d packets generated in the window", packets)
	}
	if drops := totalDrops(p); drops != 0 {
		t.Fatalf("%d bytes dropped on an unloaded line", drops)
	}
	t.Logf("%d mallocs for %d generated packets", mallocs, packets)
	if float64(mallocs) > 0.01*float64(packets) {
		t.Errorf("%d mallocs for %d generated packets (%.4f per packet, bound 0.01)",
			mallocs, packets, float64(mallocs)/float64(packets))
	}
}
