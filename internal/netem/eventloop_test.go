package netem

import (
	"container/heap"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/graph"
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
// popped key must map back to its time.
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
	for _, at := range times {
		if got := keyTime(timeKey(at)); got != at || (at != 0 && math.Float64bits(got) != math.Float64bits(at)) {
			t.Errorf("keyTime(timeKey(%v)) = %v", at, got)
		}
	}
	if timeKey(math.Copysign(0, -1)) != timeKey(0) {
		t.Errorf("-0 and +0 have different keys")
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
