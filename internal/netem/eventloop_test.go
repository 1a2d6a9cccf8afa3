package netem

import (
	"container/heap"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/graph"
)

// refHeap is the oracle: the binary container/heap queue the emulator used
// to box its events through.
type refHeap []event

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// TestEventHeapMatchesContainerHeap drives the typed 4-ary heap and the
// container/heap oracle through the same random interleavings of pushes
// and pops — few distinct times, so most events tie on at and are ordered
// by seq alone; seq drawn out of push order; pops down to empty — and
// requires the same (at, seq) sequence from both. Every pop must also
// clear the slot it vacates.
func TestEventHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		var h eventHeap
		var ref refHeap
		pk, fn := &Packet{}, func() {}
		seqs := rng.Perm(1000)
		levels := 1 + rng.Intn(6)
		pushes := 1 + rng.Intn(len(seqs))
		check := func() {
			t.Helper()
			got, want := h.pop(), heap.Pop(&ref).(event)
			if got.at != want.at || got.seq != want.seq {
				t.Fatalf("trial %d: pop (%v, %d), container/heap (%v, %d)", trial, got.at, got.seq, want.at, want.seq)
			}
			if vacated := h[:len(h)+1][len(h)]; vacated.pk != nil || vacated.fn != nil {
				t.Fatalf("trial %d: pop left (%v, %d)'s packet or callback in the vacated slot", trial, vacated.at, vacated.seq)
			}
		}
		for _, seq := range seqs[:pushes] {
			for len(h) > 0 && rng.Intn(3) == 0 {
				check()
			}
			ev := event{at: float64(rng.Intn(levels)) * 0.25, seq: seq, pk: pk}
			if seq%2 == 0 {
				ev.fn = fn
			}
			h.push(ev)
			heap.Push(&ref, ev)
		}
		for len(h) > 0 {
			check()
		}
		if ref.Len() != 0 {
			t.Fatalf("trial %d: typed heap empty, container/heap holds %d", trial, ref.Len())
		}
	}
}

// TestEmulatorHopZeroAlloc holds the event loop to one allocation per
// generated packet (the *Packet itself): a hop, a scheduled arrival and a
// delivery allocate nothing. CBR traffic crosses a six-router line in both
// directions, five hops each way; after a warm-up has grown the queue and
// the phase maps, the mallocs of a second of emulated time must stay
// within 1.05 × the packets generated in it.
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
	if float64(mallocs) > 1.05*float64(packets) {
		t.Errorf("%d mallocs for %d generated packets (%.2f per packet, bound 1.05)",
			mallocs, packets, float64(mallocs)/float64(packets))
	}
}
