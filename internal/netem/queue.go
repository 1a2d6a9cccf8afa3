package netem

import (
	"math"
	"math/bits"
)

// event is a scheduled action, a plain value with no pointers, so the
// queue moves it without write barriers and the collector never scans
// it. at is the event's time as timeKey gives it, and ref names the
// emulator's slot of an arrival's packet or of a callback.
type event struct {
	at  uint64
	seq uint64
	ref int32
}

// timeKey maps a time to a key whose unsigned order is the times' float
// order: a non-negative time's bits with the sign bit set, a negative
// one's bits inverted. Adding 0 turns -0 into +0, which the float order
// holds equal. keyTime inverts it.
func timeKey(t float64) uint64 {
	u := math.Float64bits(t + 0)
	return u ^ (uint64(int64(u)>>63) | 1<<63)
}

// keyTime is the time whose key is k.
func keyTime(k uint64) float64 {
	return math.Float64frombits(k ^ (uint64(int64(^k)>>63) | 1<<63))
}

// less is 1 if a comes before b in (at, seq) order and 0 otherwise: the
// borrow out of the 128-bit subtraction (a.at, a.seq) − (b.at, b.seq).
// seq is unique, so the order is total. Whether one event precedes
// another is a coin toss a branch predictor cannot learn, so the queue
// computes it as a value and never branches on it inside a family.
func less(a, b *event) int {
	_, c := bits.Sub64(a.seq, b.seq, 0)
	_, c = bits.Sub64(a.at, b.at, c)
	return int(c)
}

// eventHeap is a 4-ary min-heap of events under less. The order is total,
// so pops come out in one sequence whatever the arity or layout.
type eventHeap []event

func (h *eventHeap) push(ev event) {
	s := append(*h, ev)
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 4
		if less(&ev, &s[p]) == 0 {
			break
		}
		s[i] = s[p]
		i = p
	}
	s[i] = ev
	*h = s
}

// pop removes and returns the first event. The earliest of a full
// family of four children is a branch-free tournament: the earlier of
// each pair, then the earlier of the two winners.
func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	last := s[n]
	s = s[:n]
	*h = s
	if n == 0 {
		return top
	}
	i := 0
	for c := 1; c < n; c = 4*i + 1 {
		m := c
		if c+3 < n {
			a := c + less(&s[c+1], &s[c])
			b := c + 2 + less(&s[c+3], &s[c+2])
			m = a + (b-a)*less(&s[b], &s[a])
		} else {
			for j := c + 1; j < n; j++ {
				m += (j - m) * less(&s[j], &s[m])
			}
		}
		if less(&s[m], &last) == 0 {
			break
		}
		s[i] = s[m]
		i = m
	}
	s[i] = last
	return top
}

// arrivals is one link's data packets in flight: a ring of events in
// (at, seq) order, first arrival at head. Its length is a power of two.
type arrivals struct {
	ring    []event
	head, n int
}

func (a *arrivals) push(ev event) {
	if a.n == len(a.ring) {
		// Full: unroll the ring into one twice its size.
		ring := make([]event, max(8, 2*len(a.ring)))
		k := copy(ring, a.ring[a.head:])
		copy(ring[k:], a.ring[:a.head])
		a.ring, a.head = ring, 0
	}
	a.ring[(a.head+a.n)&(len(a.ring)-1)] = ev
	a.n++
}

func (a *arrivals) pop() event {
	ev := a.ring[a.head]
	a.head = (a.head + 1) & (len(a.ring) - 1)
	a.n--
	return ev
}

// last is the latest queued arrival; the ring must not be empty.
func (a *arrivals) last() *event { return &a.ring[(a.head+a.n-1)&(len(a.ring)-1)] }

// idle is an event after every other: the first event of a source with
// nothing pending.
var idle = event{at: math.MaxUint64, seq: math.MaxUint64}

// tourney is a tournament tree over sources that each have at most one
// event at their front: head[s] is source s's (idle if none), tree[p+s]
// is s, and each inner node tree[i] is whichever of tree[2i] and
// tree[2i+1] has the earlier head, so tree[1] is the source whose event
// comes first.
type tourney struct {
	head []event
	tree []int32
}

// grow makes room for sources 0..n-1, new ones idle.
func (t *tourney) grow(n int) {
	p := max(1, len(t.head))
	for p < n {
		p *= 2
	}
	if p == len(t.head) {
		return
	}
	head := make([]event, p)
	copy(head, t.head)
	for s := len(t.head); s < p; s++ {
		head[s] = idle
	}
	t.head, t.tree = head, make([]int32, 2*p)
	for s := range p {
		t.tree[p+s] = int32(s)
	}
	for i := p - 1; i > 0; i-- {
		a, b := t.tree[2*i], t.tree[2*i+1]
		t.tree[i] = a + (b-a)*int32(less(&head[b], &head[a]))
	}
}

// first is the earliest source and its event.
func (t *tourney) first() (int, *event) {
	s := t.tree[1]
	return int(s), &t.head[s]
}

// set makes ev source s's front event and replays s's path to the root.
// The winner so far stays in registers and meets each sibling subtree's
// winner, which the replay does not write, so the loads along the path
// do not wait on its stores, and the choice at each node is arithmetic,
// not a branch.
func (t *tourney) set(s int, ev event) {
	tree, head := t.tree, t.head
	head[s] = ev
	w, at, seq := int32(s), ev.at, ev.seq
	for i := len(tree)/2 + s; i > 1; i >>= 1 {
		o := tree[i^1]
		ho := &head[o]
		// less(ho, the winner so far), on scalars the compiler keeps in
		// registers.
		_, c := bits.Sub64(ho.seq, seq, 0)
		_, c = bits.Sub64(ho.at, at, c)
		w ^= (w ^ o) & -int32(c)
		m := -c
		at ^= (at ^ ho.at) & m
		seq ^= (seq ^ ho.seq) & m
		tree[i>>1] = w
	}
}

// The fronts an event can come from.
const (
	fromCall = iota
	fromHop
	fromGen
)

// eventQueue holds the emulator's pending events in (at, seq) order on
// three fronts, and pop takes the earliest of their first events.
//
//   - A data packet's arrival waits in its link's arrivals, which stay in
//     order as they are pushed: only Emulator.forward queues one, at the
//     time its link's transmitter frees (which never moves back) plus
//     the link's fixed delay, with a seq larger than any before it, and
//     nothing ever delays a data packet in flight. hops is a tournament
//     over the links' first arrivals.
//   - A flow generator has at most one next packet pending, and gens is
//     a tournament over the generators' next events. Popping one leaves
//     its path to be replayed by the generator's next event, which it
//     queues while it runs; stale names such a generator (or is -1), and
//     the queue replays it as idle before it next reads the tree if the
//     generator queued nothing.
//   - Every other callback waits in an eventHeap.
type eventQueue struct {
	calls eventHeap
	links []arrivals
	hops  tourney
	gens  tourney
	stale int
}

func newEventQueue(links int) eventQueue {
	q := eventQueue{links: make([]arrivals, links), stale: -1}
	q.hops.grow(links)
	q.gens.grow(0)
	return q
}

// pushCall queues a callback event.
func (q *eventQueue) pushCall(ev event) { q.calls.push(ev) }

// pushGen makes ev generator g's next event; generators are numbered
// from 0 as they are added.
func (q *eventQueue) pushGen(g int, ev event) {
	if q.stale != g {
		q.settle()
	}
	q.stale = -1
	q.gens.grow(g + 1)
	q.gens.set(g, ev)
}

// settle replays the stale generator, if any, as idle.
func (q *eventQueue) settle() {
	if q.stale >= 0 {
		q.gens.set(q.stale, idle)
		q.stale = -1
	}
}

// pushHop queues a data packet's arrival over link l. It reports false,
// and queues nothing, if ev would arrive before the link's latest queued
// arrival: the link's order, which pop relies on, would break.
func (q *eventQueue) pushHop(l int, ev event) bool {
	a := &q.links[l]
	if a.n > 0 {
		if last := a.last(); ev.at < last.at || ev.at == last.at && ev.seq < last.seq {
			return false
		}
	}
	a.push(ev)
	if a.n == 1 {
		q.hops.set(l, ev)
	}
	return true
}

// pop removes and returns the earliest event if it is due by end, the
// key of a time, with the front it came from and, for an arrival or a
// generator's event, its link or generator. ok is false, and nothing is
// removed, when no event is due.
func (q *eventQueue) pop(end uint64) (ev event, from, src int, ok bool) {
	q.settle()
	from, best := fromCall, &idle
	if len(q.calls) > 0 {
		best = &q.calls[0]
	}
	l, hop := q.hops.first()
	if less(hop, best) == 1 {
		from, best = fromHop, hop
	}
	g, gen := q.gens.first()
	if less(gen, best) == 1 {
		from, best = fromGen, gen
	}
	if best.at > end {
		return event{}, 0, 0, false
	}
	ev = *best
	switch from {
	case fromCall:
		q.calls.pop()
	case fromHop:
		a := &q.links[l]
		a.pop()
		next := idle
		if a.n > 0 {
			next = a.ring[a.head]
		}
		q.hops.set(l, next)
		src = l
	case fromGen:
		q.gens.head[g] = idle
		q.stale, src = g, g
	}
	return ev, from, src, true
}
