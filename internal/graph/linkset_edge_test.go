package graph

import "testing"

// TestLinkSetEmpty exercises every operation on the zero-value (empty)
// set: all must be safe no-ops with sensible results, since the empty set
// is what "no failures" passes through the whole evaluation stack.
func TestLinkSetEmpty(t *testing.T) {
	var s LinkSet
	if s.Len() != 0 {
		t.Fatalf("zero set: Len=%d", s.Len())
	}
	if s.Contains(0) || s.Contains(1000) {
		t.Fatal("empty set contains a link")
	}
	if ids := s.IDs(); len(ids) != 0 {
		t.Fatalf("empty set IDs = %v", ids)
	}
	if got := s.String(); got != "{}" {
		t.Fatalf("empty set String = %q", got)
	}
	s.Remove(5) // removing from empty must not panic or allocate words
	if s.Len() != 0 {
		t.Fatal("Remove on empty set changed it")
	}
	if s.Union(LinkSet{}).Len() != 0 {
		t.Fatal("empty ∪ empty is nonempty")
	}
	if !s.Equal(NewLinkSet()) || !s.Equal(s.Clone()) {
		t.Fatal("empty sets compare unequal")
	}
	alive := s.Alive()
	for _, id := range []LinkID{0, 63, 64, 129} {
		if !alive(id) {
			t.Fatalf("empty failure set kills link %d", id)
		}
	}
}

// TestLinkSetFull exercises a set holding every link of a multi-word
// range, including the 64-bit word boundaries where the bitmask math can
// go wrong.
func TestLinkSetFull(t *testing.T) {
	const n = 130 // three words, last one partial
	var s LinkSet
	for i := 0; i < n; i++ {
		s.Add(LinkID(i))
	}
	if s.Len() != n {
		t.Fatalf("full set: Len=%d", s.Len())
	}
	for i := 0; i < n; i++ {
		if !s.Contains(LinkID(i)) {
			t.Fatalf("full set missing link %d", i)
		}
	}
	if s.Contains(LinkID(n)) {
		t.Fatal("full set contains out-of-range link")
	}
	ids := s.IDs()
	if len(ids) != n {
		t.Fatalf("IDs returned %d links, want %d", len(ids), n)
	}
	for i, id := range ids {
		if id != LinkID(i) {
			t.Fatalf("IDs[%d] = %d, want ascending order", i, id)
		}
	}
	alive := s.Alive()
	for _, id := range []LinkID{0, 63, 64, 127, 128, 129} {
		if alive(id) {
			t.Fatalf("full failure set leaves link %d alive", id)
		}
	}
	if !s.Union(NewLinkSet(5)).Equal(s) {
		t.Fatal("union with subset changed the full set")
	}
	// Drain it back to empty across word boundaries.
	for i := 0; i < n; i++ {
		s.Remove(LinkID(i))
	}
	if s.Len() != 0 {
		t.Fatalf("drained set still has %v", s.IDs())
	}
	if !s.Equal(LinkSet{}) {
		t.Fatal("drained set (with allocated words) != zero set")
	}
}
