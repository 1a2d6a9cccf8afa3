package graph

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
)

// LinkSet is a set of link IDs backed by a bitmask. The zero value is the
// empty set. LinkSet values are small and intended to be passed by value;
// mutating methods have pointer receivers.
type LinkSet struct {
	words []uint64
}

// NewLinkSet builds a set from the given IDs.
func NewLinkSet(ids ...LinkID) LinkSet {
	var s LinkSet
	for _, id := range ids {
		s.Add(id)
	}
	return s
}

// Add inserts id into the set.
func (s *LinkSet) Add(id LinkID) {
	w := int(id) / 64
	for len(s.words) <= w {
		s.words = append(s.words, 0)
	}
	s.words[w] |= 1 << (uint(id) % 64)
}

// Clear empties the set, keeping its backing storage for reuse.
func (s *LinkSet) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Remove deletes id from the set if present.
func (s *LinkSet) Remove(id LinkID) {
	w := int(id) / 64
	if w < len(s.words) {
		s.words[w] &^= 1 << (uint(id) % 64)
	}
}

// Contains reports whether id is in the set.
func (s LinkSet) Contains(id LinkID) bool {
	w := int(id) / 64
	return w < len(s.words) && s.words[w]&(1<<(uint(id)%64)) != 0
}

// Len returns the number of links in the set.
func (s LinkSet) Len() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// IDs returns the members in increasing order.
func (s LinkSet) IDs() []LinkID {
	var ids []LinkID
	s.Each(func(id LinkID) { ids = append(ids, id) })
	return ids
}

// Each calls fn on every member in increasing order, without allocating.
func (s LinkSet) Each(fn func(LinkID)) {
	for wi, w := range s.words {
		for ; w != 0; w &= w - 1 {
			fn(LinkID(wi*64 + bits.TrailingZeros64(w)))
		}
	}
}

// Union returns a new set containing members of either set.
func (s LinkSet) Union(t LinkSet) LinkSet {
	n := len(s.words)
	if len(t.words) > n {
		n = len(t.words)
	}
	u := LinkSet{words: make([]uint64, n)}
	copy(u.words, s.words)
	for i, w := range t.words {
		u.words[i] |= w
	}
	return u
}

// Clone returns an independent copy of the set.
func (s LinkSet) Clone() LinkSet {
	return LinkSet{words: append([]uint64(nil), s.words...)}
}

// Equal reports whether both sets have identical members.
func (s LinkSet) Equal(t LinkSet) bool {
	n := len(s.words)
	if len(t.words) > n {
		n = len(t.words)
	}
	for i := 0; i < n; i++ {
		var a, b uint64
		if i < len(s.words) {
			a = s.words[i]
		}
		if i < len(t.words) {
			b = t.words[i]
		}
		if a != b {
			return false
		}
	}
	return true
}

// Alive returns a predicate reporting true for links NOT in the set.
// It is the natural adapter from "failed links" to the alive callbacks used
// by Graph, spf and mcf.
func (s LinkSet) Alive() func(LinkID) bool {
	return func(id LinkID) bool { return !s.Contains(id) }
}

// String implements fmt.Stringer, listing members in increasing order.
func (s LinkSet) String() string {
	ids := s.IDs()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = fmt.Sprint(int(id))
	}
	return "{" + strings.Join(parts, ",") + "}"
}
