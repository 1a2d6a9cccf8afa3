package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func triangle(t *testing.T) (*Graph, [3]NodeID) {
	t.Helper()
	g := New("tri")
	a := g.AddNode("a")
	b := g.AddNode("b")
	c := g.AddNode("c")
	g.AddDuplex(a, b, 10, 1, 1)
	g.AddDuplex(b, c, 10, 1, 1)
	g.AddDuplex(c, a, 10, 1, 1)
	return g, [3]NodeID{a, b, c}
}

func TestAddNodeDedup(t *testing.T) {
	g := New("g")
	a := g.AddNode("x")
	b := g.AddNode("x")
	if a != b {
		t.Fatalf("duplicate AddNode returned %d and %d", a, b)
	}
	if g.NumNodes() != 1 {
		t.Fatalf("NumNodes = %d, want 1", g.NumNodes())
	}
}

func TestAddLinkAdjacency(t *testing.T) {
	g := New("g")
	a := g.AddNode("a")
	b := g.AddNode("b")
	id := g.AddLink(a, b, 100, 2, 0)
	l := g.Link(id)
	if l.Src != a || l.Dst != b || l.Capacity != 100 || l.Delay != 2 {
		t.Fatalf("link fields wrong: %+v", l)
	}
	if l.Weight != 1 {
		t.Fatalf("zero weight not normalized: %v", l.Weight)
	}
	if len(g.Out(a)) != 1 || g.Out(a)[0] != id {
		t.Fatalf("Out(a) = %v", g.Out(a))
	}
	if len(g.In(b)) != 1 || g.In(b)[0] != id {
		t.Fatalf("In(b) = %v", g.In(b))
	}
	if l.Reverse != -1 {
		t.Fatalf("simplex link has Reverse = %d", l.Reverse)
	}
}

func TestAddDuplexReverse(t *testing.T) {
	g := New("g")
	a := g.AddNode("a")
	b := g.AddNode("b")
	ab, ba := g.AddDuplex(a, b, 100, 2, 3)
	if g.Link(ab).Reverse != ba || g.Link(ba).Reverse != ab {
		t.Fatalf("Reverse pointers not crossed")
	}
	if g.Link(ba).Src != b || g.Link(ba).Dst != a {
		t.Fatalf("reverse link endpoints wrong: %+v", g.Link(ba))
	}
}

func TestSelfLoopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("AddLink(a,a) did not panic")
		}
	}()
	g := New("g")
	a := g.AddNode("a")
	g.AddLink(a, a, 1, 1, 1)
}

func TestFindLink(t *testing.T) {
	g, n := triangle(t)
	if id, ok := g.FindLink(n[0], n[1]); !ok || g.Link(id).Dst != n[1] {
		t.Fatalf("FindLink a->b failed: %v %v", id, ok)
	}
	g2 := New("g2")
	x := g2.AddNode("x")
	y := g2.AddNode("y")
	g2.AddLink(x, y, 1, 1, 1)
	if _, ok := g2.FindLink(y, x); ok {
		t.Fatalf("FindLink found non-existent reverse link")
	}
}

func TestConnected(t *testing.T) {
	g, _ := triangle(t)
	if !g.Connected(nil) {
		t.Fatalf("triangle should be connected")
	}
	// Fail both directions of one edge: still connected via the third node.
	fail := NewLinkSet(0, 1)
	if !g.Connected(&fail) {
		t.Fatalf("triangle minus one duplex edge should remain connected")
	}
	// Fail two duplex edges: node becomes isolated.
	fail = NewLinkSet(0, 1, 4, 5)
	if g.Connected(&fail) {
		t.Fatalf("triangle minus two duplex edges should be partitioned")
	}
}

func TestConnectedDirected(t *testing.T) {
	// a->b->c->a is strongly connected; removing c->a breaks it even though
	// the underlying undirected graph stays connected.
	g := New("cyc")
	a := g.AddNode("a")
	b := g.AddNode("b")
	c := g.AddNode("c")
	g.AddLink(a, b, 1, 1, 1)
	g.AddLink(b, c, 1, 1, 1)
	ca := g.AddLink(c, a, 1, 1, 1)
	if !g.Connected(nil) {
		t.Fatalf("cycle should be strongly connected")
	}
	fail := NewLinkSet(ca)
	if g.Connected(&fail) {
		t.Fatalf("cycle minus one arc should not be strongly connected")
	}
}

// reachableFrom returns the nodes bfs reaches from src over the links
// outside down, src included.
func reachableFrom(g *Graph, src NodeID, down *LinkSet) []bool {
	seen := make([]bool, g.NumNodes())
	g.bfs(src, down, false, seen)
	return seen
}

func TestReachableFrom(t *testing.T) {
	g := New("path")
	a := g.AddNode("a")
	b := g.AddNode("b")
	c := g.AddNode("c")
	ab := g.AddLink(a, b, 1, 1, 1)
	g.AddLink(b, c, 1, 1, 1)
	seen := reachableFrom(g, a, nil)
	for n, want := range []bool{true, true, true} {
		if seen[n] != want {
			t.Fatalf("ReachableFrom(a)[%d] = %v, want %v", n, seen[n], want)
		}
	}
	fail := NewLinkSet(ab)
	seen = reachableFrom(g, a, &fail)
	if seen[b] || seen[c] {
		t.Fatalf("b,c should be unreachable after a->b fails: %v", seen)
	}
}

func TestCloneIndependence(t *testing.T) {
	g, _ := triangle(t)
	g.AddSRLG(0, 2)
	g.AddMLG(1, 3)
	cp := g.Clone()
	cp.SetWeight(0, 99)
	cp.AddNode("z")
	if g.Link(0).Weight == 99 {
		t.Fatalf("Clone shares link storage")
	}
	if g.NumNodes() == cp.NumNodes() {
		t.Fatalf("Clone shares node storage")
	}
	if len(cp.SRLGs()) != 1 || len(cp.MLGs()) != 1 {
		t.Fatalf("Clone lost groups: %v %v", cp.SRLGs(), cp.MLGs())
	}
}

func TestDegreeAndMaxDegree(t *testing.T) {
	g, n := triangle(t)
	if d := g.Degree(n[0]); d != 2 {
		t.Fatalf("Degree = %d, want 2", d)
	}
	if d := g.MaxDegree(); d != 2 {
		t.Fatalf("MaxDegree = %d, want 2", d)
	}
}

func TestTotalCapacity(t *testing.T) {
	g, _ := triangle(t)
	if got := g.TotalCapacity(); got != 60 {
		t.Fatalf("TotalCapacity = %v, want 60", got)
	}
}

func TestLinkSetBasics(t *testing.T) {
	var s LinkSet
	if s.Len() != 0 || s.Contains(5) {
		t.Fatalf("zero LinkSet should be empty")
	}
	s.Add(3)
	s.Add(70)
	s.Add(3)
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	if !s.Contains(3) || !s.Contains(70) || s.Contains(4) {
		t.Fatalf("Contains wrong")
	}
	s.Remove(3)
	if s.Contains(3) || s.Len() != 1 {
		t.Fatalf("Remove failed")
	}
	s.Remove(1000) // no-op beyond range
	if got := NewLinkSet(1, 2).String(); got != "{1,2}" {
		t.Fatalf("String = %q", got)
	}
}

func TestLinkSetUnionEqual(t *testing.T) {
	a := NewLinkSet(1, 65)
	b := NewLinkSet(2)
	u := a.Union(b)
	if !u.Equal(NewLinkSet(1, 2, 65)) {
		t.Fatalf("Union = %v", u)
	}
	if !a.Equal(a.Clone()) {
		t.Fatalf("Clone not equal")
	}
	if a.Equal(b) {
		t.Fatalf("distinct sets compare equal")
	}
	// Equal must ignore trailing zero words.
	c := NewLinkSet(100)
	c.Remove(100)
	if !c.Equal(LinkSet{}) {
		t.Fatalf("set with trailing zero words != empty set")
	}
}

func TestLinkSetQuickRoundTrip(t *testing.T) {
	f := func(raw []uint16) bool {
		var s LinkSet
		want := make(map[LinkID]bool)
		for _, r := range raw {
			id := LinkID(r % 512)
			s.Add(id)
			want[id] = true
		}
		ids := s.IDs()
		if len(ids) != len(want) {
			return false
		}
		for _, id := range ids {
			if !want[id] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestLinkSetAliveQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 100; iter++ {
		var s LinkSet
		member := make(map[LinkID]bool)
		for k := 0; k < 20; k++ {
			id := LinkID(rng.Intn(300))
			s.Add(id)
			member[id] = true
		}
		alive := s.Alive()
		for id := LinkID(0); id < 300; id++ {
			if alive(id) == member[id] {
				t.Fatalf("alive(%d) = %v with member=%v", id, alive(id), member[id])
			}
		}
	}
}
