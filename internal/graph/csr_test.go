package graph

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// randGraph builds a random connected-ish digraph for CSR checks.
func randGraph(t *testing.T, seed int64, nodes, links int) *Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := New("csr-test")
	ids := make([]NodeID, nodes)
	for i := range ids {
		ids[i] = g.AddNode(fmt.Sprintf("n%d", i))
	}
	// Ring backbone so every node has adjacency, then random chords.
	for i := 0; i < nodes; i++ {
		g.AddLink(ids[i], ids[(i+1)%nodes], 100, rng.Float64(), 1+rng.Float64())
	}
	for len(g.links) < links {
		a, b := rng.Intn(nodes), rng.Intn(nodes)
		if a == b {
			continue
		}
		g.AddLink(ids[a], ids[b], 50+rng.Float64()*100, rng.Float64(), 1+rng.Float64())
	}
	return g
}

// TestCSRMatchesGraph checks the flat view cell by cell against the
// adjacency the Graph reports: same link IDs in the same order per node
// (the SPF kernel's pop order — and therefore the planner's byte-identity
// contract — depends on relaxation order matching the closure reference),
// and per-link attributes equal to the Link structs.
func TestCSRMatchesGraph(t *testing.T) {
	g := randGraph(t, 1, 23, 80)
	c := g.CSR()
	if c.N != g.NumNodes() || c.NumLinks() != g.NumLinks() {
		t.Fatalf("CSR shape %d/%d, graph %d/%d", c.N, c.NumLinks(), g.NumNodes(), g.NumLinks())
	}
	for n := 0; n < g.NumNodes(); n++ {
		out := g.Out(NodeID(n))
		got := c.OutLinks[c.OutHead[n]:c.OutHead[n+1]]
		if len(out) != len(got) {
			t.Fatalf("node %d: out degree %d vs %d", n, len(got), len(out))
		}
		for i, id := range out {
			if got[i] != int32(id) {
				t.Fatalf("node %d out[%d]: CSR %d vs graph %d (order must match)", n, i, got[i], id)
			}
		}
		in := g.In(NodeID(n))
		gotIn := c.InLinks[c.InHead[n]:c.InHead[n+1]]
		if len(in) != len(gotIn) {
			t.Fatalf("node %d: in degree %d vs %d", n, len(gotIn), len(in))
		}
		for i, id := range in {
			if gotIn[i] != int32(id) {
				t.Fatalf("node %d in[%d]: CSR %d vs graph %d", n, i, gotIn[i], id)
			}
		}
	}
	for e := 0; e < g.NumLinks(); e++ {
		l := g.Link(LinkID(e))
		if c.Src[e] != int32(l.Src) || c.Dst[e] != int32(l.Dst) {
			t.Fatalf("link %d endpoints differ", e)
		}
		if c.Weight[e] != l.Weight || c.Capacity[e] != l.Capacity {
			t.Fatalf("link %d attributes differ", e)
		}
	}
}

// TestCSRInvalidation: mutations must produce a fresh snapshot; untouched
// graphs must keep returning the same cached one.
func TestCSRInvalidation(t *testing.T) {
	g := randGraph(t, 2, 10, 24)
	c1 := g.CSR()
	if g.CSR() != c1 {
		t.Fatal("CSR not cached across calls without mutation")
	}
	g.SetWeight(3, 42)
	c2 := g.CSR()
	if c2 == c1 {
		t.Fatal("SetWeight did not invalidate the CSR")
	}
	if c2.Weight[3] != 42 {
		t.Fatalf("rebuilt CSR weight[3] = %v, want 42", c2.Weight[3])
	}
	g.SetCapacity(5, 77)
	c3 := g.CSR()
	if c3 == c2 || c3.Capacity[5] != 77 {
		t.Fatal("SetCapacity did not refresh the CSR")
	}
	n := g.AddNode("extra")
	g.AddLink(n, 0, 10, 0, 1)
	c4 := g.CSR()
	if c4 == c3 || c4.N != g.NumNodes() || c4.NumLinks() != g.NumLinks() {
		t.Fatal("AddNode/AddLink did not refresh the CSR")
	}
	if clone := g.Clone(); clone.CSR() == c4 {
		t.Fatal("clone shares the original's CSR cache")
	}
}

// TestCSRConcurrentAccess hammers the lazy constructor from many
// goroutines; run under -race this pins the mutex guarding the cache.
func TestCSRConcurrentAccess(t *testing.T) {
	g := randGraph(t, 3, 16, 50)
	var wg sync.WaitGroup
	got := make([]*CSR, 16)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = g.CSR()
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(got); i++ {
		if got[i] != got[0] {
			t.Fatal("concurrent CSR calls returned different snapshots")
		}
	}
}
