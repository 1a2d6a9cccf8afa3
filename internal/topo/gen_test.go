package topo

import (
	"testing"

	"repro/internal/graph"
)

// TestMeshParameterSweep exercises the generator across sizes: exact link
// counts, connectivity and min-degree must hold for any reasonable
// parameters, not just the Table 1 instances.
func TestMeshParameterSweep(t *testing.T) {
	cases := []struct {
		nodes, dlinks int
		seed          int64
	}{
		{5, 16, 1}, {8, 24, 2}, {12, 40, 3}, {25, 80, 4}, {40, 200, 5},
	}
	for _, c := range cases {
		g := Mesh("sweep", c.nodes, c.dlinks, c.seed, 1000)
		if g.NumNodes() != c.nodes || g.NumLinks() != c.dlinks {
			t.Fatalf("Mesh(%d,%d): got %d/%d", c.nodes, c.dlinks, g.NumNodes(), g.NumLinks())
		}
		if !g.Connected(nil) {
			t.Fatalf("Mesh(%d,%d) disconnected", c.nodes, c.dlinks)
		}
		for n := 0; n < g.NumNodes(); n++ {
			if g.Degree(graph.NodeID(n)) < 2 {
				t.Fatalf("Mesh(%d,%d): node %d degree < 2", c.nodes, c.dlinks, n)
			}
		}
	}
}

func TestMeshOddLinksPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("odd directed link count accepted")
		}
	}()
	Mesh("bad", 5, 15, 1, 100)
}

func TestMeshTooFewEdgesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("too few edges accepted")
		}
	}()
	Mesh("bad", 10, 10, 1, 100) // 5 edges < 9 needed for a tree
}

func TestTransitStubSweep(t *testing.T) {
	for _, c := range []struct {
		transit, stubs, dlinks int
		seed                   int64
	}{
		{4, 3, 80, 1}, {6, 5, 180, 2}, {10, 9, 460, 3},
	} {
		g := transitStub("ts", c.transit, c.stubs, c.dlinks, c.seed)
		wantNodes := c.transit * (1 + c.stubs)
		if g.NumNodes() != wantNodes || g.NumLinks() != c.dlinks {
			t.Fatalf("transitStub: got %d/%d want %d/%d",
				g.NumNodes(), g.NumLinks(), wantNodes, c.dlinks)
		}
		if !g.Connected(nil) {
			t.Fatalf("transitStub disconnected")
		}
	}
}

func TestDelayForFloor(t *testing.T) {
	if d := delayFor(0); d < 1 {
		t.Fatalf("delay floor broken: %v", d)
	}
	if d := delayFor(1.0); d != 30 {
		t.Fatalf("coast-to-coast delay = %v, want 30", d)
	}
}
