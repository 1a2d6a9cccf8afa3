package mcf

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/routing"
)

// scaledClone rebuilds g with each link's capacity multiplied by scale[e]
// — the reference a CapScale solve must match.
func scaledClone(t *testing.T, g *graph.Graph, scale []float64) *graph.Graph {
	t.Helper()
	out := graph.New(g.Name + "-scaled")
	for n := 0; n < g.NumNodes(); n++ {
		out.AddNode(g.Node(graph.NodeID(n)))
	}
	for e := 0; e < g.NumLinks(); e++ {
		l := g.Link(graph.LinkID(e))
		if l.Reverse >= 0 && int(l.Reverse) < e {
			continue // added with its forward twin
		}
		c := l.Capacity * scale[e]
		if l.Reverse >= 0 {
			if scale[l.Reverse] != scale[e] {
				t.Fatalf("test scale must be symmetric across duplex pair %d/%d", e, l.Reverse)
			}
			out.AddDuplex(l.Src, l.Dst, c, l.Delay, l.Weight)
		} else {
			out.AddLink(l.Src, l.Dst, c, l.Delay, l.Weight)
		}
	}
	return out
}

// TestCapScaleMatchesScaledGraph: solving with effective-capacity factors
// must agree with solving the explicitly rescaled topology, for both the
// Frank–Wolfe solver and the exact LP.
func TestCapScaleMatchesScaledGraph(t *testing.T) {
	g, a, b := parallel2(t)
	scale := []float64{0.5, 0.5, 1, 1} // cap-10 pair degraded to 5
	sg := scaledClone(t, g, scale)
	comms := []routing.Commodity{{Src: a, Dst: b, Demand: 21, Link: -1}}

	approx := MinMLU(g, comms, Options{Iterations: 400, CapScale: scale})
	approxRef := MinMLU(sg, comms, Options{Iterations: 400})
	if math.Abs(approx.MLU-approxRef.MLU) > 1e-9 {
		t.Fatalf("FW: CapScale MLU %v != scaled-graph MLU %v", approx.MLU, approxRef.MLU)
	}
	// 21 units over effective 5/30: optimal MLU 0.6.
	if math.Abs(approx.MLU-0.6) > 0.02 {
		t.Fatalf("FW: MLU = %v, want ~0.6", approx.MLU)
	}

	exact, err := MinMLUExact(g, comms, Options{CapScale: scale})
	if err != nil {
		t.Fatal(err)
	}
	exactRef, err := MinMLUExact(sg, comms, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(exact.MLU-exactRef.MLU) > 1e-9 {
		t.Fatalf("LP: CapScale MLU %v != scaled-graph MLU %v", exact.MLU, exactRef.MLU)
	}
	if math.Abs(exact.MLU-0.6) > 1e-6 {
		t.Fatalf("LP: MLU = %v, want 0.6", exact.MLU)
	}
}

// TestCapScaleNilIdentity: a nil CapScale and an all-ones CapScale must
// both reproduce the unscaled solve, the former bit for bit.
func TestCapScaleNilIdentity(t *testing.T) {
	g, a, b := parallel2(t)
	comms := []routing.Commodity{{Src: a, Dst: b, Demand: 20, Link: -1}}
	plain := MinMLU(g, comms, Options{Iterations: 300})
	nilScale := MinMLU(g, comms, Options{Iterations: 300, CapScale: nil})
	if plain.MLU != nilScale.MLU {
		t.Fatalf("nil CapScale changed the solve: %v vs %v", nilScale.MLU, plain.MLU)
	}
	pf, nf := denseFlow(plain), denseFlow(nilScale)
	for e := 0; e < g.NumLinks(); e++ {
		for k := range pf.Frac {
			if pf.Frac[k][e] != nf.Frac[k][e] {
				t.Fatalf("nil CapScale changed flow on link %d", e)
			}
		}
	}
	ones := MinMLU(g, comms, Options{Iterations: 300, CapScale: []float64{1, 1, 1, 1}})
	if math.Abs(ones.MLU-plain.MLU) > 1e-12 {
		t.Fatalf("all-ones CapScale changed MLU: %v vs %v", ones.MLU, plain.MLU)
	}
}
