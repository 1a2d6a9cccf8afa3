package routing

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

// TestConvexCombinationPreservesValidity is the property the FW solver
// rests on: any convex combination of valid routings is valid.
func TestConvexCombinationPreservesValidity(t *testing.T) {
	g := graph.New("cc")
	a := g.AddNode("a")
	b := g.AddNode("b")
	c := g.AddNode("c")
	d := g.AddNode("d")
	g.AddLink(a, b, 1, 1, 1) // 0
	g.AddLink(a, c, 1, 1, 1) // 1
	g.AddLink(b, d, 1, 1, 1) // 2
	g.AddLink(c, d, 1, 1, 1) // 3
	g.AddLink(b, c, 1, 1, 1) // 4

	top := NewFlow(g, []Commodity{{Src: a, Dst: d}})
	top.Frac[0][0] = 1
	top.Frac[0][2] = 1
	bottom := NewFlow(g, []Commodity{{Src: a, Dst: d}})
	bottom.Frac[0][1] = 1
	bottom.Frac[0][3] = 1
	zig := NewFlow(g, []Commodity{{Src: a, Dst: d}})
	zig.Frac[0][0] = 1
	zig.Frac[0][4] = 1
	zig.Frac[0][3] = 1
	for _, f := range []*Flow{top, bottom, zig} {
		if err := validate(f, 1e-9); err != nil {
			t.Fatalf("setup flow invalid: %v", err)
		}
	}

	check := func(w1, w2, w3 float64) bool {
		s := math.Abs(w1) + math.Abs(w2) + math.Abs(w3)
		if s == 0 || math.IsNaN(s) || math.IsInf(s, 0) {
			return true
		}
		l1, l2, l3 := math.Abs(w1)/s, math.Abs(w2)/s, math.Abs(w3)/s
		mix := NewFlow(g, top.Comms)
		for e := 0; e < g.NumLinks(); e++ {
			mix.Frac[0][e] = l1*top.Frac[0][e] + l2*bottom.Frac[0][e] + l3*zig.Frac[0][e]
		}
		return validate(mix, 1e-9) == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestDecomposeRandomFlows round-trips random valid flows through path
// decomposition: path fractions must sum to ~1 and every path must be a
// real src->dst walk.
func TestDecomposeRandomFlows(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := graph.New("rd")
	n := 6
	ids := make([]graph.NodeID, n)
	for i := 0; i < n; i++ {
		ids[i] = g.AddNode(string(rune('a' + i)))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.AddDuplex(ids[i], ids[j], 1, 1, 1)
		}
	}
	for trial := 0; trial < 30; trial++ {
		src := ids[rng.Intn(n)]
		dst := ids[rng.Intn(n)]
		if src == dst {
			continue
		}
		// Random mixture of 3 random simple paths.
		f := NewFlow(g, []Commodity{{Src: src, Dst: dst, Demand: 1}})
		remaining := 1.0
		for p := 0; p < 3; p++ {
			w := remaining
			if p < 2 {
				w = remaining * rng.Float64()
			}
			remaining -= w
			// Random walk without node repetition.
			visited := map[graph.NodeID]bool{src: true}
			at := src
			for at != dst {
				outs := g.Out(at)
				// Prefer direct link to dst half the time to terminate.
				var chosen graph.LinkID = -1
				if id, ok := g.FindLink(at, dst); ok && rng.Intn(2) == 0 {
					chosen = id
				} else {
					id := outs[rng.Intn(len(outs))]
					if !visited[g.Link(id).Dst] {
						chosen = id
					}
				}
				if chosen < 0 {
					continue
				}
				f.Frac[0][chosen] += w
				at = g.Link(chosen).Dst
				visited[at] = true
			}
		}
		if err := validate(f, 1e-9); err != nil {
			t.Fatalf("trial %d: constructed flow invalid: %v", trial, err)
		}
		paths := f.Decompose(0, 32)
		var sum float64
		for _, p := range paths {
			sum += p.Frac
			at := src
			for _, id := range p.Links {
				if g.Link(id).Src != at {
					t.Fatalf("trial %d: discontinuous path", trial)
				}
				at = g.Link(id).Dst
			}
			if at != dst {
				t.Fatalf("trial %d: path ends at %v", trial, at)
			}
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Fatalf("trial %d: fractions sum to %v", trial, sum)
		}
	}
}

func TestMLUEmptyLoads(t *testing.T) {
	g := graph.New("e")
	a := g.AddNode("a")
	b := g.AddNode("b")
	g.AddLink(a, b, 10, 1, 1)
	if got := MLU(g, make([]float64, 1)); got != 0 {
		t.Fatalf("MLU of zero loads = %v", got)
	}
}
