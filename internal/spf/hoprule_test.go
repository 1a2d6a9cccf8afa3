package spf

import (
	"math"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/topo"
)

// nearTieTopo is the three-node topology whose 1e-12 weight lies inside
// the 1e-9 equal-cost tolerance: a and b sit at the same distance from d,
// and each looks like an equal-cost hop of the other although neither is
// closer. ShortestPath used to bounce between them forever, and ECMPFlow
// lost a quarter of an a→d unit.
const nearTieTopo = "topology neartie\nnode a\nnode b\nnode d\nlink a b 100 1 1e-12\nlink a d 100 1 1\nlink b d 100 1 1\n"

// plateauTopo leaves b only the link to a, whose 1e-12 weight vanishes in
// the add (1e6 + 1e-12 == 1e6): b sits at a's distance with no link that is
// strictly closer to d — a plateau — and must fall back on its canonical
// next link.
const plateauTopo = "topology plateau\nnode a\nnode b\nnode d\nlink a b 100 1 1e-12\nlink a d 100 1 1e6\n"

func parseTopo(t testing.TB, text string) *graph.Graph {
	t.Helper()
	g, err := topo.Parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestHopRuleStepsStrictlyCloser: on topologies where a weight is inside
// the tolerance or vanishes in the add, shortest paths are simple and every
// ECMP unit is delivered.
func TestHopRuleStepsStrictlyCloser(t *testing.T) {
	for _, text := range []string{nearTieTopo, plateauTopo} {
		g := parseTopo(t, text)
		checkHopRule(t, g, nil)
		a, _ := g.NodeByName("a")
		b, _ := g.NodeByName("b")
		d, _ := g.NodeByName("d")
		var s Scratch
		if p := ShortestPath(g, a, d, nil, WeightCost(g), &s); len(p) != 1 {
			t.Fatalf("%s: a→d path %v, want the direct link", g.Name, p)
		}
		f := ECMPFlow(g, []routing.Commodity{{Src: b, Dst: d, Demand: 1}}, nil, WeightCost(g))
		var in float64
		for _, id := range g.In(d) {
			in += f.Frac[0][id]
		}
		if in != 1 {
			t.Fatalf("%s: ECMP delivers %v of a b→d unit, want 1", g.Name, in)
		}
	}
}

// checkHopRule holds every (src, dst) pair to the hop rule's guarantees
// over the links outside down: ShortestPath returns a contiguous path of
// at most N−1 alive links exactly when dst is reachable, and each ECMP
// unit is either conserved end to end or, when dst is unreachable, wholly
// lost.
func checkHopRule(t *testing.T, g *graph.Graph, down *graph.LinkSet) {
	t.Helper()
	n := g.NumNodes()
	cost := WeightCost(g)
	var comms []routing.Commodity
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if a != b {
				comms = append(comms, routing.Commodity{Src: graph.NodeID(a), Dst: graph.NodeID(b), Demand: 1})
			}
		}
	}
	f := ECMPFlow(g, comms, down, cost)
	var sc ECMPScratch
	loads := make([]float64, g.NumLinks())
	lost := ECMPLoads(g, comms, down, cost, &sc, loads)
	for e, w := range f.Loads() {
		if math.Float64bits(loads[e]) != math.Float64bits(w) {
			t.Fatalf("ECMPLoads puts %v on link %d, the flow %v", loads[e], e, w)
		}
	}
	if wantLost := flowLost(f); math.Float64bits(lost) != math.Float64bits(wantLost) {
		t.Fatalf("ECMPLoads loses %v, the flow's zero rows %v", lost, wantLost)
	}
	var s Scratch
	for k, cm := range comms {
		p := ShortestPath(g, cm.Src, cm.Dst, down, cost, &s)
		reachable := s.Dist[cm.Src] != Infinity
		if reachable != (p != nil) {
			t.Fatalf("%d→%d: reachable %v but path %v", cm.Src, cm.Dst, reachable, p)
		}
		if len(p) > n-1 {
			t.Fatalf("%d→%d: %d-link path on %d nodes", cm.Src, cm.Dst, len(p), n)
		}
		at := cm.Src
		for _, id := range p {
			l := g.Link(id)
			if l.Src != at || (down != nil && down.Contains(id)) {
				t.Fatalf("%d→%d: path %v leaves %d by link %d", cm.Src, cm.Dst, p, at, id)
			}
			at = l.Dst
		}
		if p != nil && at != cm.Dst {
			t.Fatalf("%d→%d: path %v ends at %d", cm.Src, cm.Dst, p, at)
		}
		net := make([]float64, n)
		for id, v := range f.Frac[k] {
			l := g.Link(graph.LinkID(id))
			net[l.Src] -= v
			net[l.Dst] += v
		}
		for u, v := range net {
			want := 0.0
			if reachable && graph.NodeID(u) == cm.Src {
				want = -1
			} else if reachable && graph.NodeID(u) == cm.Dst {
				want = 1
			}
			if math.Abs(v-want) > 1e-9 {
				t.Fatalf("%d→%d (reachable %v): net ECMP inflow %v at node %d, want %v", cm.Src, cm.Dst, reachable, v, u, want)
			}
		}
	}
}

// FuzzHopRule feeds topologies topo.Parse accepts to ShortestPath and
// ECMPFlow, with every link up and with the first duplex pair down.
func FuzzHopRule(f *testing.F) {
	for _, s := range []string{
		nearTieTopo,
		plateauTopo,
		"node a\nnode b\nnode c\nnode d\nlink a b 10 1 1\nlink b c 10 1 1\nlink c d 10 1 1\nlink d a 10 1 1\nlink a c 10 1 2\n",
		"node a\nnode b\nnode c\nlink a b 10 1 1e308\nlink b c 10 1 1e308\nlink a c 10 1 5e-324\n",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		g, err := topo.Parse(strings.NewReader(text))
		if err != nil || g.NumNodes() > 24 {
			return
		}
		checkHopRule(t, g, nil)
		if g.NumLinks() > 0 {
			down := graph.NewLinkSet(0, 1)
			checkHopRule(t, g, &down)
		}
	})
}
