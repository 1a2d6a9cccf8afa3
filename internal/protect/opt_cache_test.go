package protect

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/mcf"
	"repro/internal/routing"
	"repro/internal/topo"
	"repro/internal/traffic"
)

func ringDemand(g *graph.Graph, amount float64) *traffic.Matrix {
	d := traffic.NewMatrix(g.NumNodes())
	for n := 0; n < g.NumNodes(); n++ {
		d.Set(graph.NodeID(n), graph.NodeID((n+1)%g.NumNodes()), amount)
	}
	return d
}

// TestOptDetourCacheTracksMatrixContent pins the fixed cache-keying bug:
// mutating the same *Matrix in place must invalidate the cached base
// routing (pointer identity kept serving the stale one).
func TestOptDetourCacheTracksMatrixContent(t *testing.T) {
	g := topo.Abilene()
	s := &OptDetour{G: g}
	d := ringDemand(g, 10)
	failed := graph.NewLinkSet(0)

	loads1, _ := s.Loads(failed, d)
	// Double every demand in place: the same pointer now holds different
	// contents, so the base routing (and thus every load) must double.
	d.Scale(2)
	loads2, _ := s.Loads(failed, d)
	for e := range loads1 {
		if math.Abs(loads2[e]-2*loads1[e]) > 1e-6*(1+loads1[e]) {
			t.Fatalf("link %d: loads %v -> %v, want exact doubling (stale cache?)", e, loads1[e], loads2[e])
		}
	}
}

// TestOptDetourBaseLoadsAreNotAliased pins the aliasing fix: the loads a
// scheme returns must be independent of the base loads it caches, so a
// caller writing into them changes no later result. A scenario without a
// loaded failed link returns the background row itself, the one closest
// to the cache.
func TestOptDetourBaseLoadsAreNotAliased(t *testing.T) {
	g := topo.Abilene()
	d := ringDemand(g, 10)
	for _, s := range []Scheme{&OptDetour{G: g}, &CSPFDetour{G: g}} {
		for _, failed := range []graph.LinkSet{{}, graph.NewLinkSet(0)} {
			want, _ := s.Loads(failed, d)
			want = append([]float64(nil), want...)
			got, _ := s.Loads(failed, d)
			for e := range got {
				got[e] = -1 // vandalize the returned row
			}
			got, _ = s.Loads(failed, d)
			for e := range want {
				if math.Float64bits(got[e]) != math.Float64bits(want[e]) {
					t.Fatalf("%s: cache aliased: a write to a returned row leaked into link %d", s.Name(), e)
				}
			}
		}
	}
}

// TestOptimalExactTracksIterative checks Optimal's Frank–Wolfe
// denominator against the exact LP optimum on the same scenario: the
// exact optimum can only be at or below the iterative solver's
// bottleneck, and close on a well-conditioned instance.
func TestOptimalExactTracksIterative(t *testing.T) {
	g := topo.Abilene()
	d := ringDemand(g, 40)
	failed := graph.NewLinkSet(2)

	fw := &Optimal{G: g, Iterations: 400}
	fwLoads, _ := fw.Loads(failed, d)
	exact, err := mcf.MinMLUExact(g, routing.ODCommodities(g.NumNodes(), d.At), mcf.Options{Alive: failed.Alive()})
	if err != nil {
		t.Fatal(err)
	}
	exLoads := make([]float64, g.NumLinks())
	exact.AddLoads(exLoads)
	fwB := Bottleneck(g, failed, fwLoads)
	exB := Bottleneck(g, failed, exLoads)
	if exB > fwB*(1+1e-6) {
		t.Fatalf("exact bottleneck %v above iterative %v", exB, fwB)
	}
	if fwB > exB*1.2 {
		t.Fatalf("iterative bottleneck %v implausibly far above exact %v", fwB, exB)
	}
}

// TestOptDetourExactMatchesIterativeDirection holds OptDetour's
// Frank–Wolfe detours to the exact LP over the same detour commodities
// and background: the exact bottleneck is no worse, and the lost demand
// is the same.
func TestOptDetourExactMatchesIterativeDirection(t *testing.T) {
	g := topo.Abilene()
	d := ringDemand(g, 40)
	failed := graph.NewLinkSet(3)

	fw := &OptDetour{G: g, Iterations: 400}
	fwLoads, fwLost := fw.Loads(failed, d)
	base := fw.base.get(g, d)
	bg := append([]float64(nil), base...)
	var detours []routing.Commodity
	for _, e := range failed.IDs() {
		bg[e] = 0
		if l := g.Link(e); base[e] != 0 {
			detours = append(detours, routing.Commodity{Src: l.Src, Dst: l.Dst, Demand: base[e]})
		}
	}
	exact, err := mcf.MinMLUExact(g, detours, mcf.Options{Alive: failed.Alive(), Background: bg})
	if err != nil {
		t.Fatal(err)
	}
	exLoads := append([]float64(nil), bg...)
	exact.AddLoads(exLoads)
	if exLost := exact.Lost(); fwLost != exLost {
		t.Fatalf("lost demand differs: fw %v, exact %v", fwLost, exLost)
	}
	fwB := Bottleneck(g, failed, fwLoads)
	exB := Bottleneck(g, failed, exLoads)
	if exB > fwB*(1+1e-6) {
		t.Fatalf("exact detour bottleneck %v above iterative %v", exB, fwB)
	}
}
