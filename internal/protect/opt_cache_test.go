package protect

import (
	"math"
	"testing"

	"repro/internal/graph"
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

// TestOptimalExactTracksIterative checks the exact LP denominator
// against Frank–Wolfe: the exact optimum can only be at or below the
// iterative solver's bottleneck, and close on a well-conditioned
// instance.
func TestOptimalExactTracksIterative(t *testing.T) {
	g := topo.Abilene()
	d := ringDemand(g, 40)
	failed := graph.NewLinkSet(2)

	fw := &Optimal{G: g, Iterations: 400}
	ex := &Optimal{G: g, Exact: true}
	fwLoads, _ := fw.Loads(failed, d)
	exLoads, _ := ex.Loads(failed, d)
	fwB := Bottleneck(g, failed, fwLoads)
	exB := Bottleneck(g, failed, exLoads)
	if exB > fwB*(1+1e-6) {
		t.Fatalf("exact bottleneck %v above iterative %v", exB, fwB)
	}
	if fwB > exB*1.2 {
		t.Fatalf("iterative bottleneck %v implausibly far above exact %v", fwB, exB)
	}
	// A second scenario must reuse the published warm basis and agree
	// with a cold exact solve.
	failed2 := graph.NewLinkSet(5)
	warmLoads, _ := ex.Loads(failed2, d)
	cold := &Optimal{G: g, Exact: true}
	coldLoads, _ := cold.Loads(failed2, d)
	if w, c := Bottleneck(g, failed2, warmLoads), Bottleneck(g, failed2, coldLoads); math.Abs(w-c) > 1e-6*(1+c) {
		t.Fatalf("warm bottleneck %v != cold %v", w, c)
	}
}

// TestOptDetourExactMatchesIterativeDirection sanity-checks the exact
// detour path: it must produce a no-worse bottleneck than Frank–Wolfe on
// the same scenario.
func TestOptDetourExactMatchesIterativeDirection(t *testing.T) {
	g := topo.Abilene()
	d := ringDemand(g, 40)
	failed := graph.NewLinkSet(3)

	fw := &OptDetour{G: g, Iterations: 400}
	ex := &OptDetour{G: g, Exact: true}
	fwLoads, fwLost := fw.Loads(failed, d)
	exLoads, exLost := ex.Loads(failed, d)
	if fwLost != exLost {
		t.Fatalf("lost demand differs: fw %v, exact %v", fwLost, exLost)
	}
	fwB := Bottleneck(g, failed, fwLoads)
	exB := Bottleneck(g, failed, exLoads)
	if exB > fwB*(1+1e-6) {
		t.Fatalf("exact detour bottleneck %v above iterative %v", exB, fwB)
	}
}
