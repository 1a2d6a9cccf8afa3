package routing

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/graph"
)

// diamond builds a -> {b,c} -> d with unit capacities.
func diamond(t *testing.T) (*graph.Graph, [4]graph.NodeID) {
	t.Helper()
	g := graph.New("diamond")
	a := g.AddNode("a")
	b := g.AddNode("b")
	c := g.AddNode("c")
	d := g.AddNode("d")
	g.AddLink(a, b, 10, 1, 1) // 0
	g.AddLink(a, c, 10, 1, 1) // 1
	g.AddLink(b, d, 10, 1, 1) // 2
	g.AddLink(c, d, 10, 1, 1) // 3
	return g, [4]graph.NodeID{a, b, c, d}
}

func TestValidateAccepts(t *testing.T) {
	g, n := diamond(t)
	f := NewFlow(g, []Commodity{{Src: n[0], Dst: n[3], Demand: 5}})
	f.Frac[0][0] = 0.4
	f.Frac[0][2] = 0.4
	f.Frac[0][1] = 0.6
	f.Frac[0][3] = 0.6
	if err := validate(f, 1e-9); err != nil {
		t.Fatalf("valid flow rejected: %v", err)
	}
}

func TestValidateR1Conservation(t *testing.T) {
	g, n := diamond(t)
	f := NewFlow(g, []Commodity{{Src: n[0], Dst: n[3]}})
	f.Frac[0][0] = 0.5
	f.Frac[0][1] = 0.5
	f.Frac[0][2] = 0.3 // leaks 0.2 at b
	f.Frac[0][3] = 0.5
	if err := validate(f, 1e-9); err == nil {
		t.Fatalf("conservation violation accepted")
	}
}

func TestValidateR2SourceUnit(t *testing.T) {
	g, n := diamond(t)
	f := NewFlow(g, []Commodity{{Src: n[0], Dst: n[3]}})
	f.Frac[0][0] = 0.3
	f.Frac[0][2] = 0.3
	if err := validate(f, 1e-9); err == nil {
		t.Fatalf("partial source emission accepted")
	}
}

func TestValidateR3NoReturnToSource(t *testing.T) {
	g := graph.New("tri")
	a := g.AddNode("a")
	b := g.AddNode("b")
	c := g.AddNode("c")
	ab := g.AddLink(a, b, 1, 1, 1)
	bc := g.AddLink(b, c, 1, 1, 1)
	ba := g.AddLink(b, a, 1, 1, 1)
	f := NewFlow(g, []Commodity{{Src: a, Dst: c}})
	f.Frac[0][ab] = 1.2
	f.Frac[0][bc] = 1.0
	f.Frac[0][ba] = 0.2
	// frac > 1 also violates R4; keep within [0,1] to isolate R3.
	f.Frac[0][ab] = 1.0
	f.Frac[0][ba] = 0.0
	if err := validate(f, 1e-9); err != nil {
		t.Fatalf("setup flow invalid: %v", err)
	}
	f.Frac[0][ab] = 1.0
	f.Frac[0][ba] = 0.5 // flows back into source
	if err := validate(f, 1e-9); err == nil {
		t.Fatalf("return-to-source accepted")
	}
}

func TestValidateR4Range(t *testing.T) {
	g, n := diamond(t)
	f := NewFlow(g, []Commodity{{Src: n[0], Dst: n[3]}})
	f.Frac[0][0] = 1.5
	f.Frac[0][2] = 1.5
	if err := validate(f, 1e-9); err == nil {
		t.Fatalf("fraction > 1 accepted")
	}
}

func TestValidateRejectsSelfCommodity(t *testing.T) {
	g, n := diamond(t)
	f := NewFlow(g, []Commodity{{Src: n[0], Dst: n[0]}})
	if err := validate(f, 1e-9); err == nil {
		t.Fatalf("src==dst commodity accepted")
	}
}

func TestLoadsAndMLU(t *testing.T) {
	g, n := diamond(t)
	f := NewFlow(g, []Commodity{{Src: n[0], Dst: n[3], Demand: 8}})
	f.Frac[0][0] = 0.25
	f.Frac[0][2] = 0.25
	f.Frac[0][1] = 0.75
	f.Frac[0][3] = 0.75
	loads := f.Loads()
	if loads[0] != 2 || loads[1] != 6 {
		t.Fatalf("loads = %v", loads)
	}
	if mlu := MLU(g, loads); math.Abs(mlu-0.6) > 1e-12 {
		t.Fatalf("MLU = %v, want 0.6", mlu)
	}
}

func TestODCommodities(t *testing.T) {
	comms := ODCommodities(3, func(a, b graph.NodeID) float64 {
		if a == 0 && b == 2 {
			return 7
		}
		return 0
	})
	if len(comms) != 1 || comms[0].Demand != 7 {
		t.Fatalf("comms = %+v", comms)
	}
}

func TestLinkCommodities(t *testing.T) {
	g, _ := diamond(t)
	comms := LinkCommodities(g)
	if len(comms) != g.NumLinks() {
		t.Fatalf("len = %d", len(comms))
	}
	for i, c := range comms {
		l := g.Link(graph.LinkID(i))
		if c.Src != l.Src || c.Dst != l.Dst {
			t.Fatalf("commodity %d mismatch: %+v", i, c)
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	g, n := diamond(t)
	f := NewFlow(g, []Commodity{{Src: n[0], Dst: n[3], Demand: 1}})
	f.Frac[0][0] = 0.5
	cp := f.Clone()
	cp.Frac[0][0] = 0.9
	cp.Comms[0].Demand = 3
	if f.Frac[0][0] != 0.5 || f.Comms[0].Demand != 1 {
		t.Fatalf("Clone shares storage")
	}
}

func TestDecomposeSplitsPaths(t *testing.T) {
	g, n := diamond(t)
	f := NewFlow(g, []Commodity{{Src: n[0], Dst: n[3], Demand: 1}})
	f.Frac[0][0] = 0.3
	f.Frac[0][2] = 0.3
	f.Frac[0][1] = 0.7
	f.Frac[0][3] = 0.7
	paths := f.Decompose(0, 10)
	if len(paths) != 2 {
		t.Fatalf("got %d paths", len(paths))
	}
	var sum float64
	for _, p := range paths {
		sum += p.Frac
		if len(p.Links) != 2 {
			t.Fatalf("path length = %d", len(p.Links))
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("path fractions sum to %v", sum)
	}
}

func TestRemoveLoops(t *testing.T) {
	// a->b->d direct plus a useless b->c->b circulation.
	g := graph.New("loopy")
	a := g.AddNode("a")
	b := g.AddNode("b")
	c := g.AddNode("c")
	d := g.AddNode("d")
	ab := g.AddLink(a, b, 1, 1, 1)
	bd := g.AddLink(b, d, 1, 1, 1)
	bc := g.AddLink(b, c, 1, 1, 1)
	cb := g.AddLink(c, b, 1, 1, 1)
	f := NewFlow(g, []Commodity{{Src: a, Dst: d, Demand: 1}})
	f.Frac[0][ab] = 1
	f.Frac[0][bd] = 1
	f.Frac[0][bc] = 0.4
	f.Frac[0][cb] = 0.4
	if err := validate(f, 1e-9); err != nil {
		t.Fatalf("flow with circulation should still satisfy conservation: %v", err)
	}
	removeLoops(f)
	if f.Frac[0][bc] != 0 || f.Frac[0][cb] != 0 {
		t.Fatalf("circulation not removed: %v %v", f.Frac[0][bc], f.Frac[0][cb])
	}
	if f.Frac[0][ab] != 1 || f.Frac[0][bd] != 1 {
		t.Fatalf("useful flow damaged")
	}
	if err := validate(f, 1e-9); err != nil {
		t.Fatalf("flow invalid after removeLoops: %v", err)
	}
}

func TestSetDemands(t *testing.T) {
	g, n := diamond(t)
	f := NewFlow(g, []Commodity{{Src: n[0], Dst: n[3]}})
	f.SetDemands(func(a, b graph.NodeID) float64 { return 11 })
	if f.Comms[0].Demand != 11 {
		t.Fatalf("SetDemands failed")
	}
}

// TestValidateRejectsNonFinite: NaN fails both range comparisons and every
// conservation test, so an all-NaN row once validated; it is an [R4]
// violation, as an infinite fraction is.
func TestValidateRejectsNonFinite(t *testing.T) {
	g, n := diamond(t)
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		f := NewFlow(g, []Commodity{{Src: n[0], Dst: n[3], Demand: 1}})
		for e := range f.Frac[0] {
			f.Frac[0][e] = v
		}
		if err := validate(f, 1e-9); err == nil || !strings.Contains(err.Error(), "[R4]") {
			t.Fatalf("row of %v: Validate = %v, want an [R4] violation", v, err)
		}
	}
}

// validate checks conditions [R1]–[R4] for every commodity of f within
// tolerance eps.
func validate(f *Flow, eps float64) error {
	for k, c := range f.Comms {
		if err := c.Validate(f.G, f.Frac[k], eps); err != nil {
			return fmt.Errorf("commodity %d: %v", k, err)
		}
	}
	return nil
}

// removeLoops cancels the circulations of every commodity of f in place
// with the dense kernel.
func removeLoops(f *Flow) {
	var s LoopScratch
	for k := range f.Frac {
		s.removeCycles(f.G.CSR(), f.Frac[k])
	}
}
