package mplsff

import (
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/topo"
	"repro/internal/traffic"
)

func buildAbilene(t testing.TB) (*core.Plan, *Network) {
	t.Helper()
	g := topo.Abilene()
	d := traffic.Gravity(g, 250, 3)
	plan, err := core.Precompute(g, d, core.Config{
		Model: core.ArbitraryFailures{F: 1}, Iterations: 80,
	})
	if err != nil {
		t.Fatal(err)
	}
	return plan, Build(plan)
}

func TestHashConsistentPerRouter(t *testing.T) {
	_, n := buildAbilene(t)
	f := FlowKey{SrcIP: 0x0a000001, DstIP: 0x0a000002, SrcPort: 1234, DstPort: 80}
	r := n.Routers[0]
	h := r.Hash(f)
	for i := 0; i < 10; i++ {
		if r.Hash(f) != h {
			t.Fatalf("hash not deterministic")
		}
	}
	if h >= hashBuckets {
		t.Fatalf("hash %d out of range", h)
	}
}

func TestHashIndependentAcrossRouters(t *testing.T) {
	// The same flow must hash differently on at least some routers (the
	// §4.2 anti-skew requirement).
	_, n := buildAbilene(t)
	f := FlowKey{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4}
	first := n.Routers[0].Hash(f)
	differs := false
	for _, r := range n.Routers[1:] {
		if r.Hash(f) != first {
			differs = true
			break
		}
	}
	if !differs {
		t.Fatalf("all routers hash the flow identically: salt not mixed in")
	}
}

func TestHashSplitMatchesRatios(t *testing.T) {
	// Over many flows, the selected NHLFE distribution approaches the
	// configured ratios (within hash-bucket granularity).
	_, n := buildAbilene(t)
	r := n.Routers[0]
	entries := []NHLFE{
		{Out: 1, Ratio: 0.25},
		{Out: 2, Ratio: 0.75},
	}
	counts := map[graph.LinkID]int{}
	const flows = 4000
	for i := 0; i < flows; i++ {
		f := FlowKey{SrcIP: uint32(i * 2654435761), DstIP: uint32(i ^ 0xdeadbeef), SrcPort: uint16(i), DstPort: 80}
		nh, ok := r.selectNHLFE(entries, f)
		if !ok {
			t.Fatalf("no selection")
		}
		counts[nh.Out]++
	}
	got := float64(counts[1]) / flows
	if math.Abs(got-0.25) > 0.05 {
		t.Fatalf("split fraction = %v, want ~0.25", got)
	}
}

func TestSelectNHLFEZeroTotal(t *testing.T) {
	_, n := buildAbilene(t)
	if _, ok := n.Routers[0].selectNHLFE([]NHLFE{{Out: 1, Ratio: 0}}, FlowKey{}); ok {
		t.Fatalf("selected from zero ratios")
	}
}

func TestILMProgramming(t *testing.T) {
	plan, n := buildAbilene(t)
	g := plan.G
	// Every link's tail router pops its protection label.
	for e := 0; e < g.NumLinks(); e++ {
		lid := graph.LinkID(e)
		lbl := n.LabelOf[lid]
		tail := n.Routers[g.Link(lid).Dst]
		fwd, ok := tail.ILM[lbl]
		if !ok || !fwd.Pop {
			t.Fatalf("link %d: tail does not pop (ok=%v)", e, ok)
		}
	}
	// Head routers have a forwarding entry for their own links' labels
	// whenever the plan protects them (p not concentrated on the link).
	head := n.Routers[g.Link(0).Src]
	if _, ok := head.ILM[n.LabelOf[0]]; !ok {
		t.Fatalf("head router lacks ILM for its own link")
	}
}

func TestFIBCoversAllPairs(t *testing.T) {
	plan, n := buildAbilene(t)
	for _, c := range plan.Comms {
		src := n.Routers[c.Src]
		if _, ok := src.FIB[[2]graph.NodeID{c.Src, c.Dst}]; !ok {
			t.Fatalf("source router %d missing FIB entry for %d->%d", c.Src, c.Src, c.Dst)
		}
	}
}

func TestFIBRatiosMatchBaseFlow(t *testing.T) {
	plan, n := buildAbilene(t)
	g := plan.G
	for k, c := range plan.Comms {
		entries := n.Routers[c.Src].FIB[[2]graph.NodeID{c.Src, c.Dst}]
		var sum float64
		for _, e := range entries {
			sum += e.Ratio
			if j, ok := slices.BinarySearch(plan.Base[k].Idx, int32(e.Out)); !ok || plan.Base[k].Val[j] <= 0 {
				t.Fatalf("FIB entry for zero-fraction link")
			}
		}
		// At the source the fractions sum to 1 ([R2]).
		if math.Abs(sum-1) > 1e-6 {
			t.Fatalf("source ratios sum to %v", sum)
		}
		_ = g
	}
}

func TestOnFailureReprograms(t *testing.T) {
	_, n := buildAbilene(t)
	e := graph.LinkID(0)
	lbl := n.LabelOf[e]
	if err := n.OnFailure(e); err != nil {
		t.Fatal(err)
	}
	if !n.KnowsFailed(e) {
		t.Fatalf("failure not recorded")
	}
	// After the failure, no surviving label's NHLFEs use link e.
	for _, r := range n.Routers {
		for l, fwd := range r.ILM {
			for _, nh := range fwd.Entries {
				if nh.Out == e && l != lbl {
					t.Fatalf("label %d still forwards over failed link", l)
				}
			}
		}
	}
	// The failed link's own label routes via the stored detour and never
	// over e.
	for _, r := range n.Routers {
		if fwd, ok := r.ILM[lbl]; ok && !fwd.Pop {
			for _, nh := range fwd.Entries {
				if nh.Out == e {
					t.Fatalf("detour uses the failed link")
				}
			}
		}
	}
	// Idempotent.
	if err := n.OnFailure(e); err != nil {
		t.Fatal(err)
	}
}

func TestProtectedWalkReachesTail(t *testing.T) {
	// A labeled packet injected at the head of a failed link must reach
	// the link's tail by following NHLFEs and pop there.
	_, n := buildAbilene(t)
	g := n.G
	e := graph.LinkID(2)
	link := g.Link(e)
	if err := n.OnFailure(e); err != nil {
		t.Fatal(err)
	}
	lbl := n.LabelOf[e]
	for trial := 0; trial < 50; trial++ {
		f := FlowKey{SrcIP: uint32(trial * 7919), DstIP: uint32(trial ^ 0x1234), SrcPort: uint16(trial), DstPort: 443}
		at := link.Src
		hops := 0
		for {
			nh, pop, ok := n.Routers[at].NextProtected(lbl, f)
			if !ok {
				t.Fatalf("trial %d: no forwarding at node %d", trial, at)
			}
			if pop {
				if at != link.Dst {
					t.Fatalf("trial %d: popped at %d, want tail %d", trial, at, link.Dst)
				}
				break
			}
			if nh.Out == e {
				t.Fatalf("trial %d: detour used failed link", trial)
			}
			at = g.Link(nh.Out).Dst
			if hops++; hops > 3*g.NumNodes() {
				t.Fatalf("trial %d: detour loops", trial)
			}
		}
	}
}

func TestMeasureStorage(t *testing.T) {
	plan, n := buildAbilene(t)
	s := n.MeasureStorage()
	if s.TotalILM != plan.G.NumLinks() {
		t.Fatalf("TotalILM = %d, want %d", s.TotalILM, plan.G.NumLinks())
	}
	if s.ILMEntries == 0 || s.NHLFEs == 0 {
		t.Fatalf("empty storage: %+v", s)
	}
	if s.FIBBytes != s.ILMEntries*ILMEntryBytes+0 && s.FIBBytes <= 0 {
		t.Fatalf("FIBBytes = %d", s.FIBBytes)
	}
	if s.RIBBytes <= 0 {
		t.Fatalf("RIBBytes = %d", s.RIBBytes)
	}
	// Abilene fits comfortably in the paper's bounds (<9KB FIB would be
	// optimistic for our entry sizes; assert the order of magnitude).
	if s.FIBBytes > 64<<10 {
		t.Fatalf("FIB = %d bytes, unreasonably large for Abilene", s.FIBBytes)
	}
	if s.RIBBytes > 1<<20 {
		t.Fatalf("RIB = %d bytes, unreasonably large for Abilene", s.RIBBytes)
	}
}

func TestNextBaseMissingPair(t *testing.T) {
	_, n := buildAbilene(t)
	if _, ok := n.Routers[0].NextBase(5, 5, FlowKey{}); ok {
		t.Fatalf("NextBase invented an entry")
	}
}
