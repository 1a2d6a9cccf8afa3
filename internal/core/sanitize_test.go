package core

import (
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/routing"
	"repro/internal/spf"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// sanitizeProtDense is sanitizeProt as it was when the plan's protection
// was dense: the whole routing made an L×L flow, its loops removed, each
// row decomposed and rebuilt, then the forced detours. It is kept as the
// differential oracle of TestSanitizeProtMatchesDenseOracle. Its loops are
// cancelled by Flow.Decompose, which runs the dense kernel on a copy of
// each row.
func sanitizeProtDense(g *graph.Graph, prot []routing.SparseRow) [][]float64 {
	const (
		keepCoverage = 0.995 // retain paths until this much mass is kept
		alwaysKeep   = 0.005 // paths at least this large are never dropped
	)
	nL := g.NumLinks()
	P := make([][]float64, nL)
	for l := range P {
		P[l] = make([]float64, nL)
		prot[l].Scatter(P[l])
	}
	f := &routing.Flow{G: g, Comms: routing.LinkCommodities(g), Frac: P}
	var sc spf.Scratch
	var down graph.LinkSet
	for l := 0; l < nL; l++ {
		paths := f.Decompose(l, 256)
		sort.Slice(paths, func(i, j int) bool { return paths[i].Frac > paths[j].Frac })
		var grand float64
		for _, p := range paths {
			grand += p.Frac
		}
		if grand <= 0 {
			clear(P[l])
			prot[l].Scatter(P[l])
			continue
		}
		var kept []routing.Path
		var total float64
		for _, p := range paths {
			if total >= keepCoverage*grand && p.Frac < alwaysKeep {
				break
			}
			kept = append(kept, p)
			total += p.Frac
		}
		row := P[l]
		for e := range row {
			row[e] = 0
		}
		for _, p := range kept {
			w := p.Frac / total
			for _, id := range p.Links {
				row[id] += w
			}
		}
	}

	// A min-max optimum may leave a link effectively unprotected
	// (p_l(l) ≈ 1) when protecting it cannot improve the bottleneck —
	// rational for the objective, but online reconfiguration would then
	// drop the link's real traffic. Force a functional detour wherever
	// one exists: move the self-allocated mass onto the shortest path
	// around the link. This can only raise the reported worst-case MLU
	// (recomputed by the caller), never break validity ([R2] mass is
	// conserved, the detour satisfies [R1]/[R3]).
	for l := 0; l < nL; l++ {
		lid := graph.LinkID(l)
		self := P[l][l]
		if self < 0.999 {
			continue
		}
		link := g.Link(lid)
		down.Add(lid)
		path := spf.ShortestPath(g, link.Src, link.Dst, &down, spf.WeightCost(g), &sc)
		down.Remove(lid)
		if path == nil {
			continue // a true bridge: nothing can protect it
		}
		P[l][l] = 0
		for _, id := range path {
			P[l][id] += self
		}
	}
	return P
}

// TestSanitizeProtMatchesDenseOracle: the row-by-row sanitizeProt returns,
// bit for bit, the nonzeros of the dense oracle's rows — on FW's
// protection iterate at packaging for five topologies, and on hand-built
// rows that reach each branch: noise paths dropped, a row with no paths
// (the solver's row comes back, loops and all), a forced detour around a
// self-routed link and a self-routed bridge left alone. Its rows are
// canonical and packed, and its input is left as it was.
func TestSanitizeProtMatchesDenseOracle(t *testing.T) {
	for _, tg := range []struct {
		name string
		g    *graph.Graph
	}{
		{"ring5", ring5(t)},
		{"mesh6", mesh6(t)},
		{"abilene", topo.Abilene()},
		{"sbc", topo.SBC()},
		{"generated-100", topo.Generated()},
	} {
		d := traffic.Gravity(tg.g, 0.15*tg.g.TotalCapacity(), 1)
		comms := unionCommodities([]*traffic.Matrix{d})
		cfg := Config{Model: ArbitraryFailures{F: 1}, Workers: 1}
		st, err := newFWState(tg.g, comms, []requirement{{demands: demandVector(comms, d), model: cfg.Model}}, cfg, fwObs{})
		if err != nil {
			t.Fatal(err)
		}
		st.run(40, obs.Span{})
		checkSanitize(t, tg.name, tg.g, st.P)
	}

	// a, b, c form a triangle of duplex links; d hangs off a by a bridge.
	g := graph.New("branches")
	a, b, c, d := g.AddNode("a"), g.AddNode("b"), g.AddNode("c"), g.AddNode("d")
	for _, l := range [][2]graph.NodeID{{a, b}, {b, a}, {b, c}, {c, b}, {a, c}, {c, a}, {a, d}, {d, a}} {
		g.AddLink(l[0], l[1], 10, 1, 1)
	}
	rows := func(dense map[int][]float64) []routing.SparseRow {
		out := make([]routing.SparseRow, g.NumLinks())
		for l, fr := range dense {
			out[l].SetDense(fr)
		}
		return out
	}
	// Row columns are the links in the order added: ab, ba, bc, cb, ac, ca, ad, da.
	in := rows(map[int][]float64{
		0: {1, 0, 0, 0, 0, 0, 0, 0},             // a->b on itself: detoured over a->c->b
		2: {0, 0, 0, 0, 0.5, 0.5, 0, 0},         // b->c as a circulation a->c->a: no path
		3: {0.998, 0, 0, 0.002, 0, 0.998, 0, 0}, // c->a->b plus a noise path c->b
		6: {0, 0, 0, 0, 0, 0, 1, 0},             // a->d on itself: a bridge
	})
	got := checkSanitize(t, "branches", g, in)
	for l, want := range rows(map[int][]float64{
		0: {0, 0, 0, 1, 1, 0, 0, 0},
		2: {0, 0, 0, 0, 0.5, 0.5, 0, 0},
		3: {1, 0, 0, 0, 0, 1, 0, 0},
		6: {0, 0, 0, 0, 0, 0, 1, 0},
	}) {
		if !slices.Equal(got[l].Idx, want.Idx) || !slices.Equal(got[l].Val, want.Val) {
			t.Errorf("branches: row %d is %v, want %v", l, got[l], want)
		}
	}
}

// checkSanitize runs sanitizeProt and its dense oracle on prot, fails the
// test unless each returned row is the nonzeros of the oracle's, bit for
// bit, in canonical packed form and with prot unchanged, and returns the
// rows.
func checkSanitize(t *testing.T, name string, g *graph.Graph, prot []routing.SparseRow) []routing.SparseRow {
	t.Helper()
	before := make([]routing.SparseRow, len(prot))
	for l := range prot {
		before[l].CopyFrom(&prot[l])
	}
	want := sanitizeProtDense(g, prot)
	got := sanitizeProt(g, prot)
	checkCanonicalRows(t, name, got, g.NumLinks())
	var w routing.SparseRow
	for l := range want {
		w.SetDense(want[l])
		if !slices.Equal(got[l].Idx, w.Idx) || !slices.EqualFunc(got[l].Val, w.Val, func(x, y float64) bool {
			return math.Float64bits(x) == math.Float64bits(y)
		}) {
			t.Fatalf("%s: row %d is %v, dense oracle %v", name, l, got[l], w)
		}
		if !slices.Equal(prot[l].Idx, before[l].Idx) || !slices.Equal(prot[l].Val, before[l].Val) {
			t.Fatalf("%s: sanitizeProt wrote its input row %d", name, l)
		}
	}
	return got
}
