package mcf

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/lp"
	"repro/internal/routing"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// minMLUExactPerOD is MinMLUExact as it was before its LP was aggregated
// by destination: one variable per (commodity, link), [R1]-[R3] rows per
// reachable commodity, an unreachable commodity's row pinned to zero, and
// the same capacity and kill rows. It is kept as the oracle MinMLUExact's
// optimum is held to. Its shape depends on which commodities are
// reachable, so a partition does not warm-start here.
func minMLUExactPerOD(g *graph.Graph, comms []routing.Commodity, opts Options) (*Result, error) {
	opts.defaults()
	nL := g.NumLinks()
	down := downSet(nL, opts.Alive, &graph.LinkSet{})
	aliveLinks := make([]bool, nL)
	for e := 0; e < nL; e++ {
		aliveLinks[e] = down == nil || !down.Contains(graph.LinkID(e))
	}
	bg := opts.Background
	if bg == nil {
		bg = make([]float64, nL)
	}

	o := newPathOracle(g, comms, down)
	reach, dropped := o.reach, o.dropped

	p := lp.NewProblem()
	p.Obs = opts.Obs
	mluVar := p.AddVariable("MLU", 1)
	// varOf[k*nL+e] is the variable index of commodity k on link e. Every
	// (commodity, link) pair gets a variable so the shape is
	// scenario-independent; kill rows force dead-link flow to zero.
	varOf := make([]int, len(comms)*nL)
	for i := range varOf {
		varOf[i] = p.AddVariable("", 0)
	}

	// Routing constraints [R1]-[R3] per reachable commodity. An
	// unreachable commodity instead has its whole row pinned to zero so
	// it cannot carry junk flow into the capacity rows.
	for k, c := range comms {
		if !reach[k] {
			terms := make([]lp.Term, 0, nL)
			for e := 0; e < nL; e++ {
				terms = append(terms, lp.Term{Var: varOf[k*nL+e], Coef: 1})
			}
			p.AddConstraint(terms, lp.EQ, 0)
			continue
		}
		// [R2] source emits one unit net (allowing no return flow [R3]).
		var src []lp.Term
		for _, id := range g.Out(c.Src) {
			src = append(src, lp.Term{Var: varOf[k*nL+int(id)], Coef: 1})
		}
		p.AddConstraint(src, lp.EQ, 1)
		// [R3] nothing enters the source.
		for _, id := range g.In(c.Src) {
			p.AddConstraint([]lp.Term{{Var: varOf[k*nL+int(id)], Coef: 1}}, lp.EQ, 0)
		}
		// [R1] conservation at intermediate nodes.
		for n := 0; n < g.NumNodes(); n++ {
			node := graph.NodeID(n)
			if node == c.Src || node == c.Dst {
				continue
			}
			var terms []lp.Term
			for _, id := range g.In(node) {
				terms = append(terms, lp.Term{Var: varOf[k*nL+int(id)], Coef: 1})
			}
			for _, id := range g.Out(node) {
				terms = append(terms, lp.Term{Var: varOf[k*nL+int(id)], Coef: -1})
			}
			if terms != nil {
				p.AddConstraint(terms, lp.EQ, 0)
			}
		}
	}

	// Capacity: sum_k d_k f_k(e) + bg_e <= MLU * c_e. Failed links keep
	// their row with a zero rhs (no background on a dead link); their
	// flow terms are annihilated by the kill rows below, so the row
	// degenerates to 0 <= MLU·c_e.
	for e := 0; e < nL; e++ {
		cEdge := g.Link(graph.LinkID(e)).Capacity
		if opts.CapScale != nil {
			// Degraded capacity changes only this coefficient, never the
			// sparsity pattern, so warm bases stay shape-compatible across
			// degradation scenarios exactly as across failure scenarios.
			cEdge *= opts.CapScale[e]
		}
		terms := []lp.Term{{Var: mluVar, Coef: -cEdge}}
		for k, c := range comms {
			if c.Demand > 0 {
				terms = append(terms, lp.Term{Var: varOf[k*nL+e], Coef: c.Demand})
			}
		}
		rhs := 0.0
		if aliveLinks[e] {
			rhs = -bg[e]
		}
		p.AddConstraint(terms, lp.LE, rhs)
	}

	// Kill rows: one per link, sum_k coef_k f_k(e) <= U_e with U_e = 0
	// when the link is failed (forcing every commodity's flow on it to
	// zero) and a slack bound exceeding any cycle-free total when alive
	// (never binding). Failures flip only these rhs values, keeping the
	// constraint matrix — and hence warm-start basis compatibility —
	// scenario-invariant.
	killSlack := 1.0
	kcoef := make([]float64, len(comms))
	for k, c := range comms {
		kcoef[k] = c.Demand
		if kcoef[k] <= 0 {
			kcoef[k] = 1
		}
		killSlack += kcoef[k]
	}
	for e := 0; e < nL; e++ {
		terms := make([]lp.Term, 0, len(comms))
		for k := range comms {
			terms = append(terms, lp.Term{Var: varOf[k*nL+e], Coef: kcoef[k]})
		}
		rhs := 0.0
		if aliveLinks[e] {
			rhs = killSlack
		}
		p.AddConstraint(terms, lp.LE, rhs)
	}

	sol, err := p.SolveFrom(opts.Warm)
	if err != nil {
		return nil, err
	}
	if sol.Status != lp.Optimal {
		return nil, fmt.Errorf("mcf: LP status %v", sol.Status)
	}
	res := &Result{Rows: make([]routing.SparseRow, len(comms)), Dropped: dropped, Basis: sol.Basis, g: g, comms: comms}
	for k := range comms {
		if !reach[k] {
			continue
		}
		row := &res.Rows[k]
		for e := 0; e < nL; e++ {
			// Dead links carry only kill-row tolerance noise; leave them out
			// so extracted flows match the alive-only formulation exactly.
			if v := sol.X[varOf[k*nL+e]]; aliveLinks[e] && v != 0 {
				row.Idx = append(row.Idx, int32(e))
				row.Val = append(row.Val, v)
			}
		}
	}
	var loops routing.LoopScratch
	res.cancelLoops(make([]float64, nL), &loops)
	final := append([]float64(nil), bg...)
	res.AddLoads(final)
	mlu := 0.0
	for e := 0; e < nL; e++ {
		c := g.Link(graph.LinkID(e)).Capacity
		if opts.CapScale != nil {
			c *= opts.CapScale[e]
		}
		if u := final[e] / c; u > mlu {
			mlu = u
		}
	}
	res.MLU = mlu
	return res, nil
}

// TestSplitRowsCancelsLoopsFirst hands splitRows a destination flow on
// ring5 with a loop through its source: 0→4→3→2 plus a circulation
// 0→4→0. Split as it stands, the source has an in-link and no topological
// position, and its unit would take the hop-count path 0→1→2. With the
// loop cancelled first, the row is the flow's own path.
func TestSplitRowsCancelsLoopsFirst(t *testing.T) {
	g := ring5()
	comms := []routing.Commodity{{Src: 0, Dst: 2, Demand: 1}}
	o := newPathOracle(g, comms, nil)
	sol := &destSolution{
		dests:  []graph.NodeID{2},
		flows:  []routing.SparseRow{{Idx: []int32{5, 7, 8, 9}, Val: []float64{1, 1, 0.5, 1.5}}},
		totals: []float64{1},
	}
	rows := make([]routing.SparseRow, 1)
	o.splitRows(g, sol, rows)
	if want := (routing.SparseRow{Idx: []int32{5, 7, 9}, Val: []float64{1, 1, 1}}); !reflect.DeepEqual(rows[0], want) {
		t.Fatalf("row %v, want %v", rows[0], want)
	}
}

// exactCase is one instance of the per-destination LP's differential.
type exactCase struct {
	name  string
	g     *graph.Graph
	comms []routing.Commodity
	opts  Options
}

// exactOracleCases are the instances MinMLUExact is held to the per-OD
// oracle on: ring5, mesh6, Abilene and SBC under gravity traffic, Abilene
// restricted by Alive, CapScale, Background and a partition, and ring5 with
// zero-demand commodities, one the flow passes through and one it does not.
// SBC's per-OD oracle takes about 5 s, so -short and race builds leave it out.
func exactOracleCases(t *testing.T) []exactCase {
	t.Helper()
	ring := ring5()
	mesh := topo.Mesh("mesh6", 6, 18, 3, 10)
	ab := topo.Abilene()
	gravity := func(g *graph.Graph, seed int64) []routing.Commodity {
		return routing.ODCommodities(g.NumNodes(), traffic.Gravity(g, 0.15*g.TotalCapacity(), seed).At)
	}
	abComms := gravity(ab, 1)

	oneDuplex := graph.NewLinkSet(4, 5)
	isolated := graph.NodeID(3)
	partition := graph.NewLinkSet()
	for _, id := range append(append([]graph.LinkID(nil), ab.Out(isolated)...), ab.In(isolated)...) {
		partition.Add(id)
	}
	scale := make([]float64, ab.NumLinks())
	bg := make([]float64, ab.NumLinks())
	for e := range scale {
		scale[e] = 0.5 + 0.5*float64(e%3)/2
		bg[e] = 0.05 * float64(e%4) * ab.Link(graph.LinkID(e)).Capacity
	}

	// Ring traffic plus zero-demand pairs: 1→2 lies on 0→2's flow, and 1→4
	// on no flow towards 4, so it takes the hop-count path.
	ringComms := []routing.Commodity{
		{Src: 0, Dst: 2, Demand: 12},
		{Src: 2, Dst: 4, Demand: 7},
		{Src: 4, Dst: 1, Demand: 9},
		{Src: 1, Dst: 2, Demand: 0},
		{Src: 1, Dst: 4, Demand: 0},
	}
	cases := []exactCase{
		{"ring5", ring, gravity(ring, 2), Options{}},
		{"ring5-zero-demand", ring, ringComms, Options{}},
		{"mesh6", mesh, gravity(mesh, 4), Options{}},
		{"abilene", ab, abComms, Options{}},
		{"abilene-alive", ab, abComms, Options{Alive: oneDuplex.Alive()}},
		{"abilene-capscale", ab, abComms, Options{CapScale: scale}},
		{"abilene-background", ab, abComms, Options{Background: bg}},
		{"abilene-partition", ab, abComms, Options{Alive: partition.Alive()}},
	}
	if !testing.Short() && !raceEnabled {
		sbc := topo.SBC()
		cases = append(cases, exactCase{"sbc", sbc, gravity(sbc, 1), Options{}})
	}
	return cases
}

// TestMinMLUExactMatchesPerODOracle holds the per-destination LP to the
// per-OD one it replaced: the same optimum within 1e-9 relative, the same
// dropped count, every reachable commodity's row a valid unit flow
// (Commodity.Validate) and every dropped one's empty, and the rows' loads
// the LP's own within 1e-12·c_e.
func TestMinMLUExactMatchesPerODOracle(t *testing.T) {
	for _, tc := range exactOracleCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			g, comms := tc.g, tc.comms
			want, err := minMLUExactPerOD(g, comms, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := MinMLUExact(g, comms, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got.MLU-want.MLU) > 1e-9*want.MLU {
				t.Fatalf("MLU %.17g, per-OD oracle %.17g", got.MLU, want.MLU)
			}
			if got.Dropped != want.Dropped {
				t.Fatalf("dropped %d, per-OD oracle %d", got.Dropped, want.Dropped)
			}
			if strings.Contains(tc.name, "partition") && got.Dropped == 0 {
				t.Fatal("the partition drops no commodity")
			}
			dense := denseFlow(got)
			o := newPathOracle(g, comms, downSet(g.NumLinks(), tc.opts.Alive, &graph.LinkSet{}))
			for k, c := range comms {
				if !o.reach[k] {
					if len(got.Rows[k].Idx) != 0 {
						t.Fatalf("dropped commodity %d routed: %v", k, got.Rows[k])
					}
					continue
				}
				if err := c.Validate(g, dense.Frac[k], 1e-9); err != nil {
					t.Fatalf("commodity %d (%d→%d, demand %v): %v", k, c.Src, c.Dst, c.Demand, err)
				}
			}

			// The LP's loads: each destination's flow times its supply.
			opts := tc.opts
			opts.defaults()
			capE := append([]float64(nil), g.CSR().Capacity...)
			for e := range capE {
				if opts.CapScale != nil {
					capE[e] *= opts.CapScale[e]
				}
			}
			bg := opts.Background
			if bg == nil {
				bg = make([]float64, g.NumLinks())
			}
			sol, err := solveDest(o, capE, bg, opts)
			if err != nil {
				t.Fatal(err)
			}
			lpLoads := make([]float64, g.NumLinks())
			for i := range sol.dests {
				sol.flows[i].AddLoads(sol.totals[i], lpLoads)
			}
			rowLoads := make([]float64, g.NumLinks())
			got.AddLoads(rowLoads)
			for e := range lpLoads {
				if d := math.Abs(rowLoads[e] - lpLoads[e]); d > 1e-12*capE[e] {
					t.Fatalf("link %d: rows load %v, LP load %v (off by %.3g·c_e)", e, rowLoads[e], lpLoads[e], d/capE[e])
				}
			}
		})
	}
}
