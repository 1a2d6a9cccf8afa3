package routing

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/topo"
)

// removeCyclesOracle is the loop cancellation as it was before the kernel
// took caller scratch and the sparse rows: a recursive DFS from every node
// in ascending order, with fresh color, parent and cycle buffers per search.
// It is kept as the oracle the kernel is held to bit for bit. It never
// returns on a cycle whose cells are all NaN or +Inf.
func removeCyclesOracle(g *graph.Graph, frac []float64) {
	const eps = 1e-12
	for {
		cycle := findCycleOracle(g, frac, eps)
		if cycle == nil {
			return
		}
		bottleneck := math.Inf(1)
		for _, id := range cycle {
			if frac[id] < bottleneck {
				bottleneck = frac[id]
			}
		}
		for _, id := range cycle {
			frac[id] -= bottleneck
			if frac[id] < eps {
				frac[id] = 0
			}
		}
	}
}

func findCycleOracle(g *graph.Graph, frac []float64, eps float64) []graph.LinkID {
	color := make([]int, g.NumNodes())
	parent := make([]graph.LinkID, g.NumNodes())
	for i := range parent {
		parent[i] = -1
	}
	var cycle []graph.LinkID
	var dfs func(u graph.NodeID) bool
	dfs = func(u graph.NodeID) bool {
		color[u] = gray
		for _, id := range g.Out(u) {
			if frac[id] <= eps {
				continue
			}
			v := g.Link(id).Dst
			switch color[v] {
			case white:
				parent[v] = id
				if dfs(v) {
					return true
				}
			case gray:
				cycle = []graph.LinkID{id}
				for w := u; w != v; {
					pid := parent[w]
					cycle = append(cycle, pid)
					w = g.Link(pid).Src
				}
				return true
			}
		}
		color[u] = black
		return false
	}
	for n := 0; n < g.NumNodes(); n++ {
		if color[n] == white && dfs(graph.NodeID(n)) {
			return cycle
		}
	}
	return nil
}

func ring5Graph() *graph.Graph {
	g := graph.New("ring5")
	for i := 0; i < 5; i++ {
		g.AddNode(string(rune('a' + i)))
	}
	for i := 0; i < 5; i++ {
		g.AddDuplex(graph.NodeID(i), graph.NodeID((i+1)%5), 100, 1, 1)
	}
	return g
}

// loopyRow draws a dense row full of circulations: a few weighted random
// walks (which revisit nodes, so they close cycles), a planted cycle
// through a random node, cells at and below the kernel's threshold, and
// sometimes a negative cell.
func loopyRow(rng *rand.Rand, g *graph.Graph) []float64 {
	nL := g.NumLinks()
	row := make([]float64, nL)
	walk := func(u graph.NodeID, steps int, w float64) {
		for i := 0; i < steps; i++ {
			out := g.Out(u)
			id := out[rng.Intn(len(out))]
			row[id] += w
			u = g.Link(id).Dst
		}
	}
	for i := rng.Intn(4); i >= 0; i-- {
		walk(graph.NodeID(rng.Intn(g.NumNodes())), 1+rng.Intn(3*g.NumNodes()), rng.Float64())
	}
	// A planted cycle: walk until a node repeats, then weight the loop.
	u := graph.NodeID(rng.Intn(g.NumNodes()))
	at := map[graph.NodeID]int{u: 0}
	var path []graph.LinkID
	for {
		out := g.Out(u)
		id := out[rng.Intn(len(out))]
		path = append(path, id)
		u = g.Link(id).Dst
		if i, ok := at[u]; ok {
			w := rng.Float64()
			for _, id := range path[i:] {
				row[id] += w
			}
			break
		}
		at[u] = len(path)
	}
	if rng.Intn(2) == 0 {
		// Keep one direction of every duplex pair: with the two-link cycles
		// gone, the cycles left are long and overlap, so the order the DFS
		// finds them in decides what is left.
		for _, l := range g.Links() {
			if l.Reverse > l.ID {
				row[[]graph.LinkID{l.ID, l.Reverse}[rng.Intn(2)]] = 0
			}
		}
	}
	for i := rng.Intn(3); i > 0; i-- {
		row[rng.Intn(nL)] = []float64{1e-12, 5e-13, 2e-12, 1e-300}[rng.Intn(4)]
	}
	if rng.Intn(6) == 0 {
		row[rng.Intn(nL)] = -rng.Float64()
	}
	return row
}

// sparseOf makes a row of the nonzero cells of dense in a random order, as
// an append-only support has them, plus a few slots holding exact zeros, as
// cells that decayed to zero keep.
func sparseOf(rng *rand.Rand, dense []float64) SparseRow {
	var r SparseRow
	for _, e := range rng.Perm(len(dense)) {
		if v := dense[e]; v != 0 || rng.Intn(8) == 0 {
			r.Idx = append(r.Idx, int32(e))
			r.Val = append(r.Val, v)
		}
	}
	return r
}

// checkCancel runs the kernel's two entry points on dense and compares each
// with the oracle bit for bit: the sparse row must be the oracle's nonzero
// cells in ascending link order, and the Flow's row the oracle's row.
func checkCancel(t *testing.T, g *graph.Graph, dense []float64, r SparseRow, zero []float64, s *LoopScratch) {
	t.Helper()
	want := append([]float64(nil), dense...)
	removeCyclesOracle(g, want)
	var wantRow SparseRow
	wantRow.SetDense(want)

	r.CancelLoops(g, zero, s)
	if len(r.Idx) != len(wantRow.Idx) || len(r.Val) != len(r.Idx) {
		t.Fatalf("sparse row has %d links (%d values), oracle %d", len(r.Idx), len(r.Val), len(wantRow.Idx))
	}
	for j := range r.Idx {
		if r.Idx[j] != wantRow.Idx[j] || math.Float64bits(r.Val[j]) != math.Float64bits(wantRow.Val[j]) {
			t.Fatalf("sparse cell %d = link %d %v, oracle link %d %v", j, r.Idx[j], r.Val[j], wantRow.Idx[j], wantRow.Val[j])
		}
	}
	for e, v := range zero {
		if v != 0 {
			t.Fatalf("zero[%d] = %v after CancelLoops, want all zero", e, v)
		}
	}

	f := NewFlow(g, []Commodity{{Src: 0, Dst: 1, Link: -1}})
	copy(f.Frac[0], dense)
	removeLoops(f)
	for e, w := range want {
		if v := f.Frac[0][e]; math.Float64bits(v) != math.Float64bits(w) {
			t.Fatalf("removeLoops cell %d = %v, oracle %v", e, v, w)
		}
	}
}

// TestCancelLoopsMatchesDenseOracle holds the loop-cancellation kernel, on a
// sparse row and on a dense one (removeLoops), to the recursive dense kernel it
// replaced, on random rows with planted cycles over ring5, Abilene and
// generated-100. One scratch serves every row of a graph, so state leaking
// from one call into the next fails here too.
//
// The order of the DFS roots shows only where a cycle has no finite cell
// (see CancelLoops), where the oracle never returns, so one ring5 row is
// held to the dense kernel's outcome by hand: it has a finite two-link
// cycle a⇄b and an infinite one d⇄e, and a search from every node in
// ascending order cancels a⇄b before d⇄e stops it. Roots tried the other
// way round would stop first and leave a⇄b as it was.
func TestCancelLoopsMatchesDenseOracle(t *testing.T) {
	ring := ring5Graph()
	row := make([]float64, ring.NumLinks())
	row[0], row[1] = 0.5, 0.25                // a→b, b→a
	row[6], row[7] = math.Inf(1), math.Inf(1) // d→e, e→d
	want := append([]float64(nil), row...)
	want[0], want[1] = 0.25, 0
	// The support in descending link order, as an append-only row may hold it.
	r := SparseRow{Idx: []int32{7, 6, 1, 0}, Val: []float64{row[7], row[6], row[1], row[0]}}
	r.CancelLoops(ring, make([]float64, ring.NumLinks()), &LoopScratch{})
	f := NewFlow(ring, []Commodity{{Src: 0, Dst: 1, Link: -1}})
	copy(f.Frac[0], row)
	removeLoops(f)
	for e, w := range want {
		if v := f.Frac[0][e]; math.Float64bits(v) != math.Float64bits(w) {
			t.Fatalf("removeLoops cell %d = %v, the dense kernel's %v", e, v, w)
		}
	}
	clear(row)
	r.Scatter(row)
	for e, w := range want {
		if v := row[e]; math.Float64bits(v) != math.Float64bits(w) {
			t.Fatalf("CancelLoops cell %d = %v, the dense kernel's %v", e, v, w)
		}
	}

	for _, tc := range []struct {
		g    *graph.Graph
		rows int
	}{
		{ring5Graph(), 400},
		{topo.Abilene(), 300},
		{topo.Generated(), 150},
	} {
		rng := rand.New(rand.NewSource(int64(tc.g.NumLinks())))
		zero := make([]float64, tc.g.NumLinks())
		var s LoopScratch
		cycles := 0
		for i := 0; i < tc.rows; i++ {
			dense := loopyRow(rng, tc.g)
			if findCycleOracle(tc.g, dense, 1e-12) != nil {
				cycles++
			}
			checkCancel(t, tc.g, dense, sparseOf(rng, dense), zero, &s)
		}
		if cycles < tc.rows/2 {
			t.Fatalf("%s: only %d of %d rows had a cycle", tc.g.Name, cycles, tc.rows)
		}
	}
}

// FuzzCancelLoops is TestCancelLoopsMatchesDenseOracle on byte-decoded
// rows: each three bytes set one cell of a ring5 or Abilene row, the first
// byte choosing the link, the next two the value.
func FuzzCancelLoops(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 255, 255, 2, 128, 0, 4, 128, 0, 6, 128, 0})
	f.Add([]byte{1, 1, 9, 40, 7, 7, 3, 200, 1, 5, 255, 0, 7, 99, 99, 9, 10, 11})
	graphs := []*graph.Graph{ring5Graph(), topo.Abilene()}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		g := graphs[int(data[0])%len(graphs)]
		nL := g.NumLinks()
		dense := make([]float64, nL)
		for i := 1; i+2 < len(data); i += 3 {
			v := float64(int(data[i+1])<<8|int(data[i+2])) / 65535
			if data[i+1] == 0 && data[i+2] < 8 {
				v = []float64{0, 1e-12, 5e-13, 2e-12, 1e-300, -0.5, 1, 0.5}[data[i+2]]
			}
			dense[int(data[i])%nL] = v
		}
		rng := rand.New(rand.NewSource(int64(len(data))))
		var s LoopScratch
		checkCancel(t, g, dense, sparseOf(rng, dense), make([]float64, nL), &s)
	})
}

// TestCancelLoopsZeroAllocWarm: once its scratch has grown, the kernel
// allocates nothing, on a sparse row or a dense one.
func TestCancelLoopsZeroAllocWarm(t *testing.T) {
	g := topo.Abilene()
	rng := rand.New(rand.NewSource(3))
	var src, rows []SparseRow
	var dense, work [][]float64
	for i := 0; i < 16; i++ {
		d := loopyRow(rng, g)
		dense = append(dense, d)
		work = append(work, append([]float64(nil), d...))
		src = append(src, sparseOf(rng, d))
		rows = append(rows, SparseRow{})
	}
	zero := make([]float64, g.NumLinks())
	c := g.CSR()
	var s LoopScratch
	run := func() {
		for i := range rows {
			rows[i].CopyFrom(&src[i])
			rows[i].CancelLoops(g, zero, &s)
			copy(work[i], dense[i])
			s.removeCycles(c, work[i])
		}
	}
	run()
	if a := testing.AllocsPerRun(20, run); a != 0 {
		t.Fatalf("warm loop cancellation allocates %v times per %d rows, want 0", a, len(rows))
	}
}

// TestCancelLoopsStopsOnNonFinite: a cycle whose cells are NaN or +Inf has
// an infinite bottleneck, and subtracting it never empties the cycle (Inf −
// Inf is NaN). The kernel stops there instead of spinning, on both entry
// points; a cycle with one finite cell is still cancelled.
func TestCancelLoopsStopsOnNonFinite(t *testing.T) {
	g := ring5Graph()
	// Links 0, 2, 4, 6, 8 run a→b→c→d→e→a.
	for _, cells := range [][]float64{
		{math.NaN(), math.NaN(), math.NaN(), math.NaN(), math.NaN()},
		{math.Inf(1), math.Inf(1), math.Inf(1), math.Inf(1), math.Inf(1)},
		{math.NaN(), math.Inf(1), math.NaN(), math.Inf(1), math.NaN()},
		{math.NaN(), 0.25, math.Inf(1), math.NaN(), 1},
	} {
		dense := make([]float64, g.NumLinks())
		for i, v := range cells {
			dense[2*i] = v
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			f := NewFlow(g, []Commodity{{Src: 0, Dst: 1, Link: -1}})
			copy(f.Frac[0], dense)
			removeLoops(f)
			var r SparseRow
			r.SetDense(dense)
			var s LoopScratch
			r.CancelLoops(g, make([]float64, g.NumLinks()), &s)
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("loop cancellation on %v did not return", cells)
		}
	}
}
