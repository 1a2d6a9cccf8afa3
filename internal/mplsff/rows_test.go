package mplsff

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// failOp is one failure a state went through: R3's rescaling when xi is
// nil, an interim detour through FailWith otherwise.
type failOp struct {
	e  graph.LinkID
	xi []float64
}

// recipe is what a network's rows are programmed from: the failures of
// the state its ILM was programmed from, in order, and the FIB rows set
// by SetFIBRow since Build.
type recipe struct {
	ops []failOp
	fib map[[2]graph.NodeID][]NHLFE
}

// chainNode is one network of a clone chain with the recipe a fresh
// Build must reproduce. A stale node applied a round: its rows are
// another network's, its bookkeeping state still its own (stateOps), so
// OnFailure is not driven on it.
type chainNode struct {
	net      *Network
	rec      recipe
	stateOps []failOp
	stale    bool
	snap     [][]entry
}

func replay(t *testing.T, plan *core.Plan, ops []failOp) *core.State {
	t.Helper()
	st := core.NewState(plan)
	for _, op := range ops {
		var err error
		if op.xi == nil {
			err = st.Fail(op.e)
		} else {
			err = st.FailWith(op.e, op.xi)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// fresh builds a network from scratch for a recipe.
func fresh(t *testing.T, plan *core.Plan, rec recipe) *Network {
	n := Build(plan).Reprogrammed(replay(t, plan, rec.ops))
	for od, entries := range rec.fib {
		n.SetFIBRow(od, entries)
	}
	return n
}

// deepRows copies every row's entries.
func deepRows(rows [][]entry) [][]entry {
	cp := make([][]entry, len(rows))
	for i, r := range rows {
		cp[i] = slices.Clone(full(r))[:len(r):cap(r)]
	}
	return cp
}

// rowsDiffer returns the first row whose entries differ bit for bit, or
// -1.
func rowsDiffer(a, b [][]entry) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if len(a[i]) != len(b[i]) || cap(a[i]) != cap(b[i]) {
			return i
		}
		for j, x := range full(a[i]) {
			y := full(b[i])[j]
			if x.key != y.key || x.out != y.out || math.Float64bits(x.ratio) != math.Float64bits(y.ratio) {
				return i
			}
		}
	}
	return -1
}

func failedOf(ops []failOp) graph.LinkSet {
	var s graph.LinkSet
	for _, op := range ops {
		s.Add(op.e)
	}
	return s
}

// TestNetworkMatchesFreshBuild drives random clone chains through
// OnFailure, Reprogrammed of states with FailWith interim detours (from
// the node's own failures or from an unrelated set), ApplyRound of a diff
// to another network and SetFIBRow. After every step every FIB and ILM
// row, the failed links' frozen rows included, equals a fresh Build of
// the same inputs bit for bit, and no network a chain was cloned from has
// changed. A programming routine that rewrote an installed row in place
// would change a shared row under the networks cloned before it.
func TestNetworkMatchesFreshBuild(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"ring5", ring5()},
		{"abilene", topo.Abilene()},
		{"sbc", topo.SBC()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.g
			plan, err := core.Precompute(g, traffic.Gravity(g, 0.15*g.TotalCapacity(), 5), core.Config{
				Model: core.ArbitraryFailures{F: 1}, Iterations: 30,
			})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(g.NumLinks())))
			root := Build(plan)
			nodes := []*chainNode{{net: root, snap: deepRows(root.rows)}}

			surviving := func(ops []failOp) graph.LinkID {
				failed := failedOf(ops)
				for {
					if e := graph.LinkID(rng.Intn(g.NumLinks())); !failed.Contains(e) {
						return e
					}
				}
			}
			// step derives a network from x by one random operation other
			// than ApplyRound and returns it with its node.
			step := func(x *chainNode) (*chainNode, string) {
				c := &chainNode{net: x.net.Clone(), rec: x.rec, stateOps: x.stateOps, stale: x.stale}
				limit := g.NumLinks() / 3
				switch op := rng.Intn(3); {
				case op == 0 && !x.stale && len(x.stateOps) < limit:
					e := surviving(x.stateOps)
					if err := c.net.OnFailure(e); err != nil {
						t.Fatal(err)
					}
					c.rec.ops = append(append([]failOp(nil), x.rec.ops...), failOp{e: e})
					c.stateOps = c.rec.ops
					return c, fmt.Sprintf("OnFailure(%d)", e)
				case op <= 1:
					// An interim detour on top of the node's own
					// failures, or on an unrelated failure set.
					var ops []failOp
					if rng.Intn(2) == 0 && len(x.stateOps) < limit {
						ops = append(ops, x.stateOps...)
					} else {
						for k := rng.Intn(3); k > 0; k-- {
							ops = append(ops, failOp{e: surviving(ops)})
						}
					}
					e := surviving(ops)
					xi := make([]float64, g.NumLinks())
					for k := 1 + rng.Intn(4); k > 0; k-- {
						if l := rng.Intn(g.NumLinks()); graph.LinkID(l) != e {
							xi[l] = rng.Float64()
						}
					}
					ops = append(ops, failOp{e: e, xi: xi})
					c.net = x.net.Reprogrammed(replay(t, plan, ops))
					c.rec.ops, c.stateOps, c.stale = ops, ops, false
					return c, fmt.Sprintf("Reprogrammed(%d failures, interim %d)", len(ops), e)
				default:
					k := rng.Intn(len(plan.Comms))
					od := [2]graph.NodeID{plan.Comms[k].Src, plan.Comms[k].Dst}
					var entries []NHLFE
					if rng.Intn(4) > 0 {
						for l := range g.NumLinks() {
							if rng.Intn(4) == 0 {
								entries = append(entries, NHLFE{Out: graph.LinkID(l), Ratio: rng.Float64()})
							}
						}
					}
					c.net.SetFIBRow(od, entries)
					fib := make(map[[2]graph.NodeID][]NHLFE, len(x.rec.fib)+1)
					for k, v := range x.rec.fib {
						fib[k] = v
					}
					fib[od] = entries
					c.rec.fib = fib
					return c, fmt.Sprintf("SetFIBRow(%v, %d entries)", od, len(entries))
				}
			}

			for s := 0; s < 40; s++ {
				x := nodes[rng.Intn(len(nodes))]
				c, what := step(x)
				if rng.Intn(4) == 0 {
					// Ship x → c as a round to a clone of x.
					d := Diff(x.net, c.net)
					v := &chainNode{net: x.net.Clone(), rec: c.rec, stateOps: x.stateOps, stale: true}
					if got := v.net.ApplyRound(v.net.nextRound, d); got != 1 {
						t.Fatalf("step %d: ApplyRound applied %d rounds", s, got)
					}
					c, what = v, "ApplyRound("+what+")"
				}
				want := fresh(t, plan, c.rec)
				if i := rowsDiffer(c.net.rows, want.rows); i >= 0 {
					t.Fatalf("step %d (%s): row %d = %v, a fresh Build has %v", s, what, i, c.net.rows[i], want.rows[i])
				}
				if !c.stale && !c.net.failed.Equal(want.failed) {
					t.Fatalf("step %d (%s): knows failed %v, a fresh Build %v", s, what, c.net.failed.IDs(), want.failed.IDs())
				}
				c.snap = deepRows(c.net.rows)
				nodes = append(nodes, c)
				for j, p := range nodes {
					if i := rowsDiffer(p.net.rows, p.snap); i >= 0 {
						t.Fatalf("step %d (%s): row %d of network %d changed under it", s, what, i, j)
					}
				}
			}
		})
	}
}

// ring5 is a five-node ring with two chords.
func ring5() *graph.Graph {
	g := graph.New("ring5")
	var n [5]graph.NodeID
	for i := range n {
		n[i] = g.AddNode(fmt.Sprint("n", i))
	}
	for i := range n {
		g.AddDuplex(n[i], n[(i+1)%5], 100, 1, 1)
	}
	g.AddDuplex(n[0], n[2], 100, 1, 1)
	g.AddDuplex(n[1], n[3], 100, 1, 1)
	return g
}

// allocBytes returns the bytes f allocates.
func allocBytes(f func()) uint64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return b.TotalAlloc - a.TotalAlloc
}

// TestNetworkAllocationIsProportionalToWhatChanges: Clone copies row
// headers, not entries, and a failure installs new storage for exactly
// the rows whose entries changed, allocating little beyond them and the
// state's own update.
func TestNetworkAllocationIsProportionalToWhatChanges(t *testing.T) {
	g := topo.Generated()
	plan, err := core.Precompute(g, traffic.Gravity(g, 0.15*g.TotalCapacity(), 2), core.Config{
		Model: core.ArbitraryFailures{F: 1}, Iterations: 2, PenaltyEnvelope: 1.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	n := Build(plan)
	n.Clone() // the state's first clone marks its rows shared
	headers := uint64(len(n.rows)) * uint64(unsafe.Sizeof([]entry(nil)))
	state := allocBytes(func() { n.state.Clone() })
	// The constant covers the Network itself and the header slice's
	// rounding up to whole pages.
	if got := allocBytes(func() { n.Clone() }); got > headers+state+4096 {
		t.Errorf("generated-100 Clone allocates %d B, want ≤ %d B of row headers + %d B of state + 4 KB", got, headers, state)
	}

	_, ab := buildAbilene(t)
	for _, e := range []graph.LinkID{0, 7, 19} {
		c := ab.Clone()
		before := c.rows
		c.rows = append([][]entry(nil), before...)
		_ = ab.state.Clone().Fail(e) // builds the plan's lazy indexes
		st := ab.state.Clone()
		fail := allocBytes(func() { _ = st.Fail(e) })
		got := allocBytes(func() { _ = c.OnFailure(e) })
		var rowBytes uint64
		changed := 0
		for i, r := range c.rows {
			same := len(r) == len(before[i]) && (len(r) == 0 || &r[0] == &before[i][0])
			if differ := rowsDiffer([][]entry{r}, [][]entry{before[i]}) >= 0; same == differ {
				t.Fatalf("link %d: row %d reinstalled=%v but its entries changed=%v", e, i, !same, differ)
			}
			if !same {
				changed++
				rowBytes += uint64(len(r)) * uint64(unsafe.Sizeof(entry{}))
			}
		}
		// Scratch: the entry buffer and the protection row, each at most
		// a link's worth per link, grown once per network.
		scratch := uint64(64 * ab.G.NumLinks())
		if got > fail+2*rowBytes+scratch {
			t.Errorf("link %d: OnFailure allocates %d B; the state's update is %d B and the %d changed rows hold %d B",
				e, got, fail, changed, rowBytes)
		}
		t.Logf("link %d: OnFailure %d B, state %d B, %d of %d rows changed (%d B)", e, got, fail, changed, len(c.rows), rowBytes)
	}
}

// TestRowIndexMatchesDrafts lays out random rows, their routers drawn
// from up to 300 IDs so that a row spans one to five 64-router blocks,
// and requires the index to give back exactly what was written: seg of
// every router its entries in order, or none, and parts every router
// with entries once, ascending. A row costs its entries plus one entry
// per block it touches.
func TestRowIndexMatchesDrafts(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var scratch []entry
	for trial := 0; trial < 500; trial++ {
		nodes := 1 + rng.Intn(300)
		var ds []draft
		for range rng.Intn(40) {
			ds = append(ds, draft{at: int32(rng.Intn(nodes)), out: int32(rng.Intn(1000)), ratio: rng.Float64()})
		}
		slices.SortStableFunc(ds, func(a, b draft) int { return int(a.at - b.at) })
		row := layout(&scratch, ds)
		blocks := 0
		for j, d := range ds {
			if j == 0 || d.at>>6 != ds[j-1].at>>6 {
				blocks++
			}
		}
		if len(row) != len(ds) || cap(row) != len(ds)+blocks {
			t.Fatalf("trial %d: row of %d drafts in %d blocks has length %d, capacity %d", trial, len(ds), blocks, len(row), cap(row))
		}
		for u := range nodes {
			var want []draft
			for _, d := range ds {
				if d.at == int32(u) {
					want = append(want, d)
				}
			}
			got := seg(row, graph.NodeID(u))
			if !slices.EqualFunc(got, want, func(e entry, d draft) bool { return e.out == d.out && e.ratio == d.ratio }) {
				t.Fatalf("trial %d: router %d's part is %v, its drafts %v", trial, u, got, want)
			}
		}
		next := 0
		parts(row, func(u graph.NodeID, part []entry) {
			if next == len(ds) || int32(u) != ds[next].at {
				t.Fatalf("trial %d: parts gives router %d at draft %d of %v", trial, u, next, ds)
			}
			if !slices.Equal(part, seg(row, u)) {
				t.Fatalf("trial %d: parts gives router %d %v, seg %v", trial, u, part, seg(row, u))
			}
			next += len(part)
		})
		if next != len(ds) {
			t.Fatalf("trial %d: parts covered %d of %d entries", trial, next, len(ds))
		}
	}
}
