package mcf

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/spf"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// denseFlow is the dense view of a Result's rows: a [commodity][link]
// matrix for tests that index fractions by link.
func denseFlow(r *Result) *routing.Flow {
	f := routing.NewFlow(r.g, r.comms)
	for k := range r.Rows {
		r.Rows[k].Scatter(f.Frac[k])
	}
	return f
}

// validRows checks conditions [R1]–[R4] for every commodity of r on its
// dense row (routing.Commodity.Validate).
func validRows(r *Result, eps float64) error {
	f := denseFlow(r)
	for k, c := range f.Comms {
		if err := c.Validate(f.G, f.Frac[k], eps); err != nil {
			return fmt.Errorf("commodity %d: %v", k, err)
		}
	}
	return nil
}

// denseResult is what MinMLU's Result was while it held a dense Flow, and
// how many of its iterations repeated a stalled one: Repeats counts the
// iterations whose μ is bitwise that of a stalled iteration just before
// them, where MinMLU breaks.
type denseResult struct {
	Flow    *routing.Flow
	MLU     float64
	Dropped int
	Repeats int
}

// minMLUDense is MinMLU as it was before its iterate became sparse rows:
// dense [commodity][link] matrices for the iterate and the direction, and a
// fresh tree per destination and call for the oracle. It is kept as the
// oracle MinMLU is held to bit for bit. Its loops are cancelled on the
// dense rows by removeCyclesDense, so it shares no code with
// SparseRow.CancelLoops. Its line search is the full scan, lineSearchFull.
// It runs every iteration MinMLU skips at a repeated stall, and counts them.
func minMLUDense(g *graph.Graph, comms []routing.Commodity, opts Options) *denseResult {
	return minMLUDenseProbe(g, comms, opts, nil)
}

// minMLUDenseProbe is minMLUDense handing probe, when non-nil, the loads,
// direction loads and capacities of every line search before it runs.
func minMLUDenseProbe(g *graph.Graph, comms []routing.Commodity, opts Options, probe func(a, b, cap []float64)) *denseResult {
	opts.defaults()
	nL := g.NumLinks()
	f := routing.NewFlow(g, comms)

	cap := make([]float64, nL)
	for e := 0; e < nL; e++ {
		cap[e] = g.Link(graph.LinkID(e)).Capacity
		if opts.CapScale != nil {
			cap[e] *= opts.CapScale[e]
		}
	}
	bg := opts.Background
	if bg == nil {
		bg = make([]float64, nL)
	}

	// Reachability screen; remember reachable commodities.
	down := downSet(nL, opts.Alive, &graph.LinkSet{})
	reach := make([]bool, len(comms))
	dropped := 0
	unit := make([]float64, nL)
	for e := range unit {
		unit[e] = 1
	}
	var s spf.Scratch
	for k, c := range comms {
		spf.SPFTo(g.CSR(), c.Dst, unit, down, &s)
		if math.IsInf(s.Dist[c.Src], 1) {
			dropped++
			continue
		}
		reach[k] = true
	}

	// Initialize: route every reachable commodity on an
	// inverse-capacity-cost shortest path (a reasonable starting point
	// that avoids tiny links).
	loads := append([]float64(nil), bg...)
	invCap := make([]float64, nL)
	for e := range invCap {
		invCap[e] = 1e9 / cap[e]
	}
	assignShortestDense(g, f.Comms, reach, down, invCap, func(k int, path []graph.LinkID) {
		for _, id := range path {
			f.Frac[k][id] = 1
			loads[id] += comms[k].Demand
		}
	})

	mlu := util(loads, cap)
	if allZeroDemand(comms) || mlu == 0 {
		return &denseResult{Flow: f, MLU: util(bg, cap), Dropped: dropped}
	}

	// Frank–Wolfe on Φ_μ(loads) = μ ln Σ_e exp(util_e/μ), with μ shrinking
	// as the objective tightens. The exact line search works on the true
	// MLU (convex piecewise-linear along the segment); a zero step is a
	// stall, escaped by the μ schedule and bounded by a stall counter.
	dirFrac := make([][]float64, len(comms)) // reused direction rows
	gotDir := make([]bool, len(comms))
	stalls, stalledMu, repeats := 0, 0.0, 0
	for it := 0; it < opts.Iterations; it++ {
		mu := math.Max(mlu/500, mlu*0.05*math.Pow(0.97, float64(it)))
		if stalls > 0 && math.Float64bits(mu) == math.Float64bits(stalledMu) {
			repeats++
		}
		q := make([]float64, nL)
		softmax(q, loads, cap, mu)

		// Linear minimization oracle: shortest paths under cost q_e/c_e.
		cost := make([]float64, nL)
		for e := range cost {
			cost[e] = q[e]/cap[e] + 1e-15
		}
		dirLoads := append([]float64(nil), bg...)
		for k := range dirFrac {
			gotDir[k] = false
			if dirFrac[k] == nil {
				dirFrac[k] = make([]float64, nL)
			} else {
				for e := range dirFrac[k] {
					dirFrac[k][e] = 0
				}
			}
		}
		assignShortestDense(g, f.Comms, reach, down, cost, func(k int, path []graph.LinkID) {
			gotDir[k] = true
			for _, id := range path {
				dirFrac[k][id] = 1
				dirLoads[id] += comms[k].Demand
			}
		})
		// A commodity without a fresh direction keeps its current routing.
		for k := range comms {
			if !reach[k] || gotDir[k] {
				continue
			}
			copy(dirFrac[k], f.Frac[k])
			d := comms[k].Demand
			for e, v := range f.Frac[k] {
				if v != 0 {
					dirLoads[e] += d * v
				}
			}
		}

		// Gap estimate from the smoothed gradient inner products.
		gap := innerUtil(q, loads, cap) - innerUtil(q, dirLoads, cap)
		if gap < opts.relTol*mlu && it > 8 {
			break
		}

		if probe != nil {
			probe(loads, dirLoads, cap)
		}
		gamma := lineSearchFull(loads, dirLoads, cap)
		if gamma <= 1e-9 {
			stalls++
			if stalls > 24 {
				break
			}
			stalledMu = mu
			continue
		}
		stalls = 0
		for e := 0; e < nL; e++ {
			loads[e] = (1-gamma)*loads[e] + gamma*dirLoads[e]
		}
		for k := range comms {
			if !reach[k] {
				continue
			}
			fk, dk := f.Frac[k], dirFrac[k]
			for e := 0; e < nL; e++ {
				fk[e] = (1-gamma)*fk[e] + gamma*dk[e]
			}
		}
		mlu = util(loads, cap)
	}

	for k := range f.Frac {
		removeCyclesDense(g, f.Frac[k])
	}
	// Recompute exactly from the final fractions.
	final := append([]float64(nil), bg...)
	for k, c := range f.Comms {
		if c.Demand == 0 {
			continue
		}
		for e, v := range f.Frac[k] {
			if v != 0 {
				final[e] += c.Demand * v
			}
		}
	}
	return &denseResult{Flow: f, MLU: util(final, cap), Dropped: dropped, Repeats: repeats}
}

// assignShortest invokes emit(k, path) with one shortest path per
// reachable commodity under the given cost over the links outside down,
// sharing one reverse Dijkstra per destination. Paths follow the Dijkstra
// tree, so they are always simple.
func assignShortestDense(g *graph.Graph, comms []routing.Commodity, reach []bool, down *graph.LinkSet, cost []float64, emit func(int, []graph.LinkID)) {
	// Destinations are visited in first-seen commodity order, NOT map
	// iteration order: callers accumulate floating-point loads in emit
	// order, so a randomized order would make MinMLU's result vary run to
	// run (and break the solver's bit-reproducibility guarantee).
	groups := map[graph.NodeID][]int{}
	var order []graph.NodeID
	for k := range comms {
		if reach[k] {
			dst := comms[k].Dst
			if groups[dst] == nil {
				order = append(order, dst)
			}
			groups[dst] = append(groups[dst], k)
		}
	}
	var s spf.Scratch
	for _, dst := range order {
		spf.SPFTo(g.CSR(), dst, cost, down, &s)
		for _, k := range groups[dst] {
			if path := spf.PathFromNext(g.CSR(), comms[k].Src, s.Next, nil); path != nil {
				emit(k, path)
			}
		}
	}
}

// ring5 is a five-node duplex ring with uneven capacities.
func ring5() *graph.Graph {
	g := graph.New("ring5")
	for i := 0; i < 5; i++ {
		g.AddNode(string(rune('a' + i)))
	}
	for i := 0; i < 5; i++ {
		g.AddDuplex(graph.NodeID(i), graph.NodeID((i+1)%5), float64(10+5*i), 1, 1)
	}
	return g
}

// removeCyclesDense is the dense loop cancellation MinMLU's oracle ran
// before the kernel became sparse: a DFS from every node in ascending
// order cancels the bottleneck of the first cycle it closes, until no
// cycle of cells above 1e-12 is left. Cells that fall below 1e-12 become 0.
func removeCyclesDense(g *graph.Graph, frac []float64) {
	const eps = 1e-12
	for {
		cycle := findCycleDense(g, frac, eps)
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
			if frac[id] -= bottleneck; frac[id] < eps {
				frac[id] = 0
			}
		}
	}
}

func findCycleDense(g *graph.Graph, frac []float64, eps float64) []graph.LinkID {
	const (
		white = iota
		gray
		black
	)
	color := make([]int, g.NumNodes())
	parent := make([]graph.LinkID, g.NumNodes())
	var cycle []graph.LinkID
	var dfs func(u graph.NodeID) bool
	dfs = func(u graph.NodeID) bool {
		color[u] = gray
		for _, id := range g.Out(u) {
			if frac[id] <= eps {
				continue
			}
			switch v := g.Link(id).Dst; color[v] {
			case white:
				parent[v] = id
				if dfs(v) {
					return true
				}
			case gray:
				cycle = []graph.LinkID{id}
				for w := u; w != v; w = g.Link(parent[w]).Src {
					cycle = append(cycle, parent[w])
				}
				return true
			}
		}
		color[u] = black
		return false
	}
	for n := range color {
		if color[n] == white && dfs(graph.NodeID(n)) {
			return cycle
		}
	}
	return nil
}

// TestMinMLUMatchesDenseOracle holds the sparse-row MinMLU to the dense
// implementation it replaced: every fraction, the MLU and the drop count
// bit for bit, with no options and with each option that reaches the loop
// — a failure set that partitions a node off (so commodities drop and the
// destination order skips), background load, and degraded capacities.
// One scratch serves every solve on a topology, so nothing a solve leaves
// in it may reach the next. On generated-100, every 20th commodity of a
// gravity matrix runs past μ's floor into a repeated stall, where MinMLU
// breaks and the oracle runs on.
func TestMinMLUMatchesDenseOracle(t *testing.T) {
	for _, tc := range []struct {
		g       *graph.Graph
		total   float64
		seed    int64
		stride  int
		iters   int
		repeats bool // the plain solve must hit a repeated stall
	}{
		{ring5(), 30, 5, 1, 120, false},
		{topo.Abilene(), 300, 5, 1, 120, false},
		{topo.SBC(), 0.3 * topo.OC192 * 19, 5, 1, 60, false},
		{topo.Generated(), 0.15 * topo.Generated().TotalCapacity(), 2, 20, 150, true},
	} {
		g := tc.g
		nL := g.NumLinks()
		var comms []routing.Commodity
		for k, c := range routing.ODCommodities(g.NumNodes(), traffic.Gravity(g, tc.total, tc.seed).At) {
			if k%tc.stride == 0 {
				comms = append(comms, c)
			}
		}
		var sc Scratch

		// Node 1 loses every link (a partition), and one more duplex link
		// elsewhere fails.
		var down graph.LinkSet
		for e := 0; e < nL; e++ {
			l := g.Link(graph.LinkID(e))
			if l.Src == 1 || l.Dst == 1 {
				down.Add(l.ID)
			}
		}
		for e := nL - 1; e >= 0; e-- {
			if l := g.Link(graph.LinkID(e)); !down.Contains(l.ID) && l.Reverse >= 0 {
				down.Add(l.ID)
				down.Add(l.Reverse)
				break
			}
		}
		bg := make([]float64, nL)
		scale := make([]float64, nL)
		for e := range bg {
			bg[e] = 0.01 * float64(e%7) * g.Link(graph.LinkID(e)).Capacity
			scale[e] = 1 - 0.1*float64(e%4)
		}

		for _, oc := range []struct {
			name string
			opts Options
		}{
			{"plain", Options{}},
			{"alive", Options{Alive: func(id graph.LinkID) bool { return !down.Contains(id) }}},
			{"background", Options{Background: bg}},
			{"capscale", Options{CapScale: scale}},
		} {
			t.Run(g.Name+"/"+oc.name, func(t *testing.T) {
				opts := oc.opts
				opts.Iterations, opts.relTol = tc.iters, 1e-9 // run the full count, past the gap stop
				want := minMLUDense(g, comms, opts)
				got := MinMLUScratch(g, comms, opts, &sc)
				if oc.name == "alive" && want.Dropped == 0 {
					t.Fatal("the partition dropped no commodity: the case tests nothing")
				}
				if oc.name == "plain" && tc.repeats && want.Repeats == 0 {
					t.Fatal("no iteration repeated a stall: the case tests nothing")
				}
				if got.Dropped != want.Dropped {
					t.Fatalf("Dropped = %d, dense oracle %d", got.Dropped, want.Dropped)
				}
				if math.Float64bits(got.MLU) != math.Float64bits(want.MLU) {
					t.Fatalf("MLU = %v, dense oracle %v", got.MLU, want.MLU)
				}
				gotFlow := denseFlow(got)
				for k := range want.Flow.Frac {
					for e, w := range want.Flow.Frac[k] {
						if v := gotFlow.Frac[k][e]; math.Float64bits(v) != math.Float64bits(w) {
							t.Fatalf("Frac[%d][%d] = %v, dense oracle %v", k, e, v, w)
						}
					}
				}
			})
		}
	}
}

// TestMinMLUAllocatesLessThanADenseFlow: MinMLU keeps its iterate, cancels
// its loops and returns its result as sparse rows, so a whole solve on SBC
// — the base a pinned-base Precompute starts from — allocates less than
// one [commodity][link] matrix of float64s: less than the dense Flow it once
// built and returned cost on its own.
func TestMinMLUAllocatesLessThanADenseFlow(t *testing.T) {
	g := topo.SBC()
	comms := routing.ODCommodities(g.NumNodes(), traffic.Gravity(g, 0.15*g.TotalCapacity(), 1).At)
	solve := func() { MinMLU(g, comms, Options{Iterations: 300}) }
	solve() // the graph's CSR is built outside the count
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	solve()
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	dense := uint64(len(comms) * g.NumLinks() * 8)
	if got >= dense {
		t.Fatalf("MinMLU on SBC allocates %d B, a dense flow is %d B", got, dense)
	}
	t.Logf("MinMLU on SBC allocates %d B, a dense flow is %d B", got, dense)
}
