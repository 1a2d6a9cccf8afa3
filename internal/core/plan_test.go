package core

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/spf"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// paperExample builds the §3.3 network: routers i, j with 4 parallel links
// of capacities 10, 20, 30, 40 (so the optimal protection splits
// 0.1/0.2/0.3/0.4).
func paperExample(t *testing.T) (*graph.Graph, graph.NodeID, graph.NodeID) {
	t.Helper()
	g := graph.New("par4")
	i := g.AddNode("i")
	j := g.AddNode("j")
	g.AddLink(i, j, 10, 1, 1) // e1 = 0
	g.AddLink(i, j, 20, 1, 1) // e2 = 1
	g.AddLink(i, j, 30, 1, 1) // e3 = 2
	g.AddLink(i, j, 40, 1, 1) // e4 = 3
	return g, i, j
}

// examplePlan returns a Plan whose protection routing matches the §3.3
// example: p_l = (0.1, 0.2, 0.3, 0.4) for every l.
func examplePlan(t *testing.T) *Plan {
	t.Helper()
	g, i, j := paperExample(t)
	base := routing.NewFlow(g, []routing.Commodity{{Src: i, Dst: j, Demand: 0}})
	base.Frac[0][3] = 1
	prot := make([][]float64, 4)
	for l := range prot {
		prot[l] = []float64{0.1, 0.2, 0.3, 0.4}
	}
	return withBase(&Plan{G: g, Model: ArbitraryFailures{F: 1}, Prot: sparseRows(prot)}, base)
}

func TestPaperExampleRescaling(t *testing.T) {
	// Paper §3.3: after e1 fails, ξ_e1 = (0, 2/9, 3/9, 4/9).
	st := NewState(examplePlan(t))
	if err := st.Fail(0); err != nil {
		t.Fatal(err)
	}
	xi := st.Detour(0)
	want := []float64{0, 2.0 / 9, 3.0 / 9, 4.0 / 9}
	for e := range want {
		if math.Abs(xi[e]-want[e]) > 1e-12 {
			t.Fatalf("xi[%d] = %v, want %v", e, xi[e], want[e])
		}
	}
	// And p'_e2 = (0, 0.2 + 0.1·2/9, 0.3 + 0.1·3/9, 0.4 + 0.1·4/9).
	p2 := stateProt(st)[1]
	wantP := []float64{0, 0.2 + 0.1*2.0/9, 0.3 + 0.1*3.0/9, 0.4 + 0.1*4.0/9}
	for e := range wantP {
		if math.Abs(p2[e]-wantP[e]) > 1e-12 {
			t.Fatalf("p'_e2[%d] = %v, want %v", e, p2[e], wantP[e])
		}
	}
	// The reconfigured protection still sums to 1 (valid routing).
	var sum float64
	for _, v := range p2 {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("p'_e2 sums to %v", sum)
	}
}

func TestBaseReroutedOnFailure(t *testing.T) {
	st := NewState(examplePlan(t))
	// Base routes on e4 (index 3). Fail it: traffic must move to the
	// detour ξ_e4 over e1..e3 proportional to 0.1/0.2/0.3 rescaled by 0.6.
	if err := st.Fail(3); err != nil {
		t.Fatal(err)
	}
	fr := stateBase(st).Frac[0]
	want := []float64{0.1 / 0.6, 0.2 / 0.6, 0.3 / 0.6, 0}
	for e := range want {
		if math.Abs(fr[e]-want[e]) > 1e-12 {
			t.Fatalf("r'[%d] = %v, want %v", e, fr[e], want[e])
		}
	}
	if d := st.Delivered(0); math.Abs(d-1) > 1e-12 {
		t.Fatalf("Delivered = %v, want 1", d)
	}
}

func TestFailTwicePanics(t *testing.T) {
	st := NewState(examplePlan(t))
	if err := st.Fail(0); err != nil {
		t.Fatal(err)
	}
	if err := st.Fail(0); err == nil {
		t.Fatalf("double failure accepted")
	}
}

func TestOrderIndependence(t *testing.T) {
	// Theorem 3: any permutation of the failure sequence yields the same
	// final routing.
	plan := examplePlan(t)
	perms := [][]graph.LinkID{
		{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0},
	}
	ref := NewState(plan)
	if err := ref.FailAll(perms[0]...); err != nil {
		t.Fatal(err)
	}
	for _, perm := range perms[1:] {
		st := NewState(plan)
		if err := st.FailAll(perm...); err != nil {
			t.Fatal(err)
		}
		if !st.ProtEquals(ref, 1e-9) {
			t.Fatalf("protection differs for order %v", perm)
		}
		if !st.BaseEquals(ref, 1e-9) {
			t.Fatalf("base differs for order %v", perm)
		}
	}
}

func TestPartitionDropsTraffic(t *testing.T) {
	// Two parallel links, fail both: demand is dropped, not misrouted.
	g := graph.New("par2")
	a := g.AddNode("a")
	b := g.AddNode("b")
	g.AddLink(a, b, 10, 1, 1)
	g.AddLink(a, b, 10, 1, 1)
	base := routing.NewFlow(g, []routing.Commodity{{Src: a, Dst: b, Demand: 5}})
	base.Frac[0][0] = 1
	prot := [][]float64{{0.5, 0.5}, {0.5, 0.5}}
	plan := withBase(&Plan{G: g, Model: ArbitraryFailures{F: 1}, Prot: sparseRows(prot)}, base)
	st := NewState(plan)
	if err := st.FailAll(0, 1); err != nil {
		t.Fatal(err)
	}
	if d := st.Delivered(0); d != 0 {
		t.Fatalf("Delivered = %v, want 0 after partition", d)
	}
	loads := st.Loads()
	for e, l := range loads {
		if l != 0 {
			t.Fatalf("load on link %d = %v after partition", e, l)
		}
	}
	if st.MLU() != 0 {
		t.Fatalf("MLU = %v", st.MLU())
	}
}

func TestVirtualLoadAndEvaluate(t *testing.T) {
	plan := examplePlan(t)
	// v_e for link 0: c_l * p_l(0) = (1,2,3,4); worst single = 4.
	if got := virtualLoad(plan, 0); math.Abs(got-4) > 1e-12 {
		t.Fatalf("virtualLoad(0) = %v, want 4", got)
	}
	// Evaluate: worst over links of virtual/capacity: link0: 4/10 = 0.4,
	// link3: 16/40 = 0.4 (base demand is 0).
	if got := plan.Evaluate(); math.Abs(got-0.4) > 1e-12 {
		t.Fatalf("Evaluate = %v, want 0.4", got)
	}
	plan.MLU = 0.4
	if !plan.CongestionFree() {
		t.Fatalf("plan with MLU 0.4 not congestion free")
	}
	plan.MLU = 1.2
	if plan.CongestionFree() {
		t.Fatalf("plan with MLU 1.2 reported congestion free")
	}
}

func TestStateAccessors(t *testing.T) {
	st := NewState(examplePlan(t))
	if !st.Failed().Empty() {
		t.Fatalf("fresh state has failures")
	}
	if st.Detour(0) != nil {
		t.Fatalf("detour before failure")
	}
	if err := st.Fail(1); err != nil {
		t.Fatal(err)
	}
	if !st.Failed().Contains(1) {
		t.Fatalf("Failed() missing link 1")
	}
}

// withBase stores a hand-built dense base routing in the plan the way the
// solvers and the decoder do: its commodities, and each row's nonzeros.
func withBase(p *Plan, f *routing.Flow) *Plan {
	p.Comms = append([]routing.Commodity(nil), f.Comms...)
	p.Base = make([]routing.SparseRow, len(f.Frac))
	for k, fr := range f.Frac {
		p.Base[k].SetDense(fr)
	}
	return p
}

// sparseRows stores hand-built dense rows the way the solvers and the
// decoder do: each row's nonzeros, packed.
func sparseRows(dense [][]float64) []routing.SparseRow {
	rows := make([]routing.SparseRow, len(dense))
	for l, fr := range dense {
		rows[l].SetDense(fr)
	}
	return routing.Pack(rows)
}

// denseProt is the dense view of a plan's protection routing.
func denseProt(p *Plan) [][]float64 {
	out := make([][]float64, len(p.Prot))
	for l := range p.Prot {
		out[l] = make([]float64, p.G.NumLinks())
		p.Prot[l].Scatter(out[l])
	}
	return out
}

// stateProt is the dense view of a state's current protection routing.
func stateProt(s *State) [][]float64 {
	out := make([][]float64, len(s.plan.Prot))
	for u := range out {
		out[u] = make([]float64, s.G.NumLinks())
		s.prot.dense(s.plan.Prot, u, out[u])
	}
	return out
}

// virtualLoad returns the worst-case virtual (rerouted) load on link e
// under the plan's failure model: the model's worst case of c_l·p_l(e)
// over the protection column of e, read cell by cell from the rows.
func virtualLoad(p *Plan, e graph.LinkID) float64 {
	v := make([]float64, p.G.NumLinks())
	for l := range p.Prot {
		v[l] = p.G.Link(graph.LinkID(l)).Capacity * planCell(&p.Prot[l], int32(e))
	}
	return p.Model.WorstLoad(v)
}

// denseBase is the dense view of a plan's base routing: the oracle form
// the tests hold the rows to.
func denseBase(p *Plan) *routing.Flow {
	f := routing.NewFlow(p.G, p.Comms)
	for k := range p.Base {
		p.Base[k].Scatter(f.Frac[k])
	}
	return f
}

// validFlow checks conditions [R1]–[R4] for every commodity of f
// (routing.Commodity.Validate).
func validFlow(f *routing.Flow, eps float64) error {
	for k, c := range f.Comms {
		if err := c.Validate(f.G, f.Frac[k], eps); err != nil {
			return fmt.Errorf("commodity %d: %v", k, err)
		}
	}
	return nil
}

// stateBase is the dense view of a state's current base routing: the
// state's demands, and each row as the state routes it.
func stateBase(s *State) *routing.Flow {
	f := routing.NewFlow(s.G, s.plan.Comms)
	for k := range f.Comms {
		f.Comms[k].Demand = s.demandOf(k)
		s.base.dense(s.plan.Base, k, f.Frac[k])
	}
	return f
}

// TestPlanBaseRowsAreCanonical pins the form State and the encoder read
// both routings in without re-deriving them: from every solver path and
// from the decoder, each base and protection row's links strictly ascend,
// its fractions are finite and nonzero and the rows are packed, and
// NormalMLU, Evaluate and a fresh State's loads are, bit for bit, what
// the rows made dense give.
func TestPlanBaseRowsAreCanonical(t *testing.T) {
	ab := topo.Abilene()
	dAb := traffic.Gravity(ab, 0.15*ab.TotalCapacity(), 1)
	g := ring5(t)
	d := ring5Demand(g, 120)
	ospf := spf.ECMPFlow(ab, routing.ODCommodities(ab.NumNodes(), dAb.At), nil, spf.WeightCost(ab))
	f1 := ArbitraryFailures{F: 1}
	cases := []struct {
		name string
		g    *graph.Graph
		d    *traffic.Matrix
		cfg  Config
	}{
		{"fw-joint", ab, dAb, Config{Model: f1, Iterations: 40}},
		{"fw-pinned", ab, dAb, Config{Model: f1, Iterations: 40, PenaltyEnvelope: 1.1}},
		{"fw-supplied", ab, dAb, Config{Model: f1, Iterations: 40, BaseRouting: ospf}},
		{"fw-degrade", ab, dAb, Config{Model: DegradationModel{Beta: 0.5, Budget: 2}, Iterations: 40}},
		{"lp", g, d, Config{Model: f1, Solver: SolverLP}},
		{"lp-supplied", g, d, Config{Model: f1, Solver: SolverLP,
			BaseRouting: spf.ECMPFlow(g, routing.ODCommodities(g.NumNodes(), d.At), nil, spf.WeightCost(g))}},
	}
	for _, tc := range cases {
		plan, err := Precompute(tc.g, tc.d, tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		checkCanonicalPlan(t, tc.name, plan)
		if got, want := plan.NormalMLU, routing.MLU(plan.G, denseBase(plan).Loads()); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: NormalMLU %v, dense rows %v", tc.name, got, want)
		}
		wire, err := plan.EncodeBytes()
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodePlan(bytes.NewReader(wire), tc.g)
		if err != nil {
			t.Fatalf("%s: decode: %v", tc.name, err)
		}
		checkCanonicalPlan(t, tc.name+"-decoded", got)
		// The decoder makes its rows canonical whatever the order of a
		// row's entries, and drops an explicit zero.
		got, err = DecodePlan(bytes.NewReader(shuffledWire(t, wire)), tc.g)
		if err != nil {
			t.Fatalf("%s: decode shuffled: %v", tc.name, err)
		}
		checkCanonicalPlan(t, tc.name+"-shuffled", got)
	}
}

// shuffledWire rewrites a plan's wire form with every row of both
// routings in descending link order, after an explicit zero at a link the
// row does not use.
func shuffledWire(t *testing.T, wire []byte) []byte {
	t.Helper()
	var m map[string]interface{}
	if err := jsonUnmarshal(wire, &m); err != nil {
		t.Fatal(err)
	}
	shuffle := func(alloc []interface{}) []interface{} {
		used := make(map[float64]bool)
		for _, en := range alloc {
			used[en.(map[string]interface{})["l"].(float64)] = true
		}
		free := 0.0
		for used[free] {
			free++
		}
		slices.Reverse(alloc)
		return append([]interface{}{map[string]interface{}{"l": free, "f": 0.0}}, alloc...)
	}
	for _, c := range m["base"].([]interface{}) {
		c := c.(map[string]interface{})
		alloc, _ := c["alloc"].([]interface{})
		c["alloc"] = shuffle(alloc)
	}
	prot := m["prot"].([]interface{})
	for l, row := range prot {
		alloc, _ := row.([]interface{})
		prot[l] = shuffle(alloc)
	}
	out, err := jsonMarshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// checkCanonicalPlan checks one plan's rows of both routings, and the
// loads and objective read off them against the dense view.
func checkCanonicalPlan(t *testing.T, name string, p *Plan) {
	t.Helper()
	checkCanonicalRows(t, name+": base", p.Base, len(p.Comms))
	checkCanonicalRows(t, name+": protection", p.Prot, p.G.NumLinks())
	loads := denseBase(p).Loads()
	if !sameBits(NewState(p).Loads(), loads) {
		t.Fatalf("%s: a fresh State's loads differ from the dense rows'", name)
	}
	worst := 0.0
	for e := range loads {
		if u := (loads[e] + virtualLoad(p, graph.LinkID(e))) / p.G.Link(graph.LinkID(e)).Capacity; u > worst {
			worst = u
		}
	}
	if got := p.Evaluate(); math.Float64bits(got) != math.Float64bits(worst) {
		t.Fatalf("%s: Evaluate %v, dense rows %v", name, got, worst)
	}
}

// checkCanonicalRows checks that rows holds n rows, each with its links
// strictly ascending and its fractions finite and nonzero, and that they
// are packed: each row without spare capacity, right after the one before
// it in one shared array of links and one of fractions.
func checkCanonicalRows(t *testing.T, name string, rows []routing.SparseRow, n int) {
	t.Helper()
	if len(rows) != n {
		t.Fatalf("%s: %d rows, want %d", name, len(rows), n)
	}
	var nextIdx *int32
	var nextVal *float64
	for k, r := range rows {
		if len(r.Idx) != len(r.Val) {
			t.Fatalf("%s: row %d has %d links and %d fractions", name, k, len(r.Idx), len(r.Val))
		}
		for j, l := range r.Idx {
			if j > 0 && l <= r.Idx[j-1] {
				t.Fatalf("%s: row %d lists link %d after link %d", name, k, l, r.Idx[j-1])
			}
			if v := r.Val[j]; v == 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%s: row %d holds %v at link %d", name, k, v, l)
			}
		}
		if len(r.Idx) == 0 {
			continue
		}
		if cap(r.Idx) != len(r.Idx) || cap(r.Val) != len(r.Val) {
			t.Fatalf("%s: row %d has spare capacity: not packed", name, k)
		}
		if nextIdx != nil && (&r.Idx[0] != nextIdx || &r.Val[0] != nextVal) {
			t.Fatalf("%s: row %d does not follow the row before it: not packed", name, k)
		}
		nextIdx = (*int32)(unsafe.Add(unsafe.Pointer(&r.Idx[0]), 4*len(r.Idx)))
		nextVal = (*float64)(unsafe.Add(unsafe.Pointer(&r.Val[0]), 8*len(r.Val)))
	}
}

// Evaluate recomputes the plan objective from scratch: for every link e,
// base load plus the worst-case virtual load c_l·p_l(e) over the model,
// over capacity. It is the verification counterpart of the offline
// solvers, kept beside the tests that hold them to it.
func (p *Plan) Evaluate() float64 {
	nL := p.G.NumLinks()
	loads := baseLoads(nL, p.Comms, p.Base)
	ix := p.protIndex()
	v := make([]float64, nL)
	worst := 0.0
	for e := 0; e < nL; e++ {
		clear(v)
		ls, fr := ix.col(int32(e))
		for j, l := range ls {
			v[l] = p.G.Link(graph.LinkID(l)).Capacity * fr[j]
		}
		u := (loads[e] + p.Model.WorstLoad(v)) / p.G.Link(graph.LinkID(e)).Capacity
		if u > worst {
			worst = u
		}
	}
	return worst
}

// Delivered returns the fraction of commodity k's demand that still
// reaches its destination (1 unless reconfiguration dropped traffic at a
// partition), measured as net inflow at the destination.
func (s *State) Delivered(k int) float64 {
	return s.plan.delivered(k, s.base.find(k))
}
