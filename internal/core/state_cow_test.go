package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/topo"
)

// cowPlans are the plans the overlay State is checked on: a toy
// ring, Abilene F=1, SBC F=2 and an SBC degradation-envelope plan. They
// are planned once per test binary; tests that need a plan nobody has
// built a State from yet take freshCopy of one.
var cowPlans struct {
	once  sync.Once
	plans []namedPlan
	err   error
}

type namedPlan struct {
	name string
	plan *Plan
}

func statePlans(t testing.TB) []namedPlan {
	t.Helper()
	cowPlans.once.Do(func() {
		add := func(name string, g *graph.Graph, total float64, cfg Config) {
			if cowPlans.err != nil {
				return
			}
			plan, err := Precompute(g, ring5Demand(g, total), cfg)
			if err != nil {
				cowPlans.err = fmt.Errorf("%s: %w", name, err)
				return
			}
			cowPlans.plans = append(cowPlans.plans, namedPlan{name, plan})
		}
		ring := ring5(t)
		add("ring5-f1", ring, 100, Config{Model: ArbitraryFailures{F: 1}, Iterations: 40})
		ab := topo.Abilene()
		add("abilene-f1", ab, 0.15*ab.TotalCapacity(), Config{Model: ArbitraryFailures{F: 1}, Iterations: 40})
		sbc := topo.SBC()
		add("sbc-f2", sbc, 0.15*sbc.TotalCapacity(), Config{Model: ArbitraryFailures{F: 2}, Iterations: 25})
		add("sbc-degrade", sbc, 0.15*sbc.TotalCapacity(),
			Config{Model: WorkloadSpec{Alpha: 0.5, Budget: 2}.Model(nil), Iterations: 25})
	})
	if cowPlans.err != nil {
		t.Fatal(cowPlans.err)
	}
	return cowPlans.plans
}

// abilenePlan is the shared Abilene F=1 plan.
func abilenePlan(t testing.TB) *Plan {
	t.Helper()
	for _, np := range statePlans(t) {
		if np.name == "abilene-f1" {
			return np.plan
		}
	}
	t.Fatal("no abilene-f1 plan")
	return nil
}

// freshCopy round-trips a plan through the wire codec: same routing bits,
// but no State has touched it, so its index is not built yet.
func freshCopy(t *testing.T, plan *Plan) *Plan {
	t.Helper()
	b, err := plan.EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	cp, err := DecodePlan(bytes.NewReader(b), plan.G)
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

// planBits hashes the raw bits of every routing row and demand of a plan.
func planBits(p *Plan) uint64 {
	h := fnv.New64a()
	put := func(v float64) {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	for k, fr := range p.Base.Frac {
		put(p.Base.Comms[k].Demand)
		for _, v := range fr {
			put(v)
		}
	}
	for _, row := range p.Prot {
		for _, v := range row {
			put(v)
		}
	}
	return h.Sum64()
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// sameErr fails the test unless the State and the oracle agree on whether
// an operation is rejected, and on the text.
func sameErr(t *testing.T, when string, got, want error) {
	t.Helper()
	if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
		t.Fatalf("%s: error %v, oracle %v", when, got, want)
	}
}

// statePair is a State and the eager oracle that has seen the same
// operations.
type statePair struct {
	st *State
	or *eagerState
}

func newStatePair(plan *Plan) statePair {
	return statePair{NewState(plan), newEagerState(plan)}
}

// check compares everything observable about the pair, bit for bit.
func (p statePair) check(t *testing.T, when string) {
	t.Helper()
	st, or := p.st, p.or
	if !st.Failed().Equal(or.failed) {
		t.Fatalf("%s: failed set %v, oracle %v", when, st.Failed(), or.failed)
	}
	loads := st.Loads()
	if !sameBits(loads, or.loads()) {
		t.Fatalf("%s: Loads differ from the eager copy\n got %v\nwant %v", when, loads, or.loads())
	}
	// The caller owns what Loads returned: scribbling on it must not
	// reach the state.
	for l := range loads {
		loads[l] = math.Inf(1)
	}
	if got, want := st.MLU(), or.mlu(); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: MLU %v, oracle %v", when, got, want)
	}
	if !sameBits(st.Loads(), or.loads()) {
		t.Fatalf("%s: a write into an earlier Loads result reached the state", when)
	}
	if got, want := st.LostDemand(), or.lostDemand(); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: LostDemand %v, oracle %v", when, got, want)
	}
	base := st.Base()
	for k, c := range base.Comms {
		if c != or.base.Comms[k] {
			t.Fatalf("%s: commodity %d is %+v, oracle %+v", when, k, c, or.base.Comms[k])
		}
		if !sameBits(base.Frac[k], or.base.Frac[k]) {
			t.Fatalf("%s: base row %d differs from the eager copy", when, k)
		}
	}
	for u, row := range st.Prot() {
		if !sameBits(row, or.prot[u]) {
			t.Fatalf("%s: protection row %d differs from the eager copy", when, u)
		}
		e := graph.LinkID(u)
		if !sameBits(st.Detour(e), or.detours[e]) {
			t.Fatalf("%s: detour of link %d differs from the eager copy", when, u)
		}
		if st.DegradedFrac(e) != or.degraded[e] {
			t.Fatalf("%s: link %d degraded by %v, oracle %v", when, u, st.DegradedFrac(e), or.degraded[e])
		}
	}
}

// stateBattery drives random interleavings of every State mutator over a
// small pool of states sharing one plan — clones and fresh NewStates
// included — and checks each against the eager oracle. With queryEvery 1
// every state is checked after every step and every clone as it is taken;
// with queryEvery n > 1 the pool is checked after one step in n on
// average, so several reroutes and demand changes pile up between two
// queries and clones are taken with their source's loads out of date.
// Operations are not filtered for validity: a rejected one must be
// rejected with the same text and leave the same state.
func stateBattery(t *testing.T, plan *Plan, seed int64, steps, queryEvery int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	nL := plan.G.NumLinks()
	planDemand := demandOfPlan(plan)
	pool := []statePair{newStatePair(plan)}
	pool[0].check(t, "fresh state")
	for step := 0; step < steps; step++ {
		i := rng.Intn(len(pool))
		p := pool[i]
		e := graph.LinkID(rng.Intn(nL))
		var op string
		var got, want error
		switch rng.Intn(13) {
		case 0, 1, 2:
			op = fmt.Sprintf("Fail(%d)", e)
			got, want = p.st.Fail(e), p.or.fail(e)
		case 3:
			// A made-up detour over up to three links; one time in eight it
			// illegally includes e itself, one in eight carries a NaN or an
			// infinity, and one in eight a tiny negative LP value.
			xi := make([]float64, nL)
			for j := 0; j < 3; j++ {
				xi[rng.Intn(nL)] += 1.0 / 3
			}
			if rng.Intn(8) != 0 {
				xi[e] = 0
			}
			switch rng.Intn(8) {
			case 0:
				xi[rng.Intn(nL)] = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(3)]
			case 1:
				xi[rng.Intn(nL)] = -1e-15
			}
			op = fmt.Sprintf("FailWith(%d, %v)", e, xi)
			got, want = p.st.FailWith(e, xi), p.or.failWith(e, xi)
			xi[0] = 99 // the state must have kept its own copy
		case 4, 5:
			frac := 0.05 + 0.9*rng.Float64()
			op = fmt.Sprintf("Degrade(%d, %v)", e, frac)
			got, want = p.st.Degrade(e, frac), p.or.degrade(e, frac)
		case 6:
			f := 1 + rng.Float64()
			op = fmt.Sprintf("ScaleDemands(%v, nil)", f)
			p.st.ScaleDemands(f, nil)
			p.or.scaleDemands(f, nil)
		case 7:
			var ods []OD
			for _, c := range plan.Base.Comms {
				if rng.Intn(4) == 0 {
					ods = append(ods, OD{c.Src, c.Dst})
				}
			}
			ods = append(ods, OD{0, 0}) // never nil, never matches
			f := 1 + rng.Float64()
			op = fmt.Sprintf("ScaleDemands(%v, %d ODs)", f, len(ods))
			p.st.ScaleDemands(f, ods)
			p.or.scaleDemands(f, ods)
		case 8:
			// A matrix with exact zeros, so the zero-demand skip is taken.
			salt := rng.Intn(100)
			demand := func(a, b graph.NodeID) float64 {
				return float64((31*int(a) + 17*int(b) + salt) % 5)
			}
			op = fmt.Sprintf("SetDemands(salt %d)", salt)
			p.st.SetDemands(demand)
			p.or.base.SetDemands(demand)
		case 9:
			// The plan's own matrix: a state still on the plan's demands
			// keeps them, any other goes back to them.
			op = "SetDemands(plan's)"
			p.st.SetDemands(planDemand)
			p.or.base.SetDemands(planDemand)
		case 10, 11:
			op = fmt.Sprintf("Clone of state %d", i)
			cl := statePair{p.st.Clone(), p.or.clone()}
			if queryEvery == 1 {
				cl.check(t, op)
			}
			if len(pool) < 4 {
				pool = append(pool, cl)
			} else {
				pool[rng.Intn(len(pool))] = cl
			}
		default:
			op = "NewState"
			pool[i] = newStatePair(plan)
		}
		when := fmt.Sprintf("seed %d step %d, %s on state %d", seed, step, op, i)
		sameErr(t, when, got, want)
		if queryEvery > 1 && rng.Intn(queryEvery) != 0 {
			continue
		}
		// The operation may touch only the state it was applied to.
		for j, q := range pool {
			q.check(t, fmt.Sprintf("%s (checking state %d)", when, j))
		}
	}
	for j, q := range pool {
		q.check(t, fmt.Sprintf("seed %d, end of battery (checking state %d)", seed, j))
	}
}

// demandOfPlan returns the plan's own traffic matrix as a demand function.
func demandOfPlan(plan *Plan) func(a, b graph.NodeID) float64 {
	d := make(map[OD]float64, len(plan.Base.Comms))
	for _, c := range plan.Base.Comms {
		d[OD{c.Src, c.Dst}] = c.Demand
	}
	return func(a, b graph.NodeID) float64 { return d[OD{a, b}] }
}

// TestStateMatchesEagerCopyOracle is the gate for any change to plan.go:
// the overlay State must be indistinguishable, bit for bit, from
// the deep-copying State it replaced.
func TestStateMatchesEagerCopyOracle(t *testing.T) {
	for _, np := range statePlans(t) {
		np := np
		t.Run(np.name, func(t *testing.T) {
			for seed := int64(1); seed <= 6; seed++ {
				stateBattery(t, np.plan, seed, 80, 1)
			}
		})
	}
}

// TestStateMatchesEagerCopyOracleLazyQueries is the same battery with
// queries one step in five: links rerouted by several failures,
// degradations and demand changes must be brought up to date together,
// and clones taken in between must carry the pending work with them.
func TestStateMatchesEagerCopyOracleLazyQueries(t *testing.T) {
	for _, np := range statePlans(t) {
		np := np
		t.Run(np.name, func(t *testing.T) {
			for seed := int64(1); seed <= 6; seed++ {
				stateBattery(t, np.plan, seed, 120, 5)
			}
		})
	}
}

// TestStateNeverWritesPlan: whatever is done to states — including a
// clone and its parent mutated in either order — the plan they alias keeps
// its wire fingerprint and its raw bits.
func TestStateNeverWritesPlan(t *testing.T) {
	for _, np := range statePlans(t) {
		plan := freshCopy(t, np.plan)
		t.Run(np.name, func(t *testing.T) {
			fp0, err := plan.WireFingerprint()
			if err != nil {
				t.Fatal(err)
			}
			bits0 := planBits(plan)

			stateBattery(t, plan, 42, 120, 1)

			// e0 fails before the clone is taken, so both sides start out
			// owning rows; then each side reroutes over the other's links.
			e0, e1, e2 := graph.LinkID(0), graph.LinkID(1), graph.LinkID(2)
			for _, cloneFirst := range []bool{true, false} {
				parent := newStatePair(plan)
				sameErr(t, "Fail before the clone", parent.st.Fail(e0), parent.or.fail(e0))
				clone := statePair{parent.st.Clone(), parent.or.clone()}
				mutParent := func() {
					when := fmt.Sprintf("parent mutated (cloneFirst=%v)", cloneFirst)
					sameErr(t, when, parent.st.Fail(e1), parent.or.fail(e1))
					sameErr(t, when, parent.st.Degrade(e2, 0.5), parent.or.degrade(e2, 0.5))
					parent.check(t, when)
					clone.check(t, when+", checking the clone")
				}
				mutClone := func() {
					when := fmt.Sprintf("clone mutated (cloneFirst=%v)", cloneFirst)
					sameErr(t, when, clone.st.Fail(e2), clone.or.fail(e2))
					sameErr(t, when, clone.st.Degrade(e1, 0.25), clone.or.degrade(e1, 0.25))
					clone.check(t, when)
					parent.check(t, when+", checking the parent")
				}
				if cloneFirst {
					mutClone()
					mutParent()
				} else {
					mutParent()
					mutClone()
				}
			}

			fp1, err := plan.WireFingerprint()
			if err != nil {
				t.Fatal(err)
			}
			if fp1 != fp0 || planBits(plan) != bits0 {
				t.Fatalf("states wrote through to their plan: fingerprint %016x -> %016x, bits %016x -> %016x",
					fp0, fp1, bits0, planBits(plan))
			}
		})
	}
}

// TestNewStateSharesPlanConcurrently: goroutines racing to build the first
// State of a plan (so the index is built under contention) and then
// failing links on their own states see exactly the serial results. Run
// under -race this is also the proof that states only ever read the plan.
func TestNewStateSharesPlanConcurrently(t *testing.T) {
	shared := abilenePlan(t)
	nL := shared.G.NumLinks()

	serve := func(plan *Plan, e graph.LinkID) (float64, error) {
		st := NewState(plan)
		if err := st.Fail(e); err != nil {
			return 0, err
		}
		return st.MLU(), nil
	}
	want := make([]float64, nL)
	serial := freshCopy(t, shared)
	for e := range want {
		var err error
		if want[e], err = serve(serial, graph.LinkID(e)); err != nil {
			t.Fatal(err)
		}
	}

	const workers = 8
	plan := freshCopy(t, shared)
	got := make([][]float64, workers)
	errs := make([]error, workers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		got[w] = make([]float64, nL)
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < nL; i++ {
				e := (i + w) % nL // every worker starts on a different link
				if got[w][e], errs[w] = serve(plan, graph.LinkID(e)); errs[w] != nil {
					return
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	for w := range got {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		if !sameBits(got[w], want) {
			t.Fatalf("worker %d saw MLUs %v, serial run %v", w, got[w], want)
		}
	}
}

// TestStateIndexIsLazy: a plan's index is built by the first reroute or
// load query, not by NewState or by the reads mplsff.Build makes, so a
// plan nobody fails or queries never pays for it.
func TestStateIndexIsLazy(t *testing.T) {
	plan := freshCopy(t, abilenePlan(t))
	st := NewState(plan)
	_ = st.Base()
	_ = st.Prot()
	_ = st.Clone().Detour(0)
	if plan.index != nil {
		t.Fatal("NewState, Base, Prot or Clone built the plan's index")
	}
	st.MLU()
	if plan.index == nil {
		t.Fatal("a load query left the plan's index unbuilt")
	}
}

// allocBytes returns the mean number of heap bytes one call of f
// allocates (TotalAlloc never decreases, so a GC in between is harmless).
func allocBytes(runs int, f func()) float64 {
	f() // lazy set-up (the plan's index) happens outside the count
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestStateAllocationIsProportionalToWhatItWrites fails when a copy of
// the plan, of its demands or of a dense row finds its way back into
// NewState or Fail: NewState may allocate per-link headers only — a small
// multiple of L words, where the plan's demands alone are K — and a
// failure on top of it the cells it rewrites in each base row crossing
// the failed link, plus the protection rows crossing it.
func TestStateAllocationIsProportionalToWhatItWrites(t *testing.T) {
	plan := abilenePlan(t)
	K, nL := len(plan.Base.Frac), plan.G.NumLinks()
	const word = 8

	// Per link: a protection row header (3 words) and an ownership flag;
	// the State itself and its empty detour map fit in the rest. A copy of
	// the commodities and their row headers, which NewState used to make,
	// is 7 words per commodity; a copy of the demands alone is one, and on
	// this plan (K = 110, L = 28) that too exceeds the slack.
	headers := float64(6 * nL * word)
	if headers > float64(7*K*word)/2 {
		t.Fatalf("test plan too small to tell link headers (%v B) from a copy of its %d commodities", headers, K)
	}
	newState := allocBytes(50, func() { NewState(plan) })
	if newState > headers {
		t.Fatalf("NewState allocates %.0f B; want at most %.0f B (6 words per link; the demands alone are %d B)",
			newState, headers, K*word)
	}

	// A protection row is copied whole (one size class of slack), as are
	// ξ_e, its cell list, the failed and dirty sets and the map entry
	// (four more rows' worth). A base row costs its id and override header
	// (7 words) and |nz ξ_e|+1 cells of 1.5 words, with the same slack; a
	// dense copy of it would be L words.
	rowBytes := 1.25 * float64(nL*word)
	for e := 0; e < nL; e++ {
		xi := NewState(plan).ComputeDetour(graph.LinkID(e))
		cells := 1
		for _, x := range xi {
			if x != 0 {
				cells++
			}
		}
		cellBytes := 1.25 * (7 + 1.5*float64(cells)) * word
		if cellBytes >= float64(nL*word) {
			t.Fatalf("link %d: %d cells per row (%.0f B) cannot be told from a dense row (%d B)", e, cells, cellBytes, nL*word)
		}
		base, prot := 0, 0
		for _, fr := range plan.Base.Frac {
			if fr[e] != 0 {
				base++
			}
		}
		for u, row := range plan.Prot {
			if u != e && row[e] != 0 {
				prot++
			}
		}
		limit := headers + float64(prot+4)*rowBytes + float64(base)*cellBytes
		got := allocBytes(20, func() {
			if err := NewState(plan).Fail(graph.LinkID(e)); err != nil {
				t.Fatal(err)
			}
		})
		if got > limit {
			t.Fatalf("NewState+Fail(%d) allocates %.0f B; want at most %.0f B for %d crossing base rows of %d cells and %d protection rows",
				e, got, limit, base, cells, prot)
		}
	}
}

// TestStateRejectsNonFiniteDetours: FailWith refuses a detour with a NaN
// or an infinite entry and leaves the state as it was, accepts the tiny
// negative values an LP returns, and MLU reports NaN rather than the
// largest of the other utilizations when a surviving link's load is NaN.
func TestStateRejectsNonFiniteDetours(t *testing.T) {
	plan := abilenePlan(t)
	nL := plan.G.NumLinks()
	pristine := NewState(plan)
	const e = graph.LinkID(0)
	xi := pristine.ComputeDetour(e)
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for l := 1; l < nL; l++ {
			st := NewState(plan)
			mlu := st.MLU() // a query before the attempt, so a cache exists
			bent := append([]float64(nil), xi...)
			bent[l] = bad
			if err := st.FailWith(e, bent); err == nil {
				t.Fatalf("FailWith(%d) accepted %v on link %d", e, bad, l)
			}
			if st.HasFailed(e) || st.Detour(e) != nil || !st.BaseEquals(pristine, 0) || !st.ProtEquals(pristine, 0) {
				t.Fatalf("FailWith(%d) with %v on link %d was rejected but changed the state", e, bad, l)
			}
			if !sameBits(st.Loads(), pristine.Loads()) || math.Float64bits(st.MLU()) != math.Float64bits(mlu) {
				t.Fatalf("FailWith(%d) with %v on link %d was rejected but moved the loads", e, bad, l)
			}
		}
	}

	lp := append([]float64(nil), xi...)
	for l := 1; l < nL; l++ {
		if lp[l] == 0 {
			lp[l] = -1e-15
			break
		}
	}
	st := NewState(plan)
	if err := st.FailWith(e, lp); err != nil {
		t.Fatalf("FailWith rejected a detour with a tiny negative LP value: %v", err)
	}
	if m := st.MLU(); math.IsNaN(m) || m <= 0 {
		t.Fatalf("MLU %v after an LP detour", m)
	}

	// One commodity's demand turns NaN: the links it uses carry NaN.
	c := plan.Base.Comms[0]
	one := NewState(plan)
	one.ScaleDemands(math.NaN(), []OD{{c.Src, c.Dst}})
	if m := one.MLU(); !math.IsNaN(m) {
		t.Fatalf("MLU %v with a NaN load on a surviving link, want NaN", m)
	}
	all := NewState(plan)
	all.ScaleDemands(math.NaN(), nil)
	if m := all.MLU(); !math.IsNaN(m) {
		t.Fatalf("MLU %v with every demand NaN, want NaN", m)
	}
}
