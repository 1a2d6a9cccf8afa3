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

// cowPlans are the plans the copy-on-write State is checked on: a toy
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

func statePlans(t *testing.T) []namedPlan {
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
func abilenePlan(t *testing.T) *Plan {
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
// but no State has touched it, so its nonzero pattern is not built yet.
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
	if !sameBits(st.Loads(), or.loads()) {
		t.Fatalf("%s: Loads differ from the eager copy\n got %v\nwant %v", when, st.Loads(), or.loads())
	}
	if got, want := st.MLU(), or.mlu(); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: MLU %v, oracle %v", when, got, want)
	}
	if got, want := st.LostDemand(), or.lostDemand(); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: LostDemand %v, oracle %v", when, got, want)
	}
	for k, c := range st.Base().Comms {
		if c != or.base.Comms[k] {
			t.Fatalf("%s: commodity %d is %+v, oracle %+v", when, k, c, or.base.Comms[k])
		}
		if !sameBits(st.Base().Frac[k], or.base.Frac[k]) {
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
// included — and checks each against the eager oracle after every step.
// Operations are not filtered for validity: a rejected one must be
// rejected with the same text and leave the same state.
func stateBattery(t *testing.T, plan *Plan, seed int64, steps int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	nL := plan.G.NumLinks()
	pool := []statePair{newStatePair(plan)}
	pool[0].check(t, "fresh state")
	for step := 0; step < steps; step++ {
		i := rng.Intn(len(pool))
		p := pool[i]
		e := graph.LinkID(rng.Intn(nL))
		var op string
		var got, want error
		switch rng.Intn(12) {
		case 0, 1, 2:
			op = fmt.Sprintf("Fail(%d)", e)
			got, want = p.st.Fail(e), p.or.fail(e)
		case 3:
			// A made-up detour over up to three links; one time in eight it
			// illegally includes e itself.
			xi := make([]float64, nL)
			for j := 0; j < 3; j++ {
				xi[rng.Intn(nL)] += 1.0 / 3
			}
			if rng.Intn(8) != 0 {
				xi[e] = 0
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
		case 9, 10:
			op = fmt.Sprintf("Clone of state %d", i)
			cl := statePair{p.st.Clone(), p.or.clone()}
			cl.check(t, op)
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
		// The operation may touch only the state it was applied to.
		for j, q := range pool {
			q.check(t, fmt.Sprintf("%s (checking state %d)", when, j))
		}
	}
}

// TestStateMatchesEagerCopyOracle is the gate for any change to plan.go:
// the copy-on-write State must be indistinguishable, bit for bit, from
// the deep-copying State it replaced.
func TestStateMatchesEagerCopyOracle(t *testing.T) {
	for _, np := range statePlans(t) {
		np := np
		t.Run(np.name, func(t *testing.T) {
			for seed := int64(1); seed <= 6; seed++ {
				stateBattery(t, np.plan, seed, 80)
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

			stateBattery(t, plan, 42, 120)

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
// State of a plan (so the pattern is built under contention) and then
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

// allocBytes returns the mean number of heap bytes one call of f
// allocates (TotalAlloc never decreases, so a GC in between is harmless).
func allocBytes(runs int, f func()) float64 {
	f() // lazy set-up (the plan's pattern) happens outside the count
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestStateAllocationIsProportionalToWhatItWrites fails when a deep copy
// of the plan finds its way back into NewState or Fail: NewState may
// allocate headers only — a small multiple of K + L words, where one
// dense copy is K·L — and a failure on top of it only the rows that
// cross the failed link.
func TestStateAllocationIsProportionalToWhatItWrites(t *testing.T) {
	plan := abilenePlan(t)
	K, nL := len(plan.Base.Frac), plan.G.NumLinks()
	const word = 8
	deepCopy := float64((K + nL) * nL * word)

	// Per commodity: a row header (3 words), the commodity (4 words) and
	// an ownership flag; per link: a row header and a flag.
	headers := float64(10 * (K + nL) * word)
	if headers > deepCopy/2 {
		t.Fatalf("test plan too small to tell headers (%v B) from a deep copy (%v B)", headers, deepCopy)
	}
	newState := allocBytes(50, func() { NewState(plan) })
	if newState > headers {
		t.Fatalf("NewState allocates %.0f B; want at most %.0f B (10 words per commodity and link; a deep copy is %.0f B)",
			newState, headers, deepCopy)
	}

	// One size class of slack per copied row, plus ξ_e, its index list
	// and the map entry.
	rowBytes := 1.25 * float64(nL*word)
	for e := 0; e < nL; e++ {
		crossing := 0
		for _, fr := range plan.Base.Frac {
			if fr[e] != 0 {
				crossing++
			}
		}
		for u, row := range plan.Prot {
			if u != e && row[e] != 0 {
				crossing++
			}
		}
		limit := headers + float64(crossing+4)*rowBytes
		got := allocBytes(20, func() {
			if err := NewState(plan).Fail(graph.LinkID(e)); err != nil {
				t.Fatal(err)
			}
		})
		if got > limit {
			t.Fatalf("NewState+Fail(%d) allocates %.0f B; want at most %.0f B for the %d rows crossing the link",
				e, got, limit, crossing)
		}
	}
}
