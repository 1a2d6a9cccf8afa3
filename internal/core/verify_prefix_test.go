package core

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/graph"
)

// verifyFresh is VerifyScenarios as it was before failure sets shared their
// prefixes: every scenario replays onto a fresh State. It is the oracle
// VerifyScenarios is held to.
func verifyFresh(p *Plan, scs []Scenario) (*VerifyReport, error) {
	rep := &VerifyReport{ByKind: make(map[ScenarioKind]int)}
	bound := p.MLU + 1e-6
	for _, sc := range scs {
		rep.Scenarios++
		rep.ByKind[sc.EffectiveKind()]++
		st := NewState(p)
		if err := st.ApplyScenario(sc); err != nil {
			return nil, err
		}
		if st.LostDemand() > 1e-9 {
			rep.Partitions++
		}
		mlu := st.MLU()
		if mlu > rep.WorstMLU {
			rep.WorstMLU = mlu
			rep.Worst = sc
		}
		if mlu > bound {
			rep.Violations++
		}
	}
	return rep, nil
}

// TestVerifySharedPrefixesMatchFreshReplay holds the prefix-sharing audit
// to a fresh-state replay of the same list, equal in every report field
// (WorstMLU to the bit, and Worst): SBC F=2 enumerated to two failures,
// Abilene to three with the cap inside a subtree, and a mixed list on
// Abilene that interleaves failure sets extending earlier ones with
// degradations, surges, node outages and sets that leave the chain.
func TestVerifySharedPrefixesMatchFreshReplay(t *testing.T) {
	var sbc, ab *Plan
	for _, np := range statePlans(t) {
		switch np.name {
		case "sbc-f2":
			sbc = np.plan
		case "abilene-f1":
			ab = np.plan
		}
	}
	g := ab.G
	nL := g.NumLinks()
	fail := func(ids ...graph.LinkID) Scenario { return FailureScenario(graph.NewLinkSet(ids...)) }
	surge := fail(0, 3)
	surge.SurgeScale = 1.5
	degrade := Scenario{Kind: ScenarioDegradation, Node: -1, Degraded: []LinkDegradation{{Link: 2, Frac: 0.4}, {Link: 9, Frac: 0.7}}}
	both := fail(0, 3)
	both.Degraded = []LinkDegradation{{Link: 5, Frac: 0.5}}
	mixed := []Scenario{
		fail(0), fail(0, 3), surge, fail(0, 3, 7), NodeScenario(g, 1), fail(0, 3, 7, 9),
		degrade, fail(0, 3, 8), both, fail(0, 4), fail(1), NodeScenario(g, 2),
		fail(1, 2), fail(1, 2, graph.LinkID(nL-1)), fail(0), fail(0), fail(0, 3),
	}
	for _, tc := range []struct {
		name string
		plan *Plan
		scs  []Scenario
	}{
		{"sbc-f2 Verify(2, 5000)", sbc, EnumerateFailures(sbc.G.NumLinks(), 2, 5000)},
		{"abilene Verify(3, 1000)", ab, EnumerateFailures(nL, 3, 1000)},
		{"abilene mixed", ab, mixed},
	} {
		want, err := verifyFresh(tc.plan, tc.scs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tc.plan.VerifyScenarios(tc.scs)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got.WorstMLU) != math.Float64bits(want.WorstMLU) || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: report %+v, fresh replay %+v", tc.name, got, want)
		}
		if want.Partitions == 0 && tc.plan == ab {
			t.Fatalf("%s: no partition; LostDemand is not exercised", tc.name)
		}
		t.Logf("%s: %d scenarios, worst %v, %d partitions, %d violations", tc.name, got.Scenarios, got.WorstMLU, got.Partitions, got.Violations)
	}
}

// lostRecompute is LostDemand with no shortcut: every row's delivered
// share computed from its override, rewritten or not, in commodity order.
func lostRecompute(s *State) float64 {
	var lost float64
	for k := range s.plan.Comms {
		del := s.plan.delivered(k, s.base.find(k))
		if d := s.demandOf(k); d != 0 {
			lost += d * (1 - del)
		}
	}
	return lost
}

// TestLostDemandMatchesFullRecompute holds LostDemand, which reuses the
// plan row's delivered share for a rewritten row whose override misses
// its destination's links, to a full per-row recompute, bit for bit: on
// every state Verify(2, ·) replays on SBC F=2 — each single failure, then
// a clone of it per second failure, as the prefix chain shares them — and
// on Abilene with every link of Seattle failed, which strands demand.
// Each state is asked twice, so the cached shares are checked too, and
// both kinds of rewritten row must occur.
func TestLostDemandMatchesFullRecompute(t *testing.T) {
	var sbc, ab *Plan
	for _, np := range statePlans(t) {
		switch np.name {
		case "sbc-f2":
			sbc = np.plan
		case "abilene-f1":
			ab = np.plan
		}
	}
	var reused, recomputed int
	check := func(name string, st *State) float64 {
		t.Helper()
		want := lostRecompute(st)
		for range 2 {
			if got := st.LostDemand(); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: LostDemand %v, full recompute %v", name, got, want)
			}
		}
		for j, k := range st.base.own {
			if st.plan.touchesDst(int(k), st.base.rows[j]) {
				recomputed++
			} else {
				reused++
			}
		}
		return want
	}
	nL := sbc.G.NumLinks()
	for a := range nL {
		one := NewState(sbc)
		if err := one.FailAll(graph.LinkID(a)); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("sbc fail %d", a), one)
		for b := a + 1; b < nL; b++ {
			two := one.Clone()
			if err := two.FailAll(graph.LinkID(b)); err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("sbc fail %d,%d", a, b), two)
		}
	}
	seattle, ok := ab.G.NodeByName("Seattle")
	if !ok {
		t.Fatal("no Seattle in Abilene")
	}
	cut := append(slices.Clone(ab.G.Out(seattle)), ab.G.In(seattle)...)
	st := NewState(ab)
	if err := st.FailAll(cut...); err != nil {
		t.Fatal(err)
	}
	if lost := check("abilene without Seattle", st); lost <= 0 {
		t.Fatalf("abilene without Seattle: lost %v, want demand stranded", lost)
	}
	if reused == 0 || recomputed == 0 {
		t.Fatalf("rewritten rows: %d reuse the plan's share, %d are recomputed; want both", reused, recomputed)
	}
	t.Logf("rewritten rows: %d reuse the plan's share, %d recomputed", reused, recomputed)
}
