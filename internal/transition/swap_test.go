package transition

import (
	"errors"
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mcf"
	"repro/internal/mplsff"
	"repro/internal/obs"
	"repro/internal/routing"
	"repro/internal/traffic"
)

// hubTopo builds the crossing-commodities fixture: sources a,b and sinks
// c,d on generous spokes around a narrow two-path core u→{x,y}→v (100
// each), plus side links a-b and c-d so every link has a detour
// (precompute with F=1 needs 2-edge-connectivity). zCap > 0 adds a third,
// wide path u→z→v, giving the interim-routing LP somewhere to park
// traffic mid-migration.
func hubTopo(zCap float64) *graph.Graph {
	g := graph.New("swaphub")
	ids := map[string]graph.NodeID{}
	for _, s := range []string{"a", "b", "c", "d", "u", "v", "x", "y"} {
		ids[s] = g.AddNode(s)
	}
	duplex := func(p, q string, c float64) { g.AddDuplex(ids[p], ids[q], c, 1, 1) }
	duplex("a", "u", 1000)
	duplex("b", "u", 1000)
	duplex("v", "c", 1000)
	duplex("v", "d", 1000)
	duplex("a", "b", 1000)
	duplex("c", "d", 1000)
	duplex("u", "x", 100)
	duplex("x", "v", 100)
	duplex("u", "y", 100)
	duplex("y", "v", 100)
	if zCap > 0 {
		z := g.AddNode("z")
		g.AddDuplex(ids["u"], z, zCap, 1, 1)
		g.AddDuplex(z, ids["v"], zCap, 1, 1)
	}
	return g
}

// hubPlan precomputes a plan whose base routing is pinned: each OD
// (src, dst, demand) routes src→u→via→v→dst.
func hubPlan(t testing.TB, g *graph.Graph, dem float64, via map[[2]string]string) *core.Plan {
	t.Helper()
	node := func(s string) graph.NodeID {
		id, ok := g.NodeByName(s)
		if !ok {
			t.Fatalf("no node %q", s)
		}
		return id
	}
	d := traffic.NewMatrix(g.NumNodes())
	var comms []routing.Commodity
	var paths [][]graph.NodeID
	// Sorted, so the plan (and every sequence digest pinned on it) does
	// not depend on map iteration order.
	ods := make([][2]string, 0, len(via))
	for od := range via {
		ods = append(ods, od)
	}
	sort.Slice(ods, func(i, j int) bool {
		return ods[i][0]+ods[i][1] < ods[j][0]+ods[j][1]
	})
	for _, od := range ods {
		mid := via[od]
		src, dst := node(od[0]), node(od[1])
		d.Set(src, dst, dem)
		comms = append(comms, routing.Commodity{Src: src, Dst: dst, Demand: dem})
		paths = append(paths, []graph.NodeID{src, node("u"), node(mid), node("v"), dst})
	}
	base := routing.NewFlow(g, comms)
	for k, p := range paths {
		for i := 0; i+1 < len(p); i++ {
			e, ok := g.FindLink(p[i], p[i+1])
			if !ok {
				t.Fatalf("no link %v->%v", p[i], p[i+1])
			}
			base.Frac[k][e] = 1
		}
	}
	plan, err := core.Precompute(g, d, core.Config{
		Model: core.ArbitraryFailures{F: 1}, BaseRouting: base, Iterations: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// crossingVia returns the four crossing OD assignments: a-sourced
// commodities via first, b-sourced via second.
func crossingVia(first, second string) map[[2]string]string {
	return map[[2]string]string{
		{"a", "c"}: first, {"a", "d"}: first,
		{"b", "c"}: second, {"b", "d"}: second,
	}
}

// applyRounds replays a sequence onto the old plan's network and asserts
// the result is byte-identical to one-shot mplsff.Build(next).
func applySwapRounds(t *testing.T, old, next *core.Plan, seq *Sequence) {
	t.Helper()
	n := mplsff.Build(old)
	for _, r := range seq.Rounds {
		n.ApplyRound(r.Seq, r.Delta)
	}
	want := mplsff.Build(next).Fingerprint()
	if got := n.Fingerprint(); got != want {
		t.Fatalf("staged end state %x != one-shot Build(next) %x", got, want)
	}
}

// TestSchedulePlanSwapMultiRound is the acceptance construct: four
// commodities trade places across the two narrow core paths. Both
// endpoint plans are congestion-free (90/100 per path) but the one-shot
// asynchronous envelope — each commodity at the max of its old and new
// loads — hits 120/100 on both paths, while the LP certificate is
// comfortably feasible. The scheduler must split the swap into ≥ 2
// rounds, each within tolerance, landing byte-identically on the target.
func TestSchedulePlanSwapMultiRound(t *testing.T) {
	g := hubTopo(0)
	old := hubPlan(t, g, 30, crossingVia("x", "y"))
	next := hubPlan(t, g, 30, crossingVia("y", "x"))

	if old.NormalMLU > 1 || next.NormalMLU > 1 {
		t.Fatalf("endpoints must be feasible (old %v, new %v)", old.NormalMLU, next.NormalMLU)
	}
	// The one-shot mixing envelope (per-commodity max, summed per link)
	// must exceed capacity — the case the old single-round code shipped
	// with an unsound "elementwise max of the two states" bound.
	oneShot := make([]float64, g.NumLinks())
	cell := func(p *core.Plan, k, e int) float64 {
		if j, ok := slices.BinarySearch(p.Base[k].Idx, int32(e)); ok {
			return p.Base[k].Val[j]
		}
		return 0
	}
	for k := range old.Comms {
		dOld, dNew := old.Comms[k].Demand, next.Comms[k].Demand
		for e := range oneShot {
			o, n := dOld*cell(old, k, e), dNew*cell(next, k, e)
			if n > o {
				oneShot[e] += n
			} else {
				oneShot[e] += o
			}
		}
	}
	if env := routing.MLU(g, oneShot); env <= 1 {
		t.Fatalf("construct broken: one-shot mixing envelope %v not over capacity", env)
	}

	reg := obs.NewRegistry()
	seq, err := SchedulePlanSwap(old, next, Options{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Rounds) < 2 {
		t.Fatalf("overloaded swap scheduled as %d round(s), want >= 2", len(seq.Rounds))
	}
	if !seq.CongestionFree {
		t.Fatalf("decomposed swap not congestion-free: %+v", seq)
	}
	for _, r := range seq.Rounds {
		if r.EnvelopeMLU > 1+1e-6 || r.StateMLU > 1+1e-6 {
			t.Fatalf("round %d over capacity: envelope %v, state %v", r.Seq, r.EnvelopeMLU, r.StateMLU)
		}
		if math.IsNaN(r.LPMLU) || r.CertifyErr != nil {
			t.Fatalf("round %d missing LP certificate (err %v)", r.Seq, r.CertifyErr)
		}
		if len(r.ODs) == 0 {
			t.Fatalf("round %d migrated no commodities", r.Seq)
		}
	}
	applySwapRounds(t, old, next, seq)
	snap := reg.Snapshot().Counters
	if snap["transition.best_effort"] != 0 {
		t.Fatalf("best_effort incremented despite a feasible decomposition")
	}
	if snap["transition.rounds"] != int64(len(seq.Rounds)) {
		t.Fatalf("rounds counter %d != %d rounds", snap["transition.rounds"], len(seq.Rounds))
	}

	// Rollback path: SkipCertify must still decompose, with zero LP work.
	back, err := SchedulePlanSwap(next, old, Options{SkipCertify: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Rounds) < 2 || back.LPSolves != 0 {
		t.Fatalf("SkipCertify rollback: %d rounds, %d LP solves", len(back.Rounds), back.LPSolves)
	}
	if !back.CongestionFree {
		t.Fatal("SkipCertify rollback lost the congestion-free decomposition")
	}
	applySwapRounds(t, next, old, back)
}

// TestSchedulePlanSwapInterimRouting: two 90-unit commodities cross-swap
// the two narrow paths, so neither can migrate first (either order puts
// 180 on a 100 link) — but a wide third path exists, so the LP's interim
// routing bridges the deadlock: old → interim → new, every envelope
// within tolerance.
func TestSchedulePlanSwapInterimRouting(t *testing.T) {
	g := hubTopo(1000)
	via := func(ac, bd string) map[[2]string]string {
		return map[[2]string]string{{"a", "c"}: ac, {"b", "d"}: bd}
	}
	old := hubPlan(t, g, 90, via("x", "y"))
	next := hubPlan(t, g, 90, via("y", "x"))

	reg := obs.NewRegistry()
	seq, err := SchedulePlanSwap(old, next, Options{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	if !seq.CongestionFree {
		t.Fatalf("interim routing should keep the swap congestion-free: %+v", seq)
	}
	if seq.Fallbacks == 0 {
		t.Fatal("deadlocked swap resolved without an interim-routing round")
	}
	sawInterim := false
	for _, r := range seq.Rounds {
		if r.Fallback {
			sawInterim = true
		}
		if r.EnvelopeMLU > 1+1e-6 {
			t.Fatalf("round %d envelope %v over capacity", r.Seq, r.EnvelopeMLU)
		}
	}
	if !sawInterim {
		t.Fatal("no round marked Fallback despite Fallbacks > 0")
	}
	applySwapRounds(t, old, next, seq)
	snap := reg.Snapshot().Counters
	if snap["transition.best_effort"] != 0 || snap["transition.swap_stuck"] != 0 {
		t.Fatalf("feasible interim migration miscounted: %v", snap)
	}
}

// TestSchedulePlanSwapBestEffort: with no third path and 60-unit
// commodities, the in-flight demand mix (240) exceeds the core cut (200),
// so the exact LP certifies infeasibility — only then may the scheduler
// ship the old single best-effort round and bump transition.best_effort.
func TestSchedulePlanSwapBestEffort(t *testing.T) {
	g := hubTopo(0)
	old := hubPlan(t, g, 60, crossingVia("x", "y"))
	next := hubPlan(t, g, 60, crossingVia("y", "x"))

	reg := obs.NewRegistry()
	seq, err := SchedulePlanSwap(old, next, Options{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	if seq.CongestionFree {
		t.Fatal("unroutable migration claimed congestion-free")
	}
	snap := reg.Snapshot().Counters
	if snap["transition.best_effort"] != 1 {
		t.Fatalf("best_effort = %d, want 1 (LP-certified infeasible)", snap["transition.best_effort"])
	}
	if snap["transition.swap_stuck"] != 0 {
		t.Fatalf("swap_stuck = %d, want 0", snap["transition.swap_stuck"])
	}
	// Even best-effort, the end state must land exactly on the target.
	applySwapRounds(t, old, next, seq)
}

// TestSchedulePlanSwapCertifyError: a failing LP solver must be recorded
// on the round and counted — not silently leave LPMLU NaN as if
// certification had been skipped.
func TestSchedulePlanSwapCertifyError(t *testing.T) {
	g := hubTopo(0)
	old := hubPlan(t, g, 30, crossingVia("x", "y"))
	next := hubPlan(t, g, 30, crossingVia("y", "x"))

	orig := solveExact
	solveExact = func(g *graph.Graph, comms []routing.Commodity, opts mcf.Options) (*mcf.Result, error) {
		return nil, errors.New("injected solver failure")
	}
	defer func() { solveExact = orig }()

	reg := obs.NewRegistry()
	seq, err := SchedulePlanSwap(old, next, Options{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	if seq.CertifyErrs != len(seq.Rounds) || len(seq.Rounds) == 0 {
		t.Fatalf("CertifyErrs %d over %d rounds", seq.CertifyErrs, len(seq.Rounds))
	}
	for _, r := range seq.Rounds {
		if r.CertifyErr == nil || !math.IsNaN(r.LPMLU) {
			t.Fatalf("round %d: err %v, LPMLU %v", r.Seq, r.CertifyErr, r.LPMLU)
		}
	}
	if got := reg.Snapshot().Counters["transition.certify_errors"]; got != int64(len(seq.Rounds)) {
		t.Fatalf("certify_errors counter %d, want %d", got, len(seq.Rounds))
	}
	// The migration itself is unaffected: certificates are evidence, not
	// control flow.
	applySwapRounds(t, old, next, seq)
}

// TestSchedulePlanSwapDigestMismatch: two same-size topologies (the old
// guard compared only node/link counts) must be rejected — a capacity
// change alone invalidates every envelope computation.
func TestSchedulePlanSwapDigestMismatch(t *testing.T) {
	gA := hubTopo(0)
	gB := graph.New("swaphub")
	ids := map[string]graph.NodeID{}
	for _, s := range []string{"a", "b", "c", "d", "u", "v", "x", "y"} {
		ids[s] = gB.AddNode(s)
	}
	duplex := func(p, q string, c float64) { gB.AddDuplex(ids[p], ids[q], c, 1, 1) }
	duplex("a", "u", 1000)
	duplex("b", "u", 1000)
	duplex("v", "c", 1000)
	duplex("v", "d", 1000)
	duplex("a", "b", 1000)
	duplex("c", "d", 1000)
	duplex("u", "x", 100)
	duplex("x", "v", 100)
	duplex("u", "y", 250) // same shape, different capacity
	duplex("y", "v", 100)
	if gA.NumNodes() != gB.NumNodes() || gA.NumLinks() != gB.NumLinks() {
		t.Fatal("fixture broken: topologies must be the same size")
	}

	old := hubPlan(t, gA, 30, crossingVia("x", "y"))
	other := hubPlan(t, gB, 30, crossingVia("y", "x"))
	if _, err := SchedulePlanSwap(old, other, Options{}); err == nil {
		t.Fatal("plan swap across same-size but different topologies did not error")
	}
}
