package transition

import (
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mcf"
	"repro/internal/mplsff"
	"repro/internal/obs"
	"repro/internal/routing"
)

// sequenceDigest folds everything a sequence promises into one FNV-64a
// value: per round (Seq, Kind, Links, ODs, the three MLUs as float bits,
// whether the certificate failed, Fallback, CongestionFree, the delta's
// wire size, and the fingerprint of a view that has applied rounds 1..Seq
// — which pins the delta's content, not only its size), then the sequence
// totals, Final's fingerprint, and every counter the run left in its
// registry (transition.* and the LP's own, so the warm chain is pinned
// pivot for pivot).
func sequenceDigest(start *mplsff.Network, seq *Sequence, reg *obs.Registry) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	w := func(v uint64) {
		binary.BigEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	wb := func(b bool) {
		if b {
			w(1)
		} else {
			w(0)
		}
	}
	wf := func(f float64) { w(math.Float64bits(f)) }
	view := start.Clone()
	w(uint64(len(seq.Rounds)))
	for _, r := range seq.Rounds {
		w(uint64(r.Seq))
		w(uint64(r.Kind))
		w(uint64(len(r.Links)))
		for _, e := range r.Links {
			w(uint64(e))
		}
		w(uint64(len(r.ODs)))
		for _, od := range r.ODs {
			w(uint64(od[0]))
			w(uint64(od[1]))
		}
		wf(r.StateMLU)
		wf(r.EnvelopeMLU)
		wf(r.LPMLU)
		wb(r.CertifyErr != nil)
		wb(r.Fallback)
		wb(r.CongestionFree)
		w(uint64(r.Delta.WireSize()))
		view.ApplyRound(r.Seq, r.Delta)
		w(view.Fingerprint())
	}
	wb(seq.CongestionFree)
	wf(seq.TransientMLU)
	wf(seq.FinalMLU)
	w(uint64(seq.LPSolves))
	w(uint64(seq.Fallbacks))
	w(uint64(seq.Swaps))
	w(uint64(seq.CertifyErrs))
	w(uint64(seq.WireBytes()))
	w(seq.Final.Fingerprint())
	counters := reg.Snapshot().Counters
	names := make([]string, 0, len(counters))
	for name := range counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h.Write([]byte(name))
		w(uint64(counters[name]))
	}
	return h.Sum64()
}

// TestSequenceGolden pins whole sequences round for round. The other
// suites assert bounds and end states; this one asserts identity, so a
// refactor of the scheduler core cannot reorder a batch, drop a solve
// from the warm chain or change a bit of an envelope unnoticed. The pins
// were computed on the commit before the shared core existed.
func TestSequenceGolden(t *testing.T) {
	plan, hot := abilenePlans(t)
	twoDuplex := append(duplexPair(t, plan.G, "Houston", "KansasCity"),
		duplexPair(t, plan.G, "Chicago", "Indianapolis")...)
	hotFails := []graph.LinkID{12, 13, 14, 15}

	hub, hubZ := hubTopo(0), hubTopo(1000)
	pair := func(ac, bd string) map[[2]string]string {
		return map[[2]string]string{{"a", "c"}: ac, {"b", "d"}: bd}
	}
	cross30Old, cross30New := hubPlan(t, hub, 30, crossingVia("x", "y")), hubPlan(t, hub, 30, crossingVia("y", "x"))
	cross60Old, cross60New := hubPlan(t, hub, 60, crossingVia("x", "y")), hubPlan(t, hub, 60, crossingVia("y", "x"))
	deadOld, deadNew := hubPlan(t, hubZ, 90, pair("x", "y")), hubPlan(t, hubZ, 90, pair("y", "x"))
	cross20 := hubPlan(t, hub, 20, crossingVia("x", "y"))
	swapOld, swapNew := planPair(t)

	failing := func(*graph.Graph, []routing.Commodity, mcf.Options) (*mcf.Result, error) {
		return nil, errors.New("injected solver failure")
	}

	type runFn func(*obs.Registry) (*mplsff.Network, *Sequence, error)
	activate := func(p *core.Plan, fails []graph.LinkID, o Options) runFn {
		return func(reg *obs.Registry) (*mplsff.Network, *Sequence, error) {
			o.Obs = reg
			seq, err := Schedule(p, fails, o)
			return mplsff.Build(p), seq, err
		}
	}
	swap := func(old, next *core.Plan, o Options) runFn {
		return func(reg *obs.Registry) (*mplsff.Network, *Sequence, error) {
			o.Obs = reg
			seq, err := SchedulePlanSwap(old, next, o)
			return mplsff.Build(old), seq, err
		}
	}

	cases := []struct {
		name   string
		run    runFn
		solver func(*graph.Graph, []routing.Commodity, mcf.Options) (*mcf.Result, error)
		want   uint64
	}{
		{"activate/abilene-2duplex", activate(plan, twoDuplex, Options{}), nil, 0x4f978cce9740cf0d},
		{"activate/abilene-2duplex-nocert", activate(plan, twoDuplex, Options{SkipCertify: true}), nil, 0xc39fc0e3669759a9},
		{"activate/abilene-2duplex-greedy", activate(plan, twoDuplex, Options{MaxExactGroups: -1}), nil, 0xa6df31bb985b3751},
		{"activate/abilene-2duplex-greedy-nocert", activate(plan, twoDuplex, Options{SkipCertify: true, MaxExactGroups: -1}), nil, 0x5c83d2bd6be781d5},
		{"activate/abilene-2duplex-certify-error", activate(plan, twoDuplex, Options{}), failing, 0x4efde6e5dcbe8703},
		{"activate/hot-detour-nocert", activate(hot, hotFails, Options{SkipCertify: true}), nil, 0x9e8a3ad00ab501b2},
		{"activate/hot-detour", activate(hot, hotFails, Options{}), nil, 0x8e68a9374d6b09a0},
		{"swap/abilene-one-round", swap(swapOld, swapNew, Options{}), nil, 0x4c77d84036a33fac},
		{"swap/abilene-one-round-nocert", swap(swapOld, swapNew, Options{SkipCertify: true}), nil, 0x25368de58d389389},
		{"swap/hub-multi-round", swap(cross30Old, cross30New, Options{}), nil, 0xf55a1842a88fb1ef},
		{"swap/hub-multi-round-rollback", swap(cross30New, cross30Old, Options{SkipCertify: true}), nil, 0x1055e7daca032874},
		{"swap/hub-multi-round-greedy", swap(cross30Old, cross30New, Options{MaxExactGroups: -1}), nil, 0x324c0be5ee4263b3},
		{"swap/hub-interim", swap(deadOld, deadNew, Options{}), nil, 0x8922e86aed310c32},
		{"swap/hub-best-effort", swap(cross60Old, cross60New, Options{}), nil, 0xcdea748555135c9a},
		{"swap/hub-ilm-only", swap(cross30Old, cross20, Options{}), nil, 0xe583020f71b9f914},
		{"swap/hub-certify-error", swap(cross30Old, cross30New, Options{}), failing, 0xb52fbc4fabf49639},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.solver != nil {
				orig := solveExact
				solveExact = tc.solver
				defer func() { solveExact = orig }()
			}
			reg := obs.NewRegistry()
			start, seq, err := tc.run(reg)
			if err != nil {
				t.Fatal(err)
			}
			if got := sequenceDigest(start, seq, reg); got != tc.want {
				t.Errorf("sequence digest %#016x, want %#016x (%d rounds, %d LP solves, %d fallbacks, %d swaps, transient %v)",
					got, tc.want, len(seq.Rounds), seq.LPSolves, seq.Fallbacks, seq.Swaps, seq.TransientMLU)
			}
		})
	}
}
