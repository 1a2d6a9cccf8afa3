package transition

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strings"
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
// totals, the fingerprint of the view after the last round, and every
// counter the run left in its
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
	w(view.Fingerprint())
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

// roundTable lists each round's MLUs and verdict, so a moved pin shows
// whether behaviour moved or only the certificate's last bits did.
func roundTable(seq *Sequence) string {
	var b strings.Builder
	for _, r := range seq.Rounds {
		fmt.Fprintf(&b, "\n  round %d kind=%v state=%v envelope=%v lp=%v fallback=%v congestion_free=%v",
			r.Seq, r.Kind, r.StateMLU, r.EnvelopeMLU, r.LPMLU, r.Fallback, r.CongestionFree)
	}
	return b.String()
}

// TestSequenceGolden pins whole sequences round for round. The other
// suites assert bounds and end states; this one asserts identity, so a
// refactor of the scheduler core cannot reorder a batch, drop a solve
// from the warm chain or change a bit of an envelope unnoticed. The pins
// were computed on the commit before the shared core existed; nine moved
// once when the exact LP was aggregated by destination (its LPMLU's last
// bits, its interim rows and its pivot counts).
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
		{"activate/abilene-2duplex", activate(plan, twoDuplex, Options{}), nil, 0x90f67644e91e458c},
		{"activate/abilene-2duplex-nocert", activate(plan, twoDuplex, Options{SkipCertify: true}), nil, 0xb8c0bf36153f1c25},
		{"activate/abilene-2duplex-greedy", activate(plan, twoDuplex, Options{maxExactGroups: -1}), nil, 0x946d5341aa476b45},
		{"activate/abilene-2duplex-greedy-nocert", activate(plan, twoDuplex, Options{SkipCertify: true, maxExactGroups: -1}), nil, 0x519c5082acd47666},
		{"activate/abilene-2duplex-certify-error", activate(plan, twoDuplex, Options{}), failing, 0xaf88e226928c284f},
		{"activate/hot-detour-nocert", activate(hot, hotFails, Options{SkipCertify: true}), nil, 0x7ce28faca1089873},
		{"activate/hot-detour", activate(hot, hotFails, Options{}), nil, 0x934643c14f3df590},
		{"swap/abilene-one-round", swap(swapOld, swapNew, Options{}), nil, 0xfc4c8315a218187d},
		{"swap/abilene-one-round-nocert", swap(swapOld, swapNew, Options{SkipCertify: true}), nil, 0xcc02dde211e96bf9},
		{"swap/hub-multi-round", swap(cross30Old, cross30New, Options{}), nil, 0x958939521d99df1d},
		{"swap/hub-multi-round-rollback", swap(cross30New, cross30Old, Options{SkipCertify: true}), nil, 0x1055e7daca032874},
		{"swap/hub-multi-round-greedy", swap(cross30Old, cross30New, Options{maxExactGroups: -1}), nil, 0xfad5bd8420c1cc95},
		{"swap/hub-interim", swap(deadOld, deadNew, Options{}), nil, 0xf547e32b14788a4d},
		{"swap/hub-best-effort", swap(cross60Old, cross60New, Options{}), nil, 0xadb3316eb27aa4d0},
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
				t.Errorf("sequence digest %#016x, want %#016x (%d rounds, %d LP solves, %d fallbacks, %d swaps, transient %v)%s",
					got, tc.want, len(seq.Rounds), seq.LPSolves, seq.Fallbacks, seq.Swaps, seq.TransientMLU, roundTable(seq))
			}
		})
	}
}
