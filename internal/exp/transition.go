package exp

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/netem"
	"repro/internal/topo"
	"repro/internal/traffic"
	"repro/internal/transition"
)

// StagedRun is one seeded comparison of a staged transition against its
// one-shot alternative under the same chaos.
type StagedRun struct {
	Seed int64
	// StagedPeak and OneShotPeak are the worst measured link utilization
	// over the transition window, on an identical measurement grid.
	StagedPeak, OneShotPeak float64
	// StagedDropKB and OneShotDropKB are bytes dropped over the window
	// (blackholes plus queue overflow), in kilobytes.
	StagedDropKB, OneShotDropKB float64
	// Match reports that both runs converged and the staged end state is
	// byte-identical to the one-shot one.
	Match      bool
	Violations int
}

// StagedSummary aggregates a TransitionSweep or a SwapSweep.
type StagedSummary struct {
	Title          string  // what was staged against what, for the table header
	Rounds         int     // staged rounds k
	TransientMLU   float64 // the scheduler's analytic transient bound
	CongestionFree bool    // every round analytically congestion-free
	OneShotMLU     float64 // analytic mixing envelope of the one-shot alternative (plan swaps only)
	WireKB         float64 // staged round deltas over the wire
	Runs           []StagedRun
	StagedWorse    int // runs where the staged peak exceeded one-shot's
	Matches        int
	Violations     int
}

// transientTol absorbs measurement noise (packet quantization on the
// shared 100 ms grid) when comparing staged vs one-shot peaks.
const transientTol = 0.02

// The transient plays out on a sub-second scale regardless of
// cfg.PhaseSeconds: one warmup second, rounds 250 ms apart, then a
// settling tail, measured in 100 ms bins.
const (
	sweepWarmup   = 1.0
	sweepRoundGap = 0.25
	sweepTail     = 1.2
	sweepBin      = 0.1
)

// stagedSweep runs the seeded staged-vs-one-shot comparison both sweeps
// share. Every router starts from plan and carries d; inject schedules
// the transition's events on a fresh emulator — seq's rounds when staged,
// the one-shot alternative otherwise — and returns that emulator's
// convergence check. Both runs of a seed share the traffic seed and the
// chaos seed and are measured on an identical grid, so the per-seed
// peak-utilization comparison isolates the activation strategy.
func stagedSweep(cfg EmulationConfig, seeds int, sum *StagedSummary, plan *core.Plan, d *traffic.Matrix,
	seq *transition.Sequence, inject func(em *netem.Emulator, staged bool) (converged func() bool)) *StagedSummary {
	sum.Rounds, sum.TransientMLU, sum.CongestionFree = len(seq.Rounds), seq.TransientMLU, seq.CongestionFree
	sum.WireKB = float64(seq.WireBytes()) / 1024
	g := plan.G
	stop := sweepWarmup + sweepRoundGap*float64(len(seq.Rounds)) + sweepTail

	type outcome struct {
		peak, dropKB float64
		converged    bool
		fingerprint  uint64
		violations   int
	}
	drive := func(chaos netem.ChaosConfig, staged bool) outcome {
		fw := netem.NewR3Distributed(plan)
		em := netem.New(netem.Config{G: g, Forwarder: fw, Seed: cfg.Seed, Obs: cfg.Obs, Chaos: chaos})
		d.Pairs(func(a, b graph.NodeID, mbps float64) {
			em.AddCBRTraffic(a, b, mbps*1e6/8, stop)
		})
		converged := inject(em, staged)
		for t := sweepWarmup + sweepBin; t < stop; t += sweepBin {
			em.MarkPhaseAt(t)
		}
		em.Run(stop)
		peak, drop := transientPeak(em, g, sweepWarmup)
		return outcome{peak, float64(drop) / 1024, converged(), fw.ViewFingerprint(0), len(em.Violations())}
	}

	for s := 0; s < seeds; s++ {
		chaos := cfg.Chaos
		if !chaos.Enabled {
			chaos = netem.ChaosConfig{Enabled: true, CtrlDrop: 0.20, CtrlDup: 0.10, CtrlJitter: 0.002}
		}
		chaos.Seed += int64(s)
		st, one := drive(chaos, true), drive(chaos, false)
		run := StagedRun{
			Seed:       chaos.Seed,
			StagedPeak: st.peak, OneShotPeak: one.peak,
			StagedDropKB: st.dropKB, OneShotDropKB: one.dropKB,
			Match:      st.converged && one.converged && st.fingerprint == one.fingerprint,
			Violations: st.violations + one.violations,
		}
		if run.Match {
			sum.Matches++
		}
		if run.StagedPeak > run.OneShotPeak+transientTol {
			sum.StagedWorse++
		}
		sum.Violations += run.Violations
		sum.Runs = append(sum.Runs, run)
	}
	return sum
}

// stageRounds floods seq's rounds from router 0, the first at time at.
func stageRounds(em *netem.Emulator, seq *transition.Sequence, at float64) {
	for i, r := range seq.Rounds {
		em.StageRoundAt(at+float64(i)*sweepRoundGap, 0, r.Seq, r.Delta)
	}
}

// TransitionSweep compares staged against one-shot activation of the §5.3
// Houston–KansasCity + Chicago–Indianapolis duplex failures on Abilene
// across seeded chaos runs. The staged run takes the links down silently
// and delivers the transition scheduler's rounds through the staged-round
// flood; the one-shot run uses the classic failure-notification flood, so
// every router reconfigures the moment it hears.
func TransitionSweep(cfg EmulationConfig, seeds int) *StagedSummary {
	cfg.defaults()
	g := topo.Abilene()
	d := traffic.AbileneMatrix(g, cfg.TotalMbps)
	plan, err := core.Precompute(g, d, core.Config{
		Model: core.ArbitraryFailures{F: 2}, Iterations: cfg.Effort,
		PenaltyEnvelope: 1.1, Obs: cfg.Obs,
	})
	if err != nil {
		panic(err)
	}
	canon := abileneFailureSequence(g)[:2]
	var fails []graph.LinkID
	for _, e := range canon {
		fails = append(fails, e, g.Link(e).Reverse)
	}
	seq, err := transition.Schedule(plan, fails, transition.Options{SkipCertify: true, Obs: cfg.Obs})
	if err != nil {
		panic(err)
	}
	sum := &StagedSummary{Title: "Staged vs one-shot activation (Abilene, Houston-KC + Chicago-Indy duplex failures)"}
	return stagedSweep(cfg, seeds, sum, plan, d, seq, func(em *netem.Emulator, staged bool) func() bool {
		if !staged {
			for _, e := range canon {
				em.FailAt(sweepWarmup, e)
			}
			return em.FloodConverged
		}
		em.FailAtSilent(sweepWarmup, canon...)
		stageRounds(em, seq, sweepWarmup+0.02)
		return em.StagesConverged
	})
}

// transientPeak scans the measurement phases from the failure instant on
// and returns the worst per-link utilization plus total dropped bytes.
func transientPeak(em *netem.Emulator, g *graph.Graph, from float64) (peak float64, dropBytes int64) {
	for _, p := range em.Phases() {
		if p.End <= from+1e-9 || p.Duration() < 0.005 {
			continue
		}
		for e, b := range p.LinkBytes {
			u := float64(b) * 8 / p.Duration() / 1e6 / g.Link(graph.LinkID(e)).Capacity
			if u > peak {
				peak = u
			}
		}
		for _, b := range p.DropsByDst {
			dropBytes += b
		}
	}
	return peak, dropBytes
}

// PrintStagedSweep renders a sweep as the r3emu -transition / -swap table.
func PrintStagedSweep(sum *StagedSummary, w io.Writer) {
	fmt.Fprintf(w, "# %s\n", sum.Title)
	fmt.Fprintf(w, "# rounds=%d scheduler_transient_mlu=%.4f congestion_free=%v", sum.Rounds, sum.TransientMLU, sum.CongestionFree)
	if sum.OneShotMLU > 0 {
		fmt.Fprintf(w, " one_shot_envelope_mlu=%.4f", sum.OneShotMLU)
	}
	fmt.Fprintf(w, " wire_KB=%.1f\n", sum.WireKB)
	fmt.Fprintln(w, "# seed\tstaged_peak\toneshot_peak\tstaged_dropKB\toneshot_dropKB\tmatch")
	for _, r := range sum.Runs {
		fmt.Fprintf(w, "%d\t%.4f\t%.4f\t%.1f\t%.1f\t%v\n",
			r.Seed, r.StagedPeak, r.OneShotPeak, r.StagedDropKB, r.OneShotDropKB, r.Match)
	}
	fmt.Fprintf(w, "# staged peak <= one-shot peak in %d/%d runs; end states match in %d/%d; violations %d\n",
		len(sum.Runs)-sum.StagedWorse, len(sum.Runs), sum.Matches, len(sum.Runs), sum.Violations)
}
