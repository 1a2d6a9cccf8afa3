// Command r3emu runs the packet-level Abilene experiment (the paper's
// Emulab evaluation, §5.3): MPLS-ff+R3 or OSPF reconvergence under three
// sequential bidirectional link failures, reporting per-OD throughput,
// per-link intensity, per-egress loss (Figure 11), ping RTT (Figure 12),
// and the R3-vs-OSPF link intensity comparison (Figure 13).
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/exp"
	"repro/internal/netem"
	"repro/internal/obs"
)

func main() {
	var (
		fig    = flag.String("fig", "11", "figure: 11, 12, 13 or sweep")
		phase  = flag.Float64("phase", 10, "seconds per failure phase")
		mbps   = flag.Float64("mbps", 220, "aggregate offered traffic")
		effort = flag.Int("effort", 120, "R3 precompute effort")
		seed   = flag.Int64("seed", 1, "packet jitter seed")

		chaos     = flag.Float64("chaos", 0, "chaos mode: drop this fraction of control packets (also enables fault injection); -fig sweep tabulates loss rates 0..30%")
		chaosSeed = flag.Int64("chaos-seed", 1, "chaos fault-injection seed (independent of -seed)")
		chaosRuns = flag.Int("chaos-runs", 8, "seeded runs per loss rate in -fig sweep")

		transitionF     = flag.Bool("transition", false, "compare staged (scheduler rounds over the staged-round flood) vs one-shot failure activation under chaos and exit")
		transitionSeeds = flag.Int("transition-seeds", 32, "chaos seeds for -transition")

		swapF     = flag.Bool("swap", false, "compare staged (per-commodity batched) vs one-shot plan swap under chaos and exit")
		swapSeeds = flag.Int("swap-seeds", 32, "chaos seeds for -swap")

		debugAddr  = flag.String("debug-addr", "", "serve /debug/vars, /debug/metrics and /debug/pprof on this address")
		traceOut   = flag.String("trace-out", "", "write solver span traces to this JSON file at exit")
		cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a pprof allocs profile to this file at exit")
		verbose    = flag.Bool("v", false, "info-level logging")
	)
	flag.Parse()

	reg, obsCleanup, err := obs.SetupCLI(*debugAddr, *traceOut, *cpuProfile, *memProfile, *verbose)
	if err != nil {
		fmt.Fprintln(os.Stderr, "r3emu:", err)
		os.Exit(1)
	}
	defer obsCleanup()

	cfg := exp.EmulationConfig{
		PhaseSeconds: *phase, TotalMbps: *mbps, Effort: *effort, Seed: *seed,
		Obs: reg,
	}
	if *chaos > 0 {
		cfg.Chaos = netem.ChaosConfig{
			Enabled: true, Seed: *chaosSeed,
			CtrlDrop: *chaos, CtrlJitter: 0.002,
		}
	}
	if *transitionF {
		sum := exp.TransitionSweep(cfg, *transitionSeeds)
		exp.PrintStagedSweep(sum, os.Stdout)
		return
	}
	if *swapF {
		sum := exp.SwapSweep(cfg, *swapSeeds)
		exp.PrintStagedSweep(sum, os.Stdout)
		return
	}
	switch *fig {
	case "11":
		r := exp.RunEmulation("MPLS-ff+R3", cfg)
		exp.Figure11(r, os.Stdout)
	case "12":
		r := exp.RunEmulation("MPLS-ff+R3", cfg)
		exp.Figure12(r, os.Stdout)
	case "13":
		r3 := exp.RunEmulation("MPLS-ff+R3", cfg)
		ospf := exp.RunEmulation("OSPF+recon", cfg)
		exp.Figure13(r3, ospf, os.Stdout)
	case "sweep":
		losses := []float64{0, 0.10, 0.20, 0.30}
		cfg.Seed = *chaosSeed
		rows := exp.ChaosLossSweep(cfg, losses, *chaosRuns)
		exp.PrintChaosSweep(rows, os.Stdout)
	default:
		fmt.Fprintf(os.Stderr, "r3emu: unknown figure %q\n", *fig)
		os.Exit(2)
	}
}
