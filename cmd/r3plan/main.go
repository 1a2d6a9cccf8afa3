// Command r3plan is the operational face of R3: precompute a protection
// plan for a topology and traffic matrix, save/load it in the wire format
// a central server would distribute (§4.3), and interrogate it — apply
// hypothetical failures, print the resulting detours and utilization, and
// verify the congestion-free certificate.
//
// Usage:
//
//	r3plan -net sbc -f 2 -save plan.json
//	r3plan -net sbc -load plan.json -fail 3,17 -detours
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/routing"
	"repro/internal/spf"
	"repro/internal/topo"
	"repro/internal/traffic"
	"repro/internal/transition"
)

func main() {
	var (
		name      = flag.String("net", "abilene", "topology: abilene|level3|sbc|uunet|generated|generated1k|usisp")
		file      = flag.String("file", "", "load a topology file instead of a built-in")
		tmFile    = flag.String("tm", "", "load a traffic matrix file instead of gravity demands")
		f         = flag.Int("f", 1, "number of overlapping link failures to protect against")
		alpha     = flag.Float64("degrade", 1, "per-link capacity floor alpha; < 1 protects the degradation envelope X_D instead of X_F")
		budget    = flag.Float64("budget", 1, "degradation budget B (total degraded capacity fraction) for -degrade")
		surge     = flag.Float64("surge", 0, "traffic-surge envelope scale (> 1 folds a surged matrix into the protection bound; FW solver)")
		surgeFrac = flag.Float64("surgefrac", 1, "fraction of OD pairs covered by -surge (heaviest first)")
		workload  = flag.String("workload", "", `combined workload spec, e.g. "alpha=0.5,budget=2,surge=1.5,odfrac=0.25" (overrides -degrade/-budget/-surge/-surgefrac)`)
		degrLinks = flag.String("degradelinks", "", `comma-separated link:frac partial losses to apply online, e.g. "3:0.5,7:0.25" (combines with -fail)`)
		total     = flag.Float64("total", 0, "total demand in Mbps (default: 15% of capacity)")
		effort    = flag.Int("effort", 200, "solver effort")
		workers   = flag.Int("workers", 0, "worker goroutines for the FW solver's oracle fan-outs and gradient-cost accumulation (0 = all CPUs, 1 = serial; same plan either way, ≈ 1.0x below a few hundred links)")
		envelope  = flag.Float64("envelope", 1.1, "normal-case penalty envelope (0 to disable)")
		seed      = flag.Int64("seed", 1, "gravity traffic seed")
		topk      = flag.Int("topk", 0, "keep only the k heaviest gravity OD pairs (0 = dense; required for 1000-node-class topologies)")
		spfMode   = flag.String("spf", "auto", "planner SPF kernel: auto|flat|incremental|delta (byte-identical plans; speed only)")
		baseMode  = flag.String("base", "opt", "base routing: opt (jointly optimized) or ospf (pinned to ECMP on current weights; required for 1000-node-class topologies)")
		save      = flag.String("save", "", "write the plan to this file")
		load      = flag.String("load", "", "read a plan from this file instead of solving")
		fail      = flag.String("fail", "", "comma-separated link IDs to fail")
		detours   = flag.Bool("detours", false, "print detours for the failed links")
		stage     = flag.Bool("stage", false, "decompose the -fail set into staged reconfiguration rounds, each certified by the exact LP")
		swapTo    = flag.String("swap", "", "schedule a swap from the current plan to the plan in this file, printing per-round certificates")
		fprint    = flag.Bool("fingerprint", false, "print the plan's wire-format content digest (matches r3d's X-R3-Digest)")
		verify    = flag.Int("verify", 0, "audit the plan by enumerating failure sets of up to N links")
		verifyCap = flag.Int("verifycap", 20000, "max scenarios for -verify (0 = unlimited)")

		debugAddr  = flag.String("debug-addr", "", "serve /debug/vars, /debug/metrics and /debug/pprof on this address")
		traceOut   = flag.String("trace-out", "", "write solver span traces to this JSON file at exit")
		cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a pprof allocs profile to this file at exit")
		verbose    = flag.Bool("v", false, "info-level logging")
	)
	flag.Parse()

	reg, obsCleanup, err := obs.SetupCLI(*debugAddr, *traceOut, *cpuProfile, *memProfile, *verbose)
	if err != nil {
		fatal(err)
	}
	defer obsCleanup()

	var g *graph.Graph
	if *file != "" {
		r, ferr := os.Open(*file)
		if ferr != nil {
			fatal(ferr)
		}
		g, err = topo.Parse(r)
		r.Close()
	} else {
		g, err = lookupTopo(*name)
	}
	if err != nil {
		fatal(err)
	}
	var d *traffic.Matrix
	if *tmFile != "" {
		r, ferr := os.Open(*tmFile)
		if ferr != nil {
			fatal(ferr)
		}
		d, err = traffic.ParseMatrix(r, g.NumNodes(), g.NodeByName)
		r.Close()
		if err != nil {
			fatal(err)
		}
	} else if *topk > 0 {
		d = traffic.GravityTopK(g, demandTotal(*total, g), *seed, *topk)
	} else {
		d = traffic.Gravity(g, demandTotal(*total, g), *seed)
	}
	mode, err := spf.ParseMode(*spfMode)
	if err != nil {
		fatal(err)
	}
	// -base ospf pins the base routing to ECMP on the graph's current
	// weights and optimizes only the protection routing (the OSPF+R3
	// configuration of the paper's evaluation). The envelope is moot with
	// a pinned base — it penalizes base-routing stretch, which is no
	// longer a variable — so it is dropped.
	var baseFlow *routing.Flow
	switch *baseMode {
	case "opt":
	case "ospf":
		comms := routing.ODCommodities(g.NumNodes(), d.At)
		baseFlow = spf.ECMPFlow(g, comms, nil, spf.WeightCost(g))
		*envelope = 0
	default:
		fatal(fmt.Errorf("unknown -base %q (want opt|ospf)", *baseMode))
	}

	// Resolve the workload envelope: -workload wins over the individual
	// flags; the zero spec keeps classic hard-failure protection.
	spec := core.WorkloadSpec{Alpha: *alpha, Budget: *budget, Surge: *surge, ODFrac: *surgeFrac}
	if *workload != "" {
		spec, err = core.ParseWorkloadSpec(*workload)
		if err != nil {
			fatal(err)
		}
	}
	if !spec.Degrades() {
		spec.Budget = 0
	}
	if spec.Surges() && spec.ODFrac == 0 {
		spec.ODFrac = 1
	}

	var plan *core.Plan
	if *load != "" {
		r, err := os.Open(*load)
		if err != nil {
			fatal(err)
		}
		plan, err = core.DecodePlan(r, g)
		r.Close()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("loaded plan: MLU over d+X = %.4f (normal %.4f)\n", plan.MLU, plan.NormalMLU)
	} else {
		model := spec.Model(core.ArbitraryFailures{F: *f})
		if s := spec.String(); s != "" {
			fmt.Printf("precomputing R3 plan for %s, %v (%s)...\n", g.Name, model, s)
		} else {
			fmt.Printf("precomputing R3 plan for %s, F=%d...\n", g.Name, *f)
		}
		plan, err = core.Precompute(g, d, core.Config{
			Model:           model,
			Surge:           spec.SurgeSpec(),
			BaseRouting:     baseFlow,
			Iterations:      *effort,
			PenaltyEnvelope: *envelope,
			Workers:         *workers,
			SPF:             mode,
			Obs:             reg,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("plan MLU over d+X = %.4f (normal case %.4f)\n", plan.MLU, plan.NormalMLU)
	}
	if plan.CongestionFree() {
		fmt.Println("certificate: congestion-free under every covered failure scenario (Theorem 1)")
	} else {
		fmt.Println("certificate: NOT congestion-free (MLU > 1); reroutes are best-effort")
	}

	// The digest and the saved file are the same bytes: encode once.
	if *fprint || *save != "" {
		wire, err := plan.EncodeBytes()
		if err != nil {
			fatal(err)
		}
		if *fprint {
			fmt.Printf("plan digest: %016x\n", core.Fingerprint(wire))
		}
		if *save != "" {
			if err := os.WriteFile(*save, wire, 0o666); err != nil {
				fatal(err)
			}
			fmt.Printf("plan written to %s\n", *save)
		}
	}

	if *verify > 0 {
		rep, err := plan.Verify(*verify, *verifyCap)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\naudit over %d scenarios (up to %d failures): worst MLU %.4f at %v, %d partitions, %d violations of the plan bound\n",
			rep.Scenarios, *verify, rep.WorstMLU, rep.WorstScenario, rep.Partitions, rep.Violations)
		// A degradation-protected plan is additionally audited against
		// sampled in-budget degradations, node outages, and — when a surge
		// envelope was requested — the surged matrix itself.
		if dm, ok := plan.Model.(core.DegradationModel); ok {
			scs := core.SampleDegradations(g, dm, 64, *seed)
			scs = append(scs, core.NodeScenarios(g)...)
			if spec.Surges() {
				scs = append(scs, spec.SurgeSpec().Scenario(d))
			}
			rep, err := plan.VerifyScenarios(scs)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("envelope audit over %d scenarios (%v): worst MLU %.4f at %s, %d partitions, %d violations\n",
				rep.Scenarios, rep.ByKind, rep.WorstMLU, rep.Worst.Describe(), rep.Partitions, rep.Violations)
		}
	}

	if *swapTo != "" {
		r, err := os.Open(*swapTo)
		if err != nil {
			fatal(err)
		}
		next, err := core.DecodePlan(r, g)
		r.Close()
		if err != nil {
			fatal(err)
		}
		printSwap(plan, next, reg)
	}

	if *fail != "" || *degrLinks != "" {
		st := core.NewState(plan)
		var failed []graph.LinkID
		if *fail != "" {
			for _, tok := range strings.Split(*fail, ",") {
				id, err := strconv.Atoi(strings.TrimSpace(tok))
				if err != nil || id < 0 || id >= g.NumLinks() {
					fatal(fmt.Errorf("bad link id %q", tok))
				}
				failed = append(failed, graph.LinkID(id))
			}
			if err := st.FailAll(failed...); err != nil {
				fatal(err)
			}
		}
		degraded, err := core.ParseDegradations(*degrLinks, g.NumLinks())
		if err != nil {
			fatal(err)
		}
		for _, dg := range degraded {
			if err := st.Degrade(dg.Link, dg.Frac); err != nil {
				fatal(err)
			}
		}
		what := fmt.Sprintf("failing %v", failed)
		if len(degraded) > 0 {
			what += fmt.Sprintf(" and degrading %q", *degrLinks)
		}
		fmt.Printf("\nafter %s: MLU = %.4f, lost demand %.2f Mbps\n",
			what, st.MLU(), st.LostDemand())
		if *detours {
			for _, e := range failed {
				l := g.Link(e)
				fmt.Printf("detour for link %d (%s -> %s):\n", e, g.Node(l.Src), g.Node(l.Dst))
				xi := st.Detour(e)
				for le, v := range xi {
					if v > 1e-9 {
						dl := g.Link(graph.LinkID(le))
						fmt.Printf("  %5.1f%% via %s -> %s\n", v*100, g.Node(dl.Src), g.Node(dl.Dst))
					}
				}
			}
		}
		if *stage {
			printStaged(plan, failed, reg)
		}
	} else if *stage {
		fatal(fmt.Errorf("-stage needs a -fail link list"))
	}
}

// printStaged schedules the failure set into staged rounds.
func printStaged(plan *core.Plan, failed []graph.LinkID, reg *obs.Registry) {
	seq, err := transition.Schedule(plan, failed, transition.Options{Obs: reg})
	if err != nil {
		fatal(err)
	}
	printSequence(seq, "staged reconfiguration", "LP interim detour",
		"congestion-free staged transition — every intermediate configuration within capacity (Theorem 2)",
		"best-effort transition")
}

// printSwap schedules the old→next plan migration into per-commodity
// batches.
func printSwap(old, next *core.Plan, reg *obs.Registry) {
	seq, err := transition.SchedulePlanSwap(old, next, transition.Options{Obs: reg})
	if err != nil {
		fatal(err)
	}
	printSequence(seq, "plan swap", "LP interim routing",
		"congestion-free plan swap — every mixed old/new configuration within capacity",
		"best-effort swap")
}

// printSequence prints a staged transition round by round with its
// feasibility evidence — what the round moves (links taken down, or OD
// commodities migrated), the post-round state's MLU, the
// asynchronous-application envelope and the exact LP certificate — then
// the verdict.
func printSequence(seq *transition.Sequence, title, interim, congestionFree, bestEffort string) {
	fmt.Printf("\n%s: %d rounds, transient MLU %.4f, %d LP solves, %d bytes on the wire\n",
		title, len(seq.Rounds), seq.TransientMLU, seq.LPSolves, seq.WireBytes())
	for _, r := range seq.Rounds {
		switch {
		case r.ODs != nil:
			fmt.Printf("  round %d [%d ODs]", r.Seq, len(r.ODs))
		case len(r.Links) > 0:
			fmt.Printf("  round %d [%s] links %v", r.Seq, r.Kind, r.Links)
		default:
			fmt.Printf("  round %d [%s]", r.Seq, r.Kind)
		}
		fmt.Printf(": MLU %.4f, envelope %.4f", r.StateMLU, r.EnvelopeMLU)
		if !math.IsNaN(r.LPMLU) {
			fmt.Printf(", LP certificate %.4f", r.LPMLU)
		}
		if r.CertifyErr != nil {
			fmt.Printf(", certify error: %v", r.CertifyErr)
		}
		if r.Fallback {
			fmt.Printf(", %s", interim)
		}
		if r.CongestionFree {
			fmt.Print(", congestion-free")
		} else {
			fmt.Print(", OVERLOADED")
		}
		fmt.Printf(", %d B\n", r.Delta.WireSize())
	}
	if seq.CongestionFree {
		fmt.Printf("verdict: %s\n", congestionFree)
	} else {
		fmt.Printf("verdict: %s; transient MLU bounded by %.4f\n", bestEffort, seq.TransientMLU)
	}
}

func lookupTopo(name string) (*graph.Graph, error) {
	switch strings.ToLower(name) {
	case "abilene":
		return topo.Abilene(), nil
	case "level3":
		return topo.Level3(), nil
	case "sbc":
		return topo.SBC(), nil
	case "uunet":
		return topo.UUNet(), nil
	case "generated":
		return topo.Generated(), nil
	case "generated1k":
		return topo.Generated1K(), nil
	case "usisp":
		return topo.USISP(), nil
	}
	return nil, fmt.Errorf("unknown topology %q", name)
}

func demandTotal(flagVal float64, g *graph.Graph) float64 {
	if flagVal > 0 {
		return flagVal
	}
	return 0.15 * g.TotalCapacity()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "r3plan:", err)
	os.Exit(1)
}
