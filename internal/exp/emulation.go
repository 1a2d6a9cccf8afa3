package exp

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/netem"
	"repro/internal/obs"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// EmulationConfig parameterizes the Abilene testbed reproduction
// (Figures 11–13): 100 Mbps links, a scaled Abilene traffic matrix, and
// three sequential bidirectional link failures — Houston–KansasCity,
// Chicago–Indianapolis, Sunnyvale–Denver — one per phase.
type EmulationConfig struct {
	// PhaseSeconds is the emulated time between failures (the paper
	// waited about a minute; the default 10 s preserves the dynamics at a
	// fraction of the event count).
	PhaseSeconds float64
	// TotalMbps is the aggregate offered traffic (default 220).
	TotalMbps float64
	// Effort is the R3 precompute effort.
	Effort int
	// Seed drives packet arrival jitter.
	Seed int64
	// Chaos, when Enabled, injects seeded control/data-plane faults into
	// the emulation (see netem.ChaosConfig).
	Chaos netem.ChaosConfig
	// Obs, when non-nil, receives precompute and emulator metrics.
	Obs *obs.Registry
}

func (c *EmulationConfig) defaults() {
	if c.PhaseSeconds == 0 {
		c.PhaseSeconds = 10
	}
	if c.TotalMbps == 0 {
		c.TotalMbps = 220
	}
	if c.Effort == 0 {
		c.Effort = 120
	}
}

// EmulationResult aggregates per-phase measurements of one run.
type EmulationResult struct {
	Forwarder string
	G         *graph.Graph
	Phases    []*netem.PhaseStats
	// RTT samples of the Denver→LosAngeles probe: (time, rtt seconds).
	RTT [][2]float64
	// FailedByPhase[i] is the set of links down during phase i.
	FailedByPhase []graph.LinkSet
}

// abileneFailureSequence returns the three duplex failures of §5.3.
func abileneFailureSequence(g *graph.Graph) []graph.LinkID {
	pairs := [][2]string{
		{"Houston", "KansasCity"},
		{"Chicago", "Indianapolis"},
		{"Sunnyvale", "Denver"},
	}
	var out []graph.LinkID
	for _, p := range pairs {
		a, _ := g.NodeByName(p[0])
		b, _ := g.NodeByName(p[1])
		id, ok := g.FindLink(a, b)
		if !ok {
			panic(fmt.Sprintf("exp: missing Abilene link %v", p))
		}
		out = append(out, id)
	}
	return out
}

// RunEmulation executes the packet-level experiment with the given
// forwarding plane ("MPLS-ff+R3" or "OSPF+recon").
func RunEmulation(forwarder string, cfg EmulationConfig) *EmulationResult {
	cfg.defaults()
	g := topo.Abilene()
	d := traffic.AbileneMatrix(g, cfg.TotalMbps)

	var fw netem.Forwarder
	var converge float64
	switch forwarder {
	case "MPLS-ff+R3":
		plan, err := core.Precompute(g, d, core.Config{
			Model: core.ArbitraryFailures{F: 3}, Iterations: cfg.Effort,
			PenaltyEnvelope: 1.1, Obs: cfg.Obs,
		})
		if err != nil {
			panic(err)
		}
		// Distributed control plane: every router holds its own copy of p
		// and reconfigures when the notification flood reaches it (§4.3).
		fw = netem.NewR3Distributed(plan)
	case "OSPF+recon":
		fw = netem.NewOSPFRecon(g)
		converge = 2.0 // OSPF SPF + FIB update timescale
	default:
		panic(fmt.Sprintf("exp: unknown forwarder %q", forwarder))
	}

	em := netem.New(netem.Config{
		G: g, Forwarder: fw, Seed: cfg.Seed, ConvergeDelay: converge,
		Chaos: cfg.Chaos, Obs: cfg.Obs,
	})
	stop := 4 * cfg.PhaseSeconds
	d.Pairs(func(a, b graph.NodeID, mbps float64) {
		em.AddCBRTraffic(a, b, mbps*1e6/8, stop)
	})
	den, _ := g.NodeByName("Denver")
	la, _ := g.NodeByName("LosAngeles")
	em.AddPing(den, la, 0.2, stop)

	fails := abileneFailureSequence(g)
	var failedSets []graph.LinkSet
	cum := graph.LinkSet{}
	failedSets = append(failedSets, cum.Clone())
	for i, e := range fails {
		em.FailAt(float64(i+1)*cfg.PhaseSeconds, e)
		cum.Add(e)
		if rev := g.Link(e).Reverse; rev >= 0 {
			cum.Add(rev)
		}
		failedSets = append(failedSets, cum.Clone())
	}
	em.Run(stop)

	return &EmulationResult{
		Forwarder:     forwarder,
		G:             g,
		Phases:        em.Phases(),
		RTT:           em.RTT,
		FailedByPhase: failedSets,
	}
}

// Figure11 prints the three panels of Figure 11 from an R3 emulation run:
// (a) per-OD normalized throughput, (b) per-link normalized intensity,
// (c) per-egress aggregated loss rate — each across the four phases
// (normal, 1, 2, 3 link failures).
func Figure11(r *EmulationResult, w io.Writer) {
	g := r.G
	capacity := g.Link(0).Capacity // Abilene links are uniform

	// (a) Normalized throughput per OD pair, sorted by the normal-case
	// value.
	type od struct {
		pair [2]graph.NodeID
		vals []float64
	}
	var ods []od
	for pair := range r.Phases[0].OfferedBytes {
		o := od{pair: pair}
		for _, p := range r.Phases {
			rate := float64(p.DeliveredBytes[pair]) * 8 / p.Duration() / 1e6
			o.vals = append(o.vals, rate/capacity)
		}
		ods = append(ods, o)
	}
	// Pairs with equal normal-case throughput keep (src, dst) order, so
	// the figure does not depend on map iteration order.
	sort.Slice(ods, func(i, j int) bool {
		if ods[i].vals[0] != ods[j].vals[0] {
			return ods[i].vals[0] < ods[j].vals[0]
		}
		if ods[i].pair[0] != ods[j].pair[0] {
			return ods[i].pair[0] < ods[j].pair[0]
		}
		return ods[i].pair[1] < ods[j].pair[1]
	})
	fmt.Fprintln(w, "# Figure 11a: normalized OD throughput (sorted by normal case)")
	fmt.Fprintln(w, "# od\tnormal\t1-failure\t2-failures\t3-failures")
	for i, o := range ods {
		fmt.Fprintf(w, "%d", i+1)
		for _, v := range o.vals {
			fmt.Fprintf(w, "\t%.4f", v)
		}
		fmt.Fprintln(w)
	}

	// (b) Normalized per-link intensity, sorted by the normal case.
	nL := g.NumLinks()
	intens := make([][]float64, nL)
	for e := 0; e < nL; e++ {
		for _, p := range r.Phases {
			rate := float64(p.LinkBytes[e]) * 8 / p.Duration() / 1e6
			intens[e] = append(intens[e], rate/g.Link(graph.LinkID(e)).Capacity)
		}
	}
	sort.Slice(intens, func(i, j int) bool { return intens[i][0] < intens[j][0] })
	fmt.Fprintln(w, "# Figure 11b: normalized link intensity (sorted by normal case)")
	fmt.Fprintln(w, "# link\tnormal\t1-failure\t2-failures\t3-failures")
	for e := 0; e < nL; e++ {
		fmt.Fprintf(w, "%d", e+1)
		for _, v := range intens[e] {
			fmt.Fprintf(w, "\t%.4f", v)
		}
		fmt.Fprintln(w)
	}

	// (c) Aggregated loss rate at each egress router.
	fmt.Fprintln(w, "# Figure 11c: aggregated loss rate per egress router")
	fmt.Fprintln(w, "# egress\tnormal\t1-failure\t2-failures\t3-failures")
	for v := 0; v < g.NumNodes(); v++ {
		fmt.Fprintf(w, "%s", g.Node(graph.NodeID(v)))
		for _, p := range r.Phases {
			var expected int64
			for pair, b := range p.OfferedBytes {
				if pair[1] == graph.NodeID(v) {
					expected += b
				}
			}
			loss := 0.0
			if expected > 0 {
				loss = float64(p.DropsByDst[v]) / float64(expected)
			}
			fmt.Fprintf(w, "\t%.4f", loss)
		}
		fmt.Fprintln(w)
	}
}

// Figure12 prints the RTT time series of the Denver–LosAngeles probe.
func Figure12(r *EmulationResult, w io.Writer) {
	fmt.Fprintln(w, "# Figure 12: RTT of a Denver-LosAngeles flow (time s, RTT ms)")
	for _, s := range r.RTT {
		fmt.Fprintf(w, "%.2f\t%.2f\n", s[0], s[1]*1000)
	}
}

// Figure13 compares the final-phase (three failures) sorted per-link
// intensity of two runs — MPLS-ff+R3 versus OSPF+recon.
func Figure13(r3, ospf *EmulationResult, w io.Writer) {
	final := func(r *EmulationResult) []float64 {
		p := r.Phases[len(r.Phases)-1]
		out := make([]float64, r.G.NumLinks())
		for e := range out {
			rate := float64(p.LinkBytes[e]) * 8 / p.Duration() / 1e6
			out[e] = rate / r.G.Link(graph.LinkID(e)).Capacity
		}
		sort.Float64s(out)
		return out
	}
	a, b := final(r3), final(ospf)
	fmt.Fprintln(w, "# Figure 13: sorted normalized link intensity under three link failures")
	fmt.Fprintf(w, "# link\t%s\t%s\n", r3.Forwarder, ospf.Forwarder)
	for i := range a {
		fmt.Fprintf(w, "%d\t%.4f\t%.4f\n", i+1, a[i], b[i])
	}
}

// PeakIntensity returns the highest per-link normalized intensity in the
// final phase (used by tests and EXPERIMENTS.md).
func (r *EmulationResult) PeakIntensity(phase int) float64 {
	p := r.Phases[phase]
	worst := 0.0
	for e, b := range p.LinkBytes {
		rate := float64(b) * 8 / p.Duration() / 1e6
		if u := rate / r.G.Link(graph.LinkID(e)).Capacity; u > worst {
			worst = u
		}
	}
	return worst
}

// LossRate returns total drops ÷ total offered in a phase.
func (r *EmulationResult) LossRate(phase int) float64 {
	p := r.Phases[phase]
	var off, dr int64
	for _, v := range p.OfferedBytes {
		off += v
	}
	for _, v := range p.DropsByDst {
		dr += v
	}
	if off == 0 {
		return 0
	}
	return float64(dr) / float64(off)
}
