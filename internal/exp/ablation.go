package exp

import (
	"fmt"
	"io"
	"math"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mplsff"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// AblationSolverGap compares the exact LP solver against the iterative
// Frank–Wolfe solver on a small topology: objective gap and runtime
// trade-off (the design choice that makes large topologies tractable).
type AblationSolverGap struct {
	LPMLU, FWMLU float64
	GapPercent   float64
}

// SolverGap runs the ablation on a five-node ring with chords — an
// instance the simplex solves exactly in milliseconds (LP (7) has
// O(|V|^2·|E|+|E|^2) variables and network LPs are highly degenerate,
// so exact solves stop scaling at mid-size networks; that
// size-vs-exactness trade-off is the point of this ablation).
func SolverGap(o Options) *AblationSolverGap {
	o = o.withDefaults()
	g := smallRing()
	d := traffic.Gravity(g, 120, 11)
	lp, err := core.Precompute(g, d, core.Config{Model: core.ArbitraryFailures{F: 1}, Solver: core.SolverLP, Workers: o.Workers})
	if err != nil {
		panic(err)
	}
	fw, err := core.Precompute(g, d, core.Config{Model: core.ArbitraryFailures{F: 1}, Iterations: o.Effort, Workers: o.Workers})
	if err != nil {
		panic(err)
	}
	return &AblationSolverGap{
		LPMLU: lp.MLU, FWMLU: fw.MLU,
		GapPercent: 100 * (fw.MLU/lp.MLU - 1),
	}
}

// Print writes the row.
func (a *AblationSolverGap) Print(w io.Writer) {
	fmt.Fprintln(w, "# Ablation: exact LP vs Frank-Wolfe solver (5-node ring+chords, F=1)")
	fmt.Fprintf(w, "LP MLU %.4f, FW MLU %.4f, gap %.2f%%\n", a.LPMLU, a.FWMLU, a.GapPercent)
}

// EnvelopeSweepRow is one β of the penalty-envelope sweep.
type EnvelopeSweepRow struct {
	Beta          float64
	NormalMLU     float64
	ProtectedMLU  float64
	OptNormalMLU  float64
	NormalPenalty float64 // NormalMLU / OptNormalMLU
}

// EnvelopeSweep quantifies the normal-case vs failure-case trade-off the
// β parameter controls (§3.5), on SBC.
func EnvelopeSweep(betas []float64, o Options) []EnvelopeSweepRow {
	o = o.withDefaults()
	g := topo.SBC()
	d := traffic.Gravity(g, 1000, o.Seed+62)
	scaleToOptimalMLU(g, d, 0.5)
	base, err := core.Precompute(g, d, core.Config{Model: core.ArbitraryFailures{F: 0}, Iterations: o.Effort, Workers: o.Workers})
	if err != nil {
		panic(err)
	}
	optNormal := base.NormalMLU

	var rows []EnvelopeSweepRow
	for _, beta := range betas {
		cfg := core.Config{Model: core.ArbitraryFailures{F: 1}, Iterations: o.Effort, Workers: o.Workers}
		if !math.IsInf(beta, 1) {
			cfg.PenaltyEnvelope = beta
		}
		plan, err := core.Precompute(g, d, cfg)
		if err != nil {
			panic(err)
		}
		rows = append(rows, EnvelopeSweepRow{
			Beta: beta, NormalMLU: plan.NormalMLU, ProtectedMLU: plan.MLU,
			OptNormalMLU: optNormal, NormalPenalty: plan.NormalMLU / optNormal,
		})
	}
	return rows
}

// PrintEnvelopeSweep writes the sweep table.
func PrintEnvelopeSweep(w io.Writer, rows []EnvelopeSweepRow) {
	fmt.Fprintln(w, "# Ablation: penalty envelope sweep (SBC, F=1)")
	fmt.Fprintf(w, "%8s %12s %12s %14s\n", "beta", "normal MLU", "d+X1 MLU", "normal/opt")
	for _, r := range rows {
		b := fmt.Sprintf("%.2f", r.Beta)
		if math.IsInf(r.Beta, 1) {
			b = "inf"
		}
		fmt.Fprintf(w, "%8s %12.4f %12.4f %14.3f\n", b, r.NormalMLU, r.ProtectedMLU, r.NormalPenalty)
	}
}

// VirtualDemandAblation compares the paper's top-F virtual demand
// envelope against the naive alternative that reserves for ALL links
// failing at once (F = |E|): the naive variant wildly over-protects,
// which is exactly why X_F is defined with the sum constraint.
type VirtualDemandAblation struct {
	TopF, Naive float64
}

// VirtualDemand runs the ablation on the 5-node ring with F=1: the ring
// makes every link carry several detours, so reserving for ALL virtual
// demands at once (the naive envelope) visibly over-protects, while the
// X_1 envelope only reserves for the single worst one. (On meshes whose
// bottleneck link has at most F significant detour contributors the two
// envelopes coincide — which is itself the observation that X_F's sum
// constraint only pays off when failures share reroute capacity.)
func VirtualDemand(o Options) *VirtualDemandAblation {
	o = o.withDefaults()
	g := smallRing()
	d := traffic.Gravity(g, 120, 11)
	topF, err := core.Precompute(g, d, core.Config{Model: core.ArbitraryFailures{F: 1}, Iterations: o.Effort, Workers: o.Workers})
	if err != nil {
		panic(err)
	}
	naive, err := core.Precompute(g, d, core.Config{Model: core.ArbitraryFailures{F: g.NumLinks()}, Iterations: o.Effort, Workers: o.Workers})
	if err != nil {
		panic(err)
	}
	return &VirtualDemandAblation{TopF: topF.MLU, Naive: naive.MLU}
}

// Print writes the comparison.
func (a *VirtualDemandAblation) Print(w io.Writer) {
	fmt.Fprintln(w, "# Ablation: X_F envelope vs naive all-links virtual demand (5-node ring, F=1)")
	fmt.Fprintf(w, "top-F MLU %.4f, naive MLU %.4f (%.2fx over-protection)\n",
		a.TopF, a.Naive, a.Naive/a.TopF)
}

// HashSplitRow measures splitting accuracy for one hash width.
type HashSplitRow struct {
	Bits     int
	MaxError float64 // worst |realized - configured| fraction over trials
}

// HashSplit quantifies the flow-splitting granularity of the MPLS-ff
// hash (the paper uses 6 bits and mentions FLARE for finer splits).
func HashSplit(bitWidths []int, flows int, o Options) []HashSplitRow {
	o = o.withDefaults()
	var rows []HashSplitRow
	ratios := []float64{0.1, 0.3, 0.6}
	for _, bits := range bitWidths {
		buckets := 1 << uint(bits)
		maxErr := 0.0
		counts := make([]int, len(ratios))
		for i := 0; i < flows; i++ {
			f := mplsff.FlowKey{
				SrcIP: uint32(i * 2654435761), DstIP: uint32(i*40503 + 7),
				SrcPort: uint16(i), DstPort: 443,
			}
			// Rescale the 6-bit router hash to the target width by
			// re-hashing with a wider modulus.
			h := rehash(f, buckets)
			x := (float64(h) + 0.5) / float64(buckets)
			var cum float64
			for j, r := range ratios {
				cum += r
				if x <= cum || j == len(ratios)-1 {
					counts[j]++
					break
				}
			}
		}
		for j, r := range ratios {
			got := float64(counts[j]) / float64(flows)
			if e := math.Abs(got - r); e > maxErr {
				maxErr = e
			}
		}
		rows = append(rows, HashSplitRow{Bits: bits, MaxError: maxErr})
	}
	return rows
}

// smallRing is a 5-node ring with two chords, sized for the exact LP.
func smallRing() *graph.Graph {
	g := graph.New("ring5")
	n := make([]graph.NodeID, 5)
	for i := 0; i < 5; i++ {
		n[i] = g.AddNode(fmt.Sprintf("r%d", i))
	}
	for i := 0; i < 5; i++ {
		g.AddDuplex(n[i], n[(i+1)%5], 100, 1, 1)
	}
	g.AddDuplex(n[0], n[2], 100, 1, 1)
	g.AddDuplex(n[1], n[3], 100, 1, 1)
	return g
}

func rehash(f mplsff.FlowKey, buckets int) int {
	h := uint64(f.SrcIP)*0x9e3779b97f4a7c15 ^ uint64(f.DstIP)*0xc2b2ae3d27d4eb4f ^
		uint64(f.SrcPort)<<32 ^ uint64(f.DstPort)
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	return int(h % uint64(buckets))
}

// PrintHashSplit writes the granularity table.
func PrintHashSplit(w io.Writer, rows []HashSplitRow) {
	fmt.Fprintln(w, "# Ablation: hash-split granularity (max split error vs hash width)")
	for _, r := range rows {
		fmt.Fprintf(w, "%d bits: max error %.4f\n", r.Bits, r.MaxError)
	}
}
