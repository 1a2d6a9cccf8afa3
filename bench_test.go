// Package repro's root benchmarks regenerate every table and figure of
// the paper's evaluation (one benchmark per artifact, as indexed in
// DESIGN.md §3) plus the ablations of DESIGN.md §5. Each benchmark runs
// the corresponding internal/exp driver at a reduced-but-faithful scale
// (documented per benchmark) and logs a compact summary; cmd/r3sim runs
// the same drivers at full scale and prints the complete series.
package repro_test

import (
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/exp"
)

// benchOpts is the benchmark scale: full scenario shapes with moderated
// solver effort and a two-day week so the whole suite finishes in
// minutes.
func benchOpts() exp.Options {
	return exp.Options{
		Effort:          120,
		OptIter:         50,
		MaxScenarios:    300,
		WeightOptRounds: 12,
		Days:            2,
		Seed:            1,
	}
}

// usispOnce caches the US-ISP-like workload across benchmarks.
var (
	usispOnce sync.Once
	usispW    *exp.USISPWorkload
)

func usisp(b *testing.B) *exp.USISPWorkload {
	b.Helper()
	usispOnce.Do(func() {
		usispW = exp.NewUSISP(benchOpts())
	})
	return usispW
}

func summarize(b *testing.B, schemes []string, series [][]float64) {
	b.Helper()
	var sb strings.Builder
	for j, name := range schemes {
		s := series[j]
		if len(s) == 0 {
			continue
		}
		var sum float64
		max := math.Inf(-1)
		for _, v := range s {
			sum += v
			if v > max {
				max = v
			}
		}
		fmt.Fprintf(&sb, "%s: mean %.3f max %.3f; ", name, sum/float64(len(s)), max)
	}
	b.Log(sb.String())
}

func BenchmarkTable1Topologies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.Table1(io.Discard)
	}
}

func BenchmarkTable2PrecomputationTime(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		rows := exp.Table2(o)
		if i == 0 {
			for _, r := range rows {
				b.Logf("%s: F=1 %.2fs .. F=6 %.2fs", r.Network, r.Seconds[0], r.Seconds[5])
			}
		}
	}
}

func BenchmarkTable3StorageOverhead(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		rows := exp.Table3(o)
		if i == 0 {
			for _, r := range rows {
				b.Logf("%s: ILM %d, NHLFE %d, FIB %dB, RIB %dB",
					r.Network, r.Storage.TotalILM, r.Storage.TotalNHLFEs,
					r.Storage.FIBBytes, r.Storage.RIBBytes)
			}
		}
	}
}

func BenchmarkFigure3SingleFailureTimeSeries(b *testing.B) {
	w := usisp(b)
	o := benchOpts()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := exp.Figure3(w, 0, o)
		if i == 0 {
			cols := make([][]float64, len(r.Schemes))
			for j := range r.Schemes {
				for _, row := range r.Rows {
					cols[j] = append(cols[j], row[j])
				}
			}
			summarize(b, r.Schemes, cols)
		}
	}
}

func BenchmarkFigure4SingleFailureWeek(b *testing.B) {
	w := usisp(b)
	o := benchOpts()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := exp.Figure4(w, o)
		if i == 0 {
			summarize(b, r.Schemes, r.Sorted)
		}
	}
}

func BenchmarkFigure5MultiFailureUSISP(b *testing.B) {
	w := usisp(b)
	o := benchOpts()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r2 := exp.Figure5(w, 2, o)
		r3 := exp.Figure5(w, 3, o)
		if i == 0 {
			summarize(b, r2.Schemes, r2.Sorted)
			summarize(b, r3.Schemes, r3.Sorted)
		}
	}
}

func BenchmarkFigure6SBC(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		r2 := exp.RocketfuelFigure("SBC", 2, o)
		r3 := exp.RocketfuelFigure("SBC", 3, o)
		if i == 0 {
			summarize(b, r2.Schemes, r2.Sorted)
			summarize(b, r3.Schemes, r3.Sorted)
		}
	}
}

func BenchmarkFigure7Level3(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		r2 := exp.RocketfuelFigure("Level3", 2, o)
		r3 := exp.RocketfuelFigure("Level3", 3, o)
		if i == 0 {
			summarize(b, r2.Schemes, r2.Sorted)
			summarize(b, r3.Schemes, r3.Sorted)
		}
	}
}

func BenchmarkFigure8Prioritized(b *testing.B) {
	w := usisp(b)
	o := benchOpts()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := exp.Figure8(w, o)
		if i == 0 {
			for _, p := range r.Panels {
				summarize(b, p.Labels, p.Series)
			}
		}
	}
}

func BenchmarkFigure9PenaltyEnvelope(b *testing.B) {
	w := usisp(b)
	o := benchOpts()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := exp.Figure9(w, 1.1, o)
		if i == 0 {
			cols := make([][]float64, len(r.Schemes))
			for j := range r.Schemes {
				for _, row := range r.Rows {
					cols[j] = append(cols[j], row[j])
				}
			}
			summarize(b, r.Schemes, cols)
		}
	}
}

func BenchmarkFigure10BaseRouting(b *testing.B) {
	w := usisp(b)
	o := benchOpts()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := exp.Figure10(w, o)
		if i == 0 {
			summarize(b, r.Schemes, r.SortedSingle)
			summarize(b, r.Schemes, r.SortedDouble)
		}
	}
}

// emulation benchmarks use a 5-second phase (the paper used ~60 s; the
// dynamics — fast reroute, staircase RTT, load shifts — are preserved).
func emuCfg(seed int64) exp.EmulationConfig {
	return exp.EmulationConfig{PhaseSeconds: 5, TotalMbps: 220, Effort: 120, Seed: seed}
}

func BenchmarkFigure11EmulationPerformance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.RunEmulation("MPLS-ff+R3", emuCfg(1))
		exp.Figure11(r, io.Discard)
		if i == 0 {
			b.Logf("R3 loss by phase: %.4f %.4f %.4f %.4f; peak util final %.3f",
				r.LossRate(0), r.LossRate(1), r.LossRate(2), r.LossRate(3),
				r.PeakIntensity(3))
		}
	}
}

func BenchmarkFigure12RTT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.RunEmulation("MPLS-ff+R3", emuCfg(2))
		exp.Figure12(r, io.Discard)
		if i == 0 && len(r.RTT) > 0 {
			first, last := r.RTT[0], r.RTT[len(r.RTT)-1]
			b.Logf("RTT first %.2fms -> last %.2fms over %d samples",
				first[1]*1000, last[1]*1000, len(r.RTT))
		}
	}
}

func BenchmarkFigure13R3VsOSPFRecon(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r3 := exp.RunEmulation("MPLS-ff+R3", emuCfg(3))
		ospf := exp.RunEmulation("OSPF+recon", emuCfg(3))
		exp.Figure13(r3, ospf, io.Discard)
		if i == 0 {
			b.Logf("final-phase peak util: R3 %.3f vs OSPF %.3f; loss: R3 %.4f vs OSPF %.4f",
				r3.PeakIntensity(3), ospf.PeakIntensity(3),
				r3.LossRate(3), ospf.LossRate(3))
		}
	}
}

func BenchmarkAblationSolverGap(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		g := exp.SolverGap(o)
		if i == 0 {
			b.Logf("LP %.4f vs FW %.4f (gap %.2f%%)", g.LPMLU, g.FWMLU, g.GapPercent)
		}
	}
}

func BenchmarkAblationEnvelopeSweep(b *testing.B) {
	o := benchOpts()
	betas := []float64{1.0, 1.05, 1.1, 1.2, math.Inf(1)}
	for i := 0; i < b.N; i++ {
		rows := exp.EnvelopeSweep(betas, o)
		if i == 0 {
			for _, r := range rows {
				b.Logf("beta %.2f: normal %.4f, protected %.4f", r.Beta, r.NormalMLU, r.ProtectedMLU)
			}
		}
	}
}

func BenchmarkAblationVirtualDemand(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		r := exp.VirtualDemand(o)
		if i == 0 {
			b.Logf("top-F %.4f vs naive %.4f", r.TopF, r.Naive)
		}
	}
}

func BenchmarkAblationHashSplit(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		rows := exp.HashSplit([]int{4, 6, 8, 10}, 100000, o)
		if i == 0 {
			for _, r := range rows {
				b.Logf("%d bits: max error %.4f", r.Bits, r.MaxError)
			}
		}
	}
}
