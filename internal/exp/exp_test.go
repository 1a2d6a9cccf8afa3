package exp

import (
	"bytes"
	"math"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// The claim tests below assert what EXPERIMENTS.md calls a match, at test
// scale (tinyOpts, seed 1) on the real workloads. Each assertion carries
// today's value in its comment; a claim that stops holding is downgraded in
// EXPERIMENTS.md, never loosened here.

func tinyOpts() Options {
	return Options{Effort: 50, OptIter: 30, MaxScenarios: 20, WeightOptRounds: 4, Days: 1, Seed: 1}
}

// reachabilityOnly are the baselines that restore connectivity without
// planning for capacity.
var reachabilityOnly = []string{"OSPF+CSPF-detour", "OSPF+recon", "FCP", "PathSplice"}

var (
	usispOnce sync.Once
	usispW    *USISPWorkload

	fig3Once sync.Once
	fig3     *Figure3Result
	fig3Reg  *obs.Registry
)

// testUSISP is the US-ISP workload at test scale, built once per process.
func testUSISP() *USISPWorkload {
	usispOnce.Do(func() { usispW = NewUSISP(tinyOpts()) })
	return usispW
}

// testFigure3 is Figure 3 on day 0 of testUSISP, evaluated once with a
// registry attached (it is passive). Figure 4 reads the same evaluated day,
// and the debug-snapshot test serves the registry.
func testFigure3() (*Figure3Result, *obs.Registry) {
	fig3Once.Do(func() {
		o := tinyOpts()
		fig3Reg = obs.NewRegistry()
		o.Obs = fig3Reg
		fig3 = Figure3(testUSISP(), 0, o)
	})
	return fig3, fig3Reg
}

func mean(s []float64) float64 {
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

// median of an ascending series.
func median(s []float64) float64 { return s[len(s)/2] }

// below fails the test unless a < b.
func below(t *testing.T, claim string, a, b float64) {
	t.Helper()
	if !(a < b) {
		t.Errorf("%s: %.4f is not below %.4f", claim, a, b)
	}
}

// means maps each scheme to its mean over the rows' column.
func means(schemes []string, rows [][]float64) map[string]float64 {
	m := map[string]float64{}
	for _, row := range rows {
		for j, name := range schemes {
			m[name] += row[j] / float64(len(rows))
		}
	}
	return m
}

// sortedMeans maps each scheme to the mean of its sorted series.
func sortedMeans(schemes []string, sorted [][]float64) map[string]float64 {
	m := map[string]float64{}
	for j, name := range schemes {
		m[name] = mean(sorted[j])
	}
	return m
}

func TestTable1Print(t *testing.T) {
	var buf bytes.Buffer
	Table1(&buf)
	out := buf.String()
	for _, want := range []string{"Abilene", "Level3", "SBC", "UUNet", "Generated", "US-ISP", "336"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table1 output missing %q:\n%s", want, out)
		}
	}
}

func TestTable2ForAbilene(t *testing.T) {
	rows := Table2For([]*graph.Graph{topo.Abilene()}, tinyOpts())
	if len(rows) != 1 || rows[0].Network != "Abilene" {
		t.Fatalf("rows = %+v", rows)
	}
	for f, s := range rows[0].Seconds {
		if s <= 0 {
			t.Fatalf("F=%d time %v", f+1, s)
		}
	}
	var buf bytes.Buffer
	PrintTable2(&buf, rows)
	if !strings.Contains(buf.String(), "F=6") {
		t.Fatalf("missing header: %s", buf.String())
	}
}

// TestTable2WorkIndependentOfF asserts Table 2's shape — precomputation
// cost does not grow with F — on the work instead of the clock: Table 2's
// precompute does the same SPF calls and epochs at every F = 1..6 (today
// exactly equal: Abilene 468 and 12, SBC 1 068 and 12).
func TestTable2WorkIndependentOfF(t *testing.T) {
	o := tinyOpts()
	for _, g := range []*graph.Graph{topo.Abilene(), topo.SBC()} {
		d := traffic.Gravity(g, 0.15*g.TotalCapacity(), o.Seed+7)
		var spf1, epochs1 int64
		for f := 1; f <= 6; f++ {
			reg := obs.NewRegistry()
			if _, err := core.Precompute(g, d, core.Config{
				Model: core.ArbitraryFailures{F: f}, Iterations: o.Effort, Obs: reg,
			}); err != nil {
				t.Fatal(err)
			}
			snap := reg.Snapshot()
			spf, epochs := snap.Counters["fw.spf"], snap.Counters["fw.epochs"]
			if f == 1 {
				spf1, epochs1 = spf, epochs
				continue
			}
			if spf != spf1 || epochs != epochs1 {
				t.Errorf("%s F=%d: %d SPF calls in %d epochs, F=1: %d in %d",
					g.Name, f, spf, epochs, spf1, epochs1)
			}
		}
	}
}

func TestTable3ForAbilene(t *testing.T) {
	rows := Table3For([]*graph.Graph{topo.Abilene()}, tinyOpts())
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	s := rows[0].Storage
	if s.TotalILM != 28 {
		t.Fatalf("TotalILM = %d, want 28 (Table 3's Abilene #ILM)", s.TotalILM)
	}
	if s.FIBBytes <= 0 || s.RIBBytes <= 0 {
		t.Fatalf("storage: %+v", s)
	}
	var buf bytes.Buffer
	PrintTable3(&buf, rows)
	if !strings.Contains(buf.String(), "Abilene") {
		t.Fatalf("print: %s", buf.String())
	}
}

// TestTable3Shape asserts Table 3's claims on the four smaller networks:
// #ILM equals the link count exactly, and no router's FIB or RIB exceeds
// the paper's smallest row (Abilene: 9 KB, 83 KB). Today the largest are
// US-ISP's 4.9 KB FIB and 8.1 KB RIB.
func TestTable3Shape(t *testing.T) {
	gs := []*graph.Graph{topo.Abilene(), topo.Level3(), topo.SBC(), topo.USISP()}
	for i, r := range Table3For(gs, tinyOpts()) {
		s := r.Storage
		if s.TotalILM != gs[i].NumLinks() {
			t.Errorf("%s: #ILM %d, want one per link (%d)", r.Network, s.TotalILM, gs[i].NumLinks())
		}
		if s.FIBBytes >= 9<<10 || s.RIBBytes >= 83<<10 {
			t.Errorf("%s: FIB %d B, RIB %d B exceed the paper's smallest row", r.Network, s.FIBBytes, s.RIBBytes)
		}
	}
}

func TestUSISPWorkloadScaling(t *testing.T) {
	w := testUSISP()
	if len(w.Week) != 168 {
		t.Fatalf("week = %d intervals", len(w.Week))
	}
	if w.PeakInterval() < 0 || w.PeakInterval() >= 168 {
		t.Fatalf("peak = %d", w.PeakInterval())
	}
	if w.G.NumNodes() != 20 || w.G.NumLinks() != 102 {
		t.Fatalf("workload graph %d nodes / %d links, want the 20-PoP US-ISP stand-in", w.G.NumNodes(), w.G.NumLinks())
	}
}

// TestFigure3Shape asserts Figure 3 on the real US-ISP workload (day 0).
// Day means today: optimal 1.083, OSPF+opt 1.089, MPLS-ff+R3 1.244,
// OSPF+R3 1.845, OSPF+recon = FCP 1.868, CSPF 1.898, PathSplice 1.947.
func TestFigure3Shape(t *testing.T) {
	r, _ := testFigure3()
	if len(r.Rows) != 24 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	if len(r.Schemes) != len(SchemeOrder)+1 {
		t.Fatalf("schemes = %v", r.Schemes)
	}
	for _, row := range r.Rows {
		for _, v := range row {
			if v < 0 || math.IsNaN(v) {
				t.Fatalf("bad value %v", v)
			}
		}
	}
	m := means(r.Schemes, r.Rows)
	t.Logf("day means: %v", m)

	// The curve families in order: optimal < OSPF+opt < MPLS-ff+R3 <
	// OSPF+R3 < every reachability-only scheme (tightest: OSPF+R3 1.845
	// against recon 1.868).
	chain := []string{"optimal", "OSPF+opt", "MPLS-ff+R3", "OSPF+R3"}
	for i := 1; i < len(chain); i++ {
		below(t, "Figure 3 ordering", m[chain[i-1]], m[chain[i]])
	}
	for _, b := range reachabilityOnly {
		below(t, "Figure 3: OSPF+R3 below "+b, m["OSPF+R3"], m[b])
	}
	// MPLS-ff+R3 within 30 % of optimal (today 1.149×).
	if x := m["MPLS-ff+R3"] / m["optimal"]; x > 1.3 {
		t.Errorf("Figure 3: MPLS-ff+R3 at %.3f× optimal, claim is within 1.3×", x)
	}
	// Every reachability-only scheme at least 35 % above MPLS-ff+R3 (today
	// 1.501×, recon and FCP).
	for _, b := range reachabilityOnly {
		if x := m[b] / m["MPLS-ff+R3"]; x < 1.35 {
			t.Errorf("Figure 3: %s only %.3f× MPLS-ff+R3, claim is ≥ 1.35×", b, x)
		}
	}

	var buf bytes.Buffer
	r.Print(&buf)
	if !strings.Contains(buf.String(), "Figure 3") {
		t.Fatalf("print header missing")
	}
}

// TestRealWorkloadShape pins the headline single-failure shape on the
// shared Figure 3 run: the R3 family tracks the optimal detour baseline
// (today 1.149× optimal) and stays below OSPF reconvergence and every
// reachability-only scheme (today by 0.623, against recon and FCP).
func TestRealWorkloadShape(t *testing.T) {
	r, _ := testFigure3()
	m := means(r.Schemes, r.Rows)
	r3 := m["MPLS-ff+R3"]
	if r3 > m["optimal"]*1.4 {
		t.Errorf("MPLS-ff+R3 mean %.3f above 1.4x optimal %.3f", r3, m["optimal"])
	}
	for _, b := range reachabilityOnly {
		below(t, "MPLS-ff+R3 below "+b, r3, m[b])
	}
}

// TestFigure4Shape asserts Figure 4 on the day Figure 3 evaluated:
// MPLS-ff+R3 stays within 1.3× optimal at every interval (today max
// 1.195) and lies below every reachability-only baseline at every rank
// (today by at least 0.540, against recon and FCP).
func TestFigure4Shape(t *testing.T) {
	testFigure3() // Figure 4 reads the day Figure 3 evaluated
	o := tinyOpts()
	r := Figure4(testUSISP(), o)
	if len(r.Sorted) != len(SchemeOrder) {
		t.Fatalf("series = %d", len(r.Sorted))
	}
	for j, s := range r.Sorted {
		if len(s) != o.Days*24 {
			t.Fatalf("series %d has %d points", j, len(s))
		}
		if !sort.Float64sAreSorted(s) {
			t.Fatalf("series %d not sorted", j)
		}
		if s[0] < 1 {
			t.Fatalf("ratio below 1: %v", s[0])
		}
	}
	r3 := r.Sorted[indexOf(r.Schemes, "MPLS-ff+R3")]
	if worst := r3[len(r3)-1]; worst > 1.3 {
		t.Errorf("Figure 4: MPLS-ff+R3 worst ratio %.3f, claim is within 1.3×", worst)
	}
	for _, b := range reachabilityOnly {
		base := r.Sorted[indexOf(r.Schemes, b)]
		for i := range r3 {
			if r3[i] >= base[i] {
				t.Errorf("Figure 4: MPLS-ff+R3 %.4f not below %s %.4f at rank %d", r3[i], b, base[i], i)
				break
			}
		}
	}
}

// TestFigure3SharesDayConcurrently reads the day testFigure3 evaluated from
// several goroutines at once: every Figure 3 is the cached one bit for bit,
// whatever the registry, workers or shards (none of them moves a result).
func TestFigure3SharesDayConcurrently(t *testing.T) {
	want, _ := testFigure3()
	var wg sync.WaitGroup
	got := make([]*Figure3Result, 4)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			o := tinyOpts()
			o.Workers, o.Shards = i+1, i
			got[i] = Figure3(testUSISP(), 0, o)
			Figure4(testUSISP(), o)
		}(i)
	}
	wg.Wait()
	for i, r := range got {
		for j := range want.Rows {
			for k, v := range want.Rows[j] {
				if math.Float64bits(r.Rows[j][k]) != math.Float64bits(v) {
					t.Fatalf("goroutine %d: row %d column %d is %v, want %v", i, j, k, r.Rows[j][k], v)
				}
			}
		}
	}
}

// figure5Order is Figure 5's claimed order of the schemes' means.
var figure5Order = [][]string{{"MPLS-ff+R3"}, {"OSPF+opt"}, {"OSPF+R3"}, {"FCP", "OSPF+recon"}, {"OSPF+CSPF-detour"}, {"PathSplice"}}

// checkFigure5Order asserts figure5Order on a panel's means.
func checkFigure5Order(t *testing.T, panel string, r *MultiFailureResult) map[string]float64 {
	t.Helper()
	if len(r.Sorted) != len(SchemeOrder) {
		t.Fatalf("series = %d", len(r.Sorted))
	}
	if len(r.Sorted[0]) == 0 {
		t.Fatalf("no scenarios")
	}
	m := sortedMeans(r.Schemes, r.Sorted)
	t.Logf("means: %v", m)
	for i := 1; i < len(figure5Order); i++ {
		for _, a := range figure5Order[i-1] {
			for _, b := range figure5Order[i] {
				below(t, panel+" ordering: "+a+" below "+b, m[a], m[b])
			}
		}
	}
	return m
}

// TestFigure5Shape asserts Figure 5's two-event panel at the US-ISP peak
// hour. Means today: MPLS-ff+R3 1.162 < OSPF+opt 1.306 < OSPF+R3 1.412 <
// FCP 1.557, recon 1.559 < CSPF 1.705 < PathSplice 2.372.
func TestFigure5Shape(t *testing.T) {
	r := Figure5(testUSISP(), 2, tinyOpts())
	m := checkFigure5Order(t, "Figure 5", r)
	// Every reachability-only scheme at least 25 % above MPLS-ff+R3 (today
	// 1.340×, FCP).
	for _, b := range reachabilityOnly {
		if x := m[b] / m["MPLS-ff+R3"]; x < 1.25 {
			t.Errorf("Figure 5: %s only %.3f× MPLS-ff+R3, claim is ≥ 1.25×", b, x)
		}
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if !strings.Contains(buf.String(), "two failures") {
		t.Fatalf("title missing")
	}
}

// TestFigure5ThreeEventShape asserts Figure 5's three-event panel with
// the two-event order. Means today: MPLS-ff+R3 1.237 < OSPF+opt 1.314 <
// OSPF+R3 1.376 < recon 1.536, FCP 1.567 < CSPF 1.622 < PathSplice 2.395.
// The 25 % gap does not hold for recon (1.242×), so it is not asserted.
func TestFigure5ThreeEventShape(t *testing.T) {
	r := Figure5(testUSISP(), 3, tinyOpts())
	checkFigure5Order(t, "Figure 5b", r)
	var buf bytes.Buffer
	r.Print(&buf)
	if !strings.Contains(buf.String(), "three failures") {
		t.Fatalf("title missing")
	}
}

// TestFigure8Shape asserts Figure 8: under the worst 4-event scenarios the
// prioritized plan's TPRT and TPP intensities are below the general plan's
// on mean, median and max (today TPRT 0.096/0.1002/0.127 against
// 0.111/0.1004/0.280, TPP 0.176/0.177/0.243 against 0.204/0.186/0.525), and
// under single failures no class of either plan exceeds capacity (today
// max 0.671, general IP).
func TestFigure8Shape(t *testing.T) {
	r := Figure8(testUSISP(), tinyOpts())
	if len(r.Panels) != 3 {
		t.Fatalf("panels = %d", len(r.Panels))
	}
	for _, p := range r.Panels {
		if len(p.Labels) != 6 {
			t.Fatalf("labels = %v", p.Labels)
		}
		for _, s := range p.Series {
			if !sort.Float64sAreSorted(s) {
				t.Fatalf("series not sorted in %s", p.Title)
			}
		}
	}
	for i, s := range r.Panels[0].Series {
		if worst := s[len(s)-1]; worst > 1 {
			t.Errorf("Figure 8a: %s reaches %.3f under a single failure", r.Panels[0].Labels[i], worst)
		}
	}
	p4 := r.Panels[2]
	for _, cls := range []string{"TPRT", "TPP"} {
		gen := seriesFor(p4, cls+" (general R3)")
		pri := seriesFor(p4, cls+" (R3 with priority)")
		below(t, "Figure 8c "+cls+" mean", mean(pri), mean(gen))
		below(t, "Figure 8c "+cls+" median", median(pri), median(gen))
		below(t, "Figure 8c "+cls+" max", pri[len(pri)-1], gen[len(gen)-1])
	}
}

func seriesFor(p Figure8Panel, label string) []float64 {
	for i, l := range p.Labels {
		if l == label {
			return p.Series[i]
		}
	}
	return nil
}

// TestFigure9Shape asserts Figure 9: with the 1.1 envelope R3's normal case
// stays within 1.1× optimal at every interval (today max 1.046×), and
// without it the bound breaks somewhere (today at every interval, min
// 1.320×); on average the envelope tracks optimal more closely (today
// 0.737 against 0.987).
func TestFigure9Shape(t *testing.T) {
	o := tinyOpts()
	r := Figure9(testUSISP(), 1.1, o)
	if len(r.Rows) != o.Days*24 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	broken := false
	for i, row := range r.Rows {
		noPE, withPE, opt := row[0], row[2], row[3]
		if withPE > 1.1*opt {
			t.Errorf("Figure 9: interval %d R3 %.4f above 1.1 × optimal %.4f", i, withPE, opt)
		}
		broken = broken || noPE > 1.1*opt
	}
	if !broken {
		t.Errorf("Figure 9: R3 without the envelope never leaves 1.1 × optimal")
	}
	m := means(r.Schemes, r.Rows)
	below(t, "Figure 9 mean: R3 below R3 no PE", m["R3"], m["R3 no PE"])
}

// TestFigure10Shape asserts Figure 10: the inverse-capacity base stays at
// least 25 % worse than the optimized base through R3 protection, on mean
// and median, for single events and for pairs (today means 2.518 against
// 1.550 and 2.528 against 1.633, medians 2.518 against 1.445 and 1.486).
func TestFigure10Shape(t *testing.T) {
	r := Figure10(testUSISP(), tinyOpts())
	if len(r.SortedSingle) != 2 || len(r.SortedDouble) != 2 {
		t.Fatalf("series missing")
	}
	inv, opt := indexOf(r.Schemes, "OSPFInvCap+R3"), indexOf(r.Schemes, "OSPF+R3")
	for _, panel := range []struct {
		name   string
		sorted [][]float64
	}{{"single", r.SortedSingle}, {"double", r.SortedDouble}} {
		i, o := panel.sorted[inv], panel.sorted[opt]
		if mean(i) < 1.25*mean(o) || median(i) < 1.25*median(o) {
			t.Errorf("Figure 10 %s: InvCap mean %.3f, median %.3f; optimized %.3f, %.3f",
				panel.name, mean(i), median(i), mean(o), median(o))
		}
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if !strings.Contains(buf.String(), "OSPFInvCap+R3") {
		t.Fatalf("scheme missing from print")
	}
}

var (
	emuOnce      sync.Once
	emuR3, emuOS *EmulationResult
)

// testEmulations is the Abilene replay of Figures 11–13 at 2 s phases, run
// once for both forwarders.
func testEmulations() (r3, ospf *EmulationResult) {
	emuOnce.Do(func() {
		cfg := EmulationConfig{PhaseSeconds: 2, Effort: 60, Seed: 1}
		emuR3 = RunEmulation("MPLS-ff+R3", cfg)
		emuOS = RunEmulation("OSPF+recon", cfg)
	})
	return emuR3, emuOS
}

// TestEmulationR3 asserts Figures 11 and 12 on the R3 replay. Figure 11:
// no loss in the normal phase, at most 0.5 % per failure phase (today
// ≤ 0.15 %), every OD pair delivers ≥ 95 % of its offered bytes in every
// phase (today ≥ 96.0 %), and no link reaches capacity (today peak 0.607).
// Figure 12: the Denver–Los Angeles RTT is flat within each phase (spread
// ≤ 1 ms, today ≤ 0.31 ms) and steps up ≥ 10 ms when the third failure cuts
// its path (today 24.1 → 40.1 ms); the first two failures miss the path.
func TestEmulationR3(t *testing.T) {
	r, _ := testEmulations()
	if len(r.Phases) != 4 {
		t.Fatalf("phases = %d", len(r.Phases))
	}
	if lr := r.LossRate(0); lr != 0 {
		t.Errorf("Figure 11: normal-phase loss %.6f", lr)
	}
	for ph, p := range r.Phases {
		if ph > 0 {
			if lr := r.LossRate(ph); lr > 0.005 {
				t.Errorf("Figure 11: phase %d loss %.4f", ph, lr)
			}
		}
		if u := r.PeakIntensity(ph); u >= 1 {
			t.Errorf("Figure 11: phase %d peak intensity %.3f", ph, u)
		}
		worst := 1.0
		for od, off := range p.OfferedBytes {
			if off > 0 {
				worst = math.Min(worst, float64(p.DeliveredBytes[od])/float64(off))
			}
		}
		if worst < 0.95 {
			t.Errorf("Figure 11: phase %d an OD pair delivers %.1f %% of its offered bytes", ph, 100*worst)
		}
	}

	med := make([]float64, len(r.Phases))
	for ph, p := range r.Phases {
		var rtt []float64
		for _, s := range r.RTT {
			if s[0] >= p.Start && s[0] < p.End {
				rtt = append(rtt, s[1])
			}
		}
		if len(rtt) == 0 {
			t.Fatalf("Figure 12: no RTT samples in phase %d", ph)
		}
		sort.Float64s(rtt)
		if spread := rtt[len(rtt)-1] - rtt[0]; spread > 1e-3 {
			t.Errorf("Figure 12: RTT spread %.2f ms within phase %d", spread*1e3, ph)
		}
		med[ph] = median(rtt)
	}
	for ph := 1; ph < 3; ph++ {
		if math.Abs(med[ph]-med[0]) > 1e-3 {
			t.Errorf("Figure 12: phase %d RTT %.2f ms moved from %.2f ms", ph, med[ph]*1e3, med[0]*1e3)
		}
	}
	if med[3] < med[0]+10e-3 {
		t.Errorf("Figure 12: third failure steps RTT %.2f → %.2f ms", med[0]*1e3, med[3]*1e3)
	}

	var buf bytes.Buffer
	Figure11(r, &buf)
	Figure12(r, &buf)
	out := buf.String()
	for _, want := range []string{"Figure 11a", "Figure 11b", "Figure 11c", "Figure 12"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q", want)
		}
	}
}

// TestEmulationFigure13 asserts Figure 13: in every failure phase OSPF
// reconvergence loses at least 5 % of the offered traffic and at least 10×
// R3's loss (today ≥ 12.6 % and ≥ 100×), while R3 keeps every link below
// capacity (today peak 0.607 in the final phase).
func TestEmulationFigure13(t *testing.T) {
	r3, ospf := testEmulations()
	var buf bytes.Buffer
	Figure13(r3, ospf, &buf)
	if !strings.Contains(buf.String(), "Figure 13") {
		t.Fatalf("missing header")
	}
	for ph := 1; ph < 4; ph++ {
		rl, ol := r3.LossRate(ph), ospf.LossRate(ph)
		if ol < 0.05 || ol < 10*rl {
			t.Errorf("Figure 13: phase %d loss OSPF %.4f, R3 %.4f", ph, ol, rl)
		}
	}
	if u := r3.PeakIntensity(3); u >= 1 {
		t.Errorf("Figure 13: R3 final-phase peak intensity %.3f", u)
	}
}

func TestAblations(t *testing.T) {
	o := tinyOpts()
	gap := SolverGap(o)
	if gap.FWMLU < gap.LPMLU-1e-6 {
		t.Fatalf("FW beat exact LP: %+v", gap)
	}
	if gap.GapPercent > 25 {
		t.Fatalf("solver gap %.1f%% too large", gap.GapPercent)
	}

	sweep := EnvelopeSweep([]float64{1.0, 1.2, math.Inf(1)}, o)
	if len(sweep) != 3 {
		t.Fatalf("sweep rows = %d", len(sweep))
	}
	// Tighter envelopes give better normal-case MLU.
	if sweep[0].NormalMLU > sweep[2].NormalMLU+0.05 {
		t.Fatalf("beta=1.0 normal MLU %.4f worse than no envelope %.4f",
			sweep[0].NormalMLU, sweep[2].NormalMLU)
	}

	vd := VirtualDemand(o)
	if vd.Naive < vd.TopF {
		t.Fatalf("naive envelope cheaper than top-F: %+v", vd)
	}

	hs := HashSplit([]int{4, 6, 10}, 20000, o)
	if len(hs) != 3 {
		t.Fatalf("hash rows = %d", len(hs))
	}
	if hs[2].MaxError > hs[0].MaxError+0.02 {
		t.Fatalf("wider hash not more accurate: %+v", hs)
	}
	var buf bytes.Buffer
	gap.Print(&buf)
	PrintEnvelopeSweep(&buf, sweep)
	vd.Print(&buf)
	PrintHashSplit(&buf, hs)
	if !strings.Contains(buf.String(), "Ablation") {
		t.Fatalf("ablation prints empty")
	}
}

func indexOf(ss []string, s string) int {
	for i, v := range ss {
		if v == s {
			return i
		}
	}
	return -1
}
