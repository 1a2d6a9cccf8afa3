package exp

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/graph"
)

// rocketfuelTest is a Figure 6/7 panel at test scale.
func rocketfuelTest(network string, failures int) *MultiFailureResult {
	o := tinyOpts()
	o.MaxScenarios = 15
	return RocketfuelFigure(network, failures, o)
}

// checkRocketfuelLead asserts that MPLS-ff+R3 is below every other
// scheme on the panel's stat.
func checkRocketfuelLead(t *testing.T, claim string, r *MultiFailureResult, stat func([]float64) float64) {
	t.Helper()
	if len(r.Schemes) != len(SchemeOrder) {
		t.Fatalf("schemes = %v", r.Schemes)
	}
	for j, s := range r.Sorted {
		if len(s) == 0 {
			t.Fatalf("scheme %d has no scenarios", j)
		}
		if s[0] < 1 {
			t.Fatalf("ratio %v below 1", s[0])
		}
	}
	r3 := r.Sorted[indexOf(r.Schemes, "MPLS-ff+R3")]
	for j, name := range r.Schemes {
		if name != "MPLS-ff+R3" {
			below(t, claim+": MPLS-ff+R3 below "+name, stat(r3), stat(r.Sorted[j]))
		}
	}
}

// TestRocketfuelFigureSBCQuick asserts Figure 6: on SBC the jointly
// optimized MPLS-ff+R3 leads every OSPF-based scheme, OSPF+opt included,
// on mean and on median (today mean 1.194 against at best recon's 1.420,
// median 1.115 against at best PathSplice's 1.449). Its max does not lead
// (1.836 against 1.48–1.59), so the max is not asserted.
func TestRocketfuelFigureSBCQuick(t *testing.T) {
	r := rocketfuelTest("SBC", 2)
	checkRocketfuelLead(t, "Figure 6 SBC mean", r, mean)
	checkRocketfuelLead(t, "Figure 6 SBC median", r, median)
	var buf bytes.Buffer
	r.Print(&buf)
	if !strings.Contains(buf.String(), "SBC") {
		t.Fatalf("title missing SBC")
	}
}

// TestRocketfuelFigureSBCThreeEvents asserts Figure 6's three-event panel
// on the median (today MPLS-ff+R3 1.233 against at best recon's 1.459).
// The mean does not lead: one scenario at 5.63 lifts MPLS-ff+R3's to
// 1.479, above recon's 1.421, PathSplice's 1.474 and FCP's 1.476.
func TestRocketfuelFigureSBCThreeEvents(t *testing.T) {
	checkRocketfuelLead(t, "Figure 6 SBC three-event median", rocketfuelTest("SBC", 3), median)
}

// rocketfuelLead is OSPF+opt's mean over MPLS-ff+R3's on SBC and Level-3,
// with Level-3's OSPF+R3 over OSPF+opt.
func rocketfuelLead(failures int) (sbc, level3, ospfR3 float64) {
	lead := map[string]float64{}
	for _, network := range []string{"SBC", "Level3"} {
		r := rocketfuelTest(network, failures)
		m := sortedMeans(r.Schemes, r.Sorted)
		lead[network] = m["OSPF+opt"] / m["MPLS-ff+R3"]
		ospfR3 = m["OSPF+R3"] / m["OSPF+opt"]
	}
	return lead["SBC"], lead["Level3"], ospfR3
}

// TestRocketfuelFigureLevel3Quick asserts Figure 7 against Figure 6: on
// Level-3 OSPF+R3 is within 1 % of OSPF+opt (today equal, 1.2606), and
// MPLS-ff+R3's lead over OSPF+opt narrows from SBC's (today OSPF+opt is
// 1.120× MPLS-ff+R3 on Level-3, 1.210× on SBC).
func TestRocketfuelFigureLevel3Quick(t *testing.T) {
	sbc, level3, ospfR3 := rocketfuelLead(2)
	if math.Abs(ospfR3-1) > 0.01 {
		t.Errorf("Figure 7: OSPF+R3 is %.4f× OSPF+opt, not within 1%%", ospfR3)
	}
	below(t, "Figure 7: MPLS-ff+R3's lead over OSPF+opt, Level-3 against SBC", level3, sbc)
}

// TestRocketfuelFigureLevel3ThreeEvents asserts Figure 7's three-event
// panel against Figure 6's: MPLS-ff+R3's lead over OSPF+opt narrows from
// SBC's (today OSPF+opt is 0.997× MPLS-ff+R3 on Level-3, 1.002× on SBC).
// OSPF+R3 is 1.19 % above OSPF+opt (1.2122 against 1.1980), outside the
// 1 % of the two-event panel, so that is not asserted.
func TestRocketfuelFigureLevel3ThreeEvents(t *testing.T) {
	sbc, level3, _ := rocketfuelLead(3)
	below(t, "Figure 7 three-event: MPLS-ff+R3's lead over OSPF+opt, Level-3 against SBC", level3, sbc)
}

func TestRocketfuelFigureUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("unknown network accepted")
		}
	}()
	RocketfuelFigure("NotANetwork", 2, tinyOpts())
}

func TestEnvelopeTM(t *testing.T) {
	w := testUSISP()
	day := w.Day(0)
	env := envelopeTM(day)
	for _, m := range day {
		m.Pairs(func(a, b graph.NodeID, v float64) {
			if env.At(a, b) < v-1e-12 {
				t.Fatalf("envelope below member at %d->%d", a, b)
			}
		})
	}
}

func TestQuickOptionsAreSmall(t *testing.T) {
	q := Quick()
	full := (Options{}).withDefaults()
	if q.Effort >= full.Effort || q.MaxScenarios >= full.MaxScenarios || q.Days >= full.Days {
		t.Fatalf("Quick() not smaller than defaults: %+v vs %+v", q, full)
	}
}
