package exp

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/graph"
)

// rocketfuelTest is a Figure 6/7 two-event panel at test scale.
func rocketfuelTest(network string) *MultiFailureResult {
	o := tinyOpts()
	o.MaxScenarios = 15
	return RocketfuelFigure(network, 2, o)
}

// TestRocketfuelFigureSBCQuick asserts Figure 6: on SBC the jointly
// optimized MPLS-ff+R3 leads every OSPF-based scheme, OSPF+opt included,
// on mean and on median (today mean 1.194 against at best recon's 1.420,
// median 1.115 against at best PathSplice's 1.449). Its max does not lead
// (1.836 against 1.48–1.59), so the max is not asserted.
func TestRocketfuelFigureSBCQuick(t *testing.T) {
	r := rocketfuelTest("SBC")
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
		if name == "MPLS-ff+R3" {
			continue
		}
		below(t, "Figure 6 SBC mean: MPLS-ff+R3 below "+name, mean(r3), mean(r.Sorted[j]))
		below(t, "Figure 6 SBC median: MPLS-ff+R3 below "+name, median(r3), median(r.Sorted[j]))
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if !strings.Contains(buf.String(), "SBC") {
		t.Fatalf("title missing SBC")
	}
}

// TestRocketfuelFigureLevel3Quick asserts Figure 7 against Figure 6: on
// Level-3 OSPF+R3 is within 1 % of OSPF+opt (today equal, 1.2606), and
// MPLS-ff+R3's lead over OSPF+opt narrows from SBC's (today OSPF+opt is
// 1.120× MPLS-ff+R3 on Level-3, 1.210× on SBC).
func TestRocketfuelFigureLevel3Quick(t *testing.T) {
	lead := map[string]float64{}
	for _, network := range []string{"SBC", "Level3"} {
		r := rocketfuelTest(network)
		m := sortedMeans(r.Schemes, r.Sorted)
		lead[network] = m["OSPF+opt"] / m["MPLS-ff+R3"]
		if network == "Level3" && math.Abs(m["OSPF+R3"]/m["OSPF+opt"]-1) > 0.01 {
			t.Errorf("Figure 7: OSPF+R3 %.4f not within 1%% of OSPF+opt %.4f", m["OSPF+R3"], m["OSPF+opt"])
		}
	}
	below(t, "Figure 7: MPLS-ff+R3's lead over OSPF+opt, Level-3 against SBC", lead["Level3"], lead["SBC"])
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
