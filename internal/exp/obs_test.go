package exp

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/obs"
)

// TestDebugSnapshotServesUSISPMetrics runs a US-ISP figure driver with a
// live registry attached (exactly what `r3sim -debug-addr` wires up) and
// asserts the served /debug/vars JSON carries the per-scenario evaluation
// latency histogram and the FW solver iteration trace.
func TestDebugSnapshotServesUSISPMetrics(t *testing.T) {
	r, reg := testFigure3()
	if len(r.Rows) == 0 {
		t.Fatal("Figure3 produced no rows")
	}

	srv := httptest.NewServer(obs.Handler(reg))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET /debug/vars: status %d", resp.StatusCode)
	}
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}

	h, ok := snap.Histograms["eval.scenario_us"]
	if !ok {
		t.Fatalf("snapshot lacks eval.scenario_us; histograms = %v", snap.Histograms)
	}
	if h.Count == 0 || h.Count != snap.Counters["eval.scenarios"] {
		t.Fatalf("scenario histogram count %d vs counter %d", h.Count, snap.Counters["eval.scenarios"])
	}
	roots := snap.Traces["fw"]
	if len(roots) == 0 {
		t.Fatal("snapshot lacks the fw solver trace")
	}
	sawEpoch := false
	for _, root := range roots {
		if root.Name != "fw.run" {
			t.Fatalf("fw trace root = %q, want fw.run", root.Name)
		}
		for _, c := range root.Children {
			if c.Name == "epoch" {
				sawEpoch = true
			}
		}
	}
	if !sawEpoch {
		t.Fatal("fw trace has no epoch spans")
	}
	if snap.Counters["fw.spf"] == 0 {
		t.Fatal("fw.spf counter is zero after a USISP precompute")
	}
	if len(snap.Vecs["eval.bottleneck_links"]) == 0 {
		t.Fatal("no bottleneck-link tallies recorded")
	}
}
