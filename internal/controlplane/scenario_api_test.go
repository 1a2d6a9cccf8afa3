package controlplane

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/internal/core"
)

type scenarioResp struct {
	Revision       int64                  `json:"revision"`
	Kind           string                 `json:"kind"`
	MLU            float64                `json:"mlu"`
	LostDemand     float64                `json:"lost_demand"`
	CongestionFree bool                   `json:"congestion_free"`
	Degraded       []core.LinkDegradation `json:"degraded"`
	Surge          float64                `json:"surge"`
}

// TestScenarioEndpointGeneralized drives /v1/scenario through the
// generalized grammar: degradations, surges, combinations, kind labels,
// and the rejection surface.
func TestScenarioEndpointGeneralized(t *testing.T) {
	pc := testFWConfig()
	_, ts, _ := newTestServer(t, pc, nil)

	query := func(q string) (int, scenarioResp, string) {
		code, body, _ := get(t, ts.URL+"/v1/scenario"+q)
		var sr scenarioResp
		if code == http.StatusOK {
			if err := json.Unmarshal(body, &sr); err != nil {
				t.Fatalf("%s: %v in %s", q, err, body)
			}
		}
		return code, sr, string(body)
	}

	// Pure failure: kind labeled, no degradation/surge echo.
	code, sr, body := query("?links=0")
	if code != http.StatusOK || sr.Kind != string(core.ScenarioFailure) {
		t.Fatalf("links=0: code %d kind %q (%s)", code, sr.Kind, body)
	}
	if sr.Degraded != nil || sr.Surge != 0 {
		t.Fatalf("failure response echoes degradations/surge: %s", body)
	}

	// Pure degradation.
	code, sr, body = query("?degrade=3:0.5,7:0.25")
	if code != http.StatusOK || sr.Kind != string(core.ScenarioDegradation) {
		t.Fatalf("degrade: code %d kind %q (%s)", code, sr.Kind, body)
	}
	if len(sr.Degraded) != 2 || sr.Degraded[0].Link != 3 || sr.Degraded[0].Frac != 0.5 {
		t.Fatalf("degrade echo: %+v", sr.Degraded)
	}
	if sr.MLU <= 0 {
		t.Fatalf("degrade MLU %v", sr.MLU)
	}

	// Pure surge.
	code, sr, body = query("?surge=1.5")
	if code != http.StatusOK || sr.Kind != string(core.ScenarioSurge) || sr.Surge != 1.5 {
		t.Fatalf("surge: code %d kind %q surge %v (%s)", code, sr.Kind, sr.Surge, body)
	}

	// Combination: failure + degradation + surge in one scenario.
	code, sr, body = query("?links=0&degrade=4:0.5&surge=1.2")
	if code != http.StatusOK {
		t.Fatalf("combination rejected: %d %s", code, body)
	}
	if sr.Kind != string(core.ScenarioDegradation) {
		t.Fatalf("combination kind %q", sr.Kind)
	}

	// A surged scenario must never report a lower MLU than the calm one.
	_, calm, _ := query("?links=0")
	_, surged, _ := query("?links=0&surge=2")
	if surged.MLU < calm.MLU {
		t.Fatalf("surged MLU %v below calm %v", surged.MLU, calm.MLU)
	}

	// Rejection surface.
	bad := []string{
		"",                     // nothing requested
		"?degrade=3:1",         // full loss is a failure
		"?degrade=3:0",         // zero fraction
		"?degrade=99:0.5",      // out of range
		"?degrade=3:0.5,3:0.2", // duplicate
		"?surge=1",             // not > 1
		"?surge=0.5",
		"?surge=NaN",
		"?surge=+Inf",
		"?links=0&degrade=0:0.5", // fail+degrade same link
		"?degrade=3:0.5&stage=1", // staged preview is failures-only
		"?surge=1.5&stage=1",
	}
	for _, q := range bad {
		if code, _, body := query(q); code != http.StatusBadRequest {
			t.Errorf("%q: code %d, want 400 (%s)", q, code, strings.TrimSpace(body))
		}
	}

	// Staged preview still works for hard failures.
	if code, _, body := query("?links=0,1&stage=1"); code != http.StatusOK {
		t.Fatalf("links-only staged preview broke: %d %s", code, body)
	}
}
