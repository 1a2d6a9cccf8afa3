package controlplane

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"repro/internal/core"
	"repro/internal/transition"
)

// TestLifecycle drives the full daemon lifecycle over the HTTP API:
// boot → query plan → failure-scenario lookup → traffic update → poll
// until the new revision is ready → rollback — asserting at every step
// that the served bytes are byte-identical to a direct core.Precompute
// with the same inputs.
func TestLifecycle(t *testing.T) {
	pc := testFWConfig()
	s, ts, _ := newTestServer(t, pc, nil)
	g := testGraph()
	d1 := testMatrix(g, 150, 1)

	// Boot: revision 1 must serve exactly what a direct precompute
	// produces.
	want1 := directBytes(t, g, d1, pc)
	code, body, hdr := get(t, ts.URL+"/v1/plan")
	if code != http.StatusOK {
		t.Fatalf("GET /v1/plan = %d", code)
	}
	if !bytes.Equal(body, want1) {
		t.Fatalf("served plan differs from direct precompute (%d vs %d bytes)", len(body), len(want1))
	}
	if hdr.Get("X-R3-Revision") != "1" {
		t.Fatalf("revision header %q, want 1", hdr.Get("X-R3-Revision"))
	}
	if got, want := hdr.Get("X-R3-Digest"), fmt.Sprintf("%016x", core.Fingerprint(body)); got != want {
		t.Fatalf("digest header %s != body fingerprint %s", got, want)
	}

	// The plan decodes and binds to the topology.
	if _, err := core.DecodePlan(bytes.NewReader(body), testGraph()); err != nil {
		t.Fatalf("served plan does not decode: %v", err)
	}

	// Scenario lookup against the active plan.
	code, body, _ = get(t, ts.URL+"/v1/scenario?links=0,1&stage=1")
	if code != http.StatusOK {
		t.Fatalf("GET /v1/scenario = %d: %s", code, body)
	}
	var sc struct {
		Revision int64        `json:"revision"`
		MLU      float64      `json:"mlu"`
		Staged   *rolloutView `json:"staged"`
	}
	if err := json.Unmarshal(body, &sc); err != nil {
		t.Fatal(err)
	}
	if sc.Revision != 1 || sc.MLU <= 0 {
		t.Fatalf("scenario response %+v", sc)
	}
	if sc.Staged == nil || len(sc.Staged.Rounds) == 0 {
		t.Fatalf("staged preview missing: %s", body)
	}

	// Traffic update: accepted asynchronously, then revision 2 appears.
	d2 := perturb(t, d1, 5)
	code, resp := post(t, ts.URL+"/v1/traffic", matrixText(t, g, d2))
	if code != http.StatusAccepted {
		t.Fatalf("POST /v1/traffic = %d: %s", code, resp)
	}
	rev2 := waitRevision(t, s, 2)

	// Byte-identity again, now for the rebuilt plan.
	want2 := directBytes(t, g, d2, pc)
	code, body, hdr = get(t, ts.URL+"/v1/plan")
	if code != http.StatusOK || hdr.Get("X-R3-Revision") != "2" {
		t.Fatalf("GET /v1/plan after update: code %d rev %s", code, hdr.Get("X-R3-Revision"))
	}
	if !bytes.Equal(body, want2) {
		t.Fatalf("revision 2 differs from direct precompute with the updated matrix")
	}

	// The swap shipped a staged rollout: a single LP-certified swap round
	// that transforms revision 1's network into revision 2's.
	if rev2.Rollout == nil {
		t.Fatal("revision 2 has no rollout attached")
	}
	if rev2.Rollout.Swaps != 1 || len(rev2.Rollout.Rounds) != 1 {
		t.Fatalf("rollout shape: %d rounds, %d swaps", len(rev2.Rollout.Rounds), rev2.Rollout.Swaps)
	}
	if rev2.Rollout.Rounds[0].Kind != transition.Swap {
		t.Fatalf("rollout round kind %v", rev2.Rollout.Rounds[0].Kind)
	}

	// Rollback restores revision 1 byte-identically under a new ID.
	code, resp = post(t, ts.URL+"/v1/rollback?rev=1", nil)
	if code != http.StatusOK {
		t.Fatalf("POST /v1/rollback = %d: %s", code, resp)
	}
	rev3 := s.Active()
	if rev3.ID != 3 || rev3.RollbackOf != 1 {
		t.Fatalf("rollback revision %d (of %d), want 3 (of 1)", rev3.ID, rev3.RollbackOf)
	}
	code, body, hdr = get(t, ts.URL+"/v1/plan")
	if code != http.StatusOK || hdr.Get("X-R3-Revision") != "3" {
		t.Fatalf("GET /v1/plan after rollback: code %d rev %s", code, hdr.Get("X-R3-Revision"))
	}
	if !bytes.Equal(body, want1) {
		t.Fatal("rollback did not restore revision 1's bytes")
	}

	// Historical revisions stay addressable while retained.
	code, body, _ = get(t, ts.URL+"/v1/plan?rev=2")
	if code != http.StatusOK || !bytes.Equal(body, want2) {
		t.Fatalf("GET /v1/plan?rev=2 = %d, byte match %v", code, bytes.Equal(body, want2))
	}

	// The revision log exposes the whole history.
	code, body, _ = get(t, ts.URL+"/v1/revisions")
	if code != http.StatusOK {
		t.Fatalf("GET /v1/revisions = %d", code)
	}
	var revs []revisionView
	if err := json.Unmarshal(body, &revs); err != nil {
		t.Fatal(err)
	}
	if len(revs) != 3 || revs[2].RollbackOf != 1 {
		t.Fatalf("revision log %+v", revs)
	}
}

// TestLPWarmStartAcrossRevisions is the acceptance-criteria path with
// the exact solver: a traffic update triggers a background re-solve that
// is warm-started from the previous revision's optimal basis
// (lp.warm_starts > 0), swaps atomically with a rollout attached, and
// rollback restores the prior revision byte-identically.
func TestLPWarmStartAcrossRevisions(t *testing.T) {
	pc := core.Config{Model: core.ArbitraryFailures{F: 1}, Solver: core.SolverLP}
	s, ts, reg := newTestServer(t, pc, nil)
	g := testGraph()
	d1 := testMatrix(g, 150, 1)

	rev1 := s.Active()
	if rev1.Plan.LPBasis == nil {
		t.Fatal("LP revision carries no basis to warm-start from")
	}
	if n := reg.Snapshot().Counters["lp.warm_starts"]; n != 0 {
		t.Fatalf("cold boot recorded %d warm starts", n)
	}

	// Same OD support, different values: the LP shape is unchanged, so
	// the re-solve must take the warm path.
	d2 := perturb(t, d1, 3)
	if code, resp := post(t, ts.URL+"/v1/traffic", matrixText(t, g, d2)); code != http.StatusAccepted {
		t.Fatalf("POST /v1/traffic = %d: %s", code, resp)
	}
	rev2 := waitRevision(t, s, 2)
	if n := reg.Snapshot().Counters["lp.warm_starts"]; n < 1 {
		t.Fatalf("re-solve did not warm-start (lp.warm_starts = %d)", n)
	}

	// Byte-identity versus a direct precompute threading the same warm
	// basis (the daemon's exact pipeline).
	pcWarm := pc
	pcWarm.LPWarmBasis = rev1.Plan.LPBasis
	if !bytes.Equal(rev2.Bytes, directBytes(t, g, d2, pcWarm)) {
		t.Fatal("warm-started revision differs from direct warm precompute")
	}
	if rev2.Rollout == nil || rev2.Rollout.Swaps != 1 {
		t.Fatalf("revision 2 rollout missing or malformed: %+v", rev2.Rollout)
	}

	// Rollback: byte-identical restore of revision 1.
	if code, resp := post(t, ts.URL+"/v1/rollback?rev=1", nil); code != http.StatusOK {
		t.Fatalf("rollback = %d: %s", code, resp)
	}
	rev3 := s.Active()
	if !bytes.Equal(rev3.Bytes, rev1.Bytes) || rev3.Digest != rev1.Digest {
		t.Fatal("rollback did not restore revision 1 byte-identically")
	}
}

// TestTopologyUpdate swaps in a changed topology (same node set) and
// checks the revision has no rollout (row-level deltas do not survive a
// topology change) and that a node-count mismatch is rejected.
func TestTopologyUpdate(t *testing.T) {
	pc := testFWConfig()
	s, ts, _ := newTestServer(t, pc, nil)

	// Same node set, one capacity changed: accepted, rebuilt, no rollout.
	topoText := []byte(`topology ring5
node a
node b
node c
node d
node e
link a b 120 1 1
link b c 100 1 1
link c d 100 1 1
link d e 100 1 1
link e a 100 1 1
link a c 100 1 1
link b d 100 1 1
`)
	code, resp := post(t, ts.URL+"/v1/topology", topoText)
	if code != http.StatusAccepted {
		t.Fatalf("POST /v1/topology = %d: %s", code, resp)
	}
	rev2 := waitRevision(t, s, 2)
	if rev2.Rollout != nil {
		t.Fatal("topology-changing revision must not carry a row-level rollout")
	}

	// Node-count mismatch: 409, nothing rebuilt.
	bad := []byte("topology tiny\nnode x\nnode y\nlink x y 10 1 1\n")
	code, _ = post(t, ts.URL+"/v1/topology", bad)
	if code != http.StatusConflict {
		t.Fatalf("mismatched topology = %d, want 409", code)
	}
}

// TestHealthEndpoints: /healthz and /readyz respond, and draining flips
// readiness (but not liveness) while updates are refused.
func TestHealthEndpoints(t *testing.T) {
	s, ts, _ := newTestServer(t, testFWConfig(), nil)
	if code, _, _ := get(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz = %d", code)
	}
	if code, _, _ := get(t, ts.URL+"/readyz"); code != http.StatusOK {
		t.Fatalf("readyz = %d", code)
	}

	s.Drain()
	if code, _, _ := get(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz while draining = %d", code)
	}
	if code, _, _ := get(t, ts.URL+"/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining = %d, want 503", code)
	}
	g := testGraph()
	if code, _ := post(t, ts.URL+"/v1/traffic", matrixText(t, g, testMatrix(g, 99, 2))); code != http.StatusServiceUnavailable {
		t.Fatalf("update while draining = %d, want 503", code)
	}
	// Plan queries keep working through the drain.
	if code, _, _ := get(t, ts.URL+"/v1/plan"); code != http.StatusOK {
		t.Fatalf("plan query while draining = %d", code)
	}
}

// TestStatusEndpoint sanity-checks the status document.
func TestStatusEndpoint(t *testing.T) {
	_, ts, _ := newTestServer(t, testFWConfig(), nil)
	code, body, _ := get(t, ts.URL+"/v1/status")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	var st struct {
		Breaker string `json:"breaker"`
		Active  *struct {
			ID  int64  `json:"id"`
			Dig string `json:"digest"`
		} `json:"active"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Breaker != "closed" || st.Active == nil || st.Active.ID != 1 {
		t.Fatalf("status document %s", body)
	}
}
