package controlplane

import (
	"bytes"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// commentLines is an endless body of "#\n" comment lines, which both
// parsers skip: only the body cap can end it.
type commentLines struct{ odd bool }

func (c *commentLines) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = '#'
		if c.odd {
			p[i] = '\n'
		}
		c.odd = !c.odd
	}
	return len(p), nil
}

// TestOversizedBodyIs413: a body past maxBodyBytes is refused with 413
// and the reader's own error text on both update endpoints, moves no
// input generation, and a body cut short for any other reason stays 400.
func TestOversizedBodyIs413(t *testing.T) {
	s, _, _ := newTestServer(t, testFWConfig(), nil)
	for _, path := range []string{"/v1/traffic", "/v1/topology"} {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, path, io.LimitReader(&commentLines{}, maxBodyBytes+2))
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: %d %s, want 413", path, rec.Code, rec.Body)
		}
		if !strings.Contains(rec.Body.String(), "request body too large") {
			t.Fatalf("%s: 413 lost the error text: %s", path, rec.Body)
		}
		rec = httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader("demand a\nlink")))
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%s: malformed small body = %d, want 400", path, rec.Code)
		}
	}
	s.mu.Lock()
	gen := s.gen
	s.mu.Unlock()
	if gen != 0 || s.Active().ID != 1 {
		t.Fatalf("refused bodies moved the inputs: generation %d, revision %d", gen, s.Active().ID)
	}
}

// TestRebuildPanicTripsBreaker: a panic under a background rebuild does
// not take the process down. It counts as a failed build (the breaker
// opens at its threshold), the stack reaches the log, /healthz stays 200,
// and the revision that was being served still is, byte for byte.
func TestRebuildPanicTripsBreaker(t *testing.T) {
	var logged bytes.Buffer
	prev := slog.Default()
	slog.SetDefault(slog.New(slog.NewTextHandler(&logged, nil)))
	defer slog.SetDefault(prev)

	s, ts, reg := newTestServer(t, testFWConfig(), func(c *Config) { c.BreakerThreshold = 1 })
	_, before, hdr := get(t, ts.URL+"/v1/plan")
	// Race-free for the reason given in TestBreakerEndToEnd.
	s.testBuildErr = func() error { panic("injected solver panic") }

	g := testGraph()
	if code, resp := post(t, ts.URL+"/v1/traffic", matrixText(t, g, perturb(t, testMatrix(g, 150, 1), 1))); code != http.StatusAccepted {
		t.Fatalf("update = %d: %s", code, resp)
	}
	waitIdle(t, s)

	if s.breaker.State() != BreakerOpen {
		t.Fatalf("breaker %v after a panicking build, want open", s.breaker.State())
	}
	c := reg.Snapshot().Counters
	if c["cp.rebuild_panics"] != 1 || c["cp.rebuild_errors"] != 1 {
		t.Fatalf("rebuild_panics = %d, rebuild_errors = %d, want 1 and 1", c["cp.rebuild_panics"], c["cp.rebuild_errors"])
	}
	if out := logged.String(); !strings.Contains(out, "injected solver panic") || !strings.Contains(out, "controlplane.(*Server).build") {
		t.Fatalf("panic and stack not logged: %q", out)
	}
	if code, _, _ := get(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz = %d after a panicking build", code)
	}
	_, after, hdrAfter := get(t, ts.URL+"/v1/plan")
	if s.Active().ID != 1 || !bytes.Equal(before, after) || hdr.Get("X-R3-Digest") != hdrAfter.Get("X-R3-Digest") {
		t.Fatalf("served plan changed across a panicking build (revision %d)", s.Active().ID)
	}
}
