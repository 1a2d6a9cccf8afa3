package controlplane

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/traffic"
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

// TestStatusKeepsLastRebuildError: a failed rebuild — an error return or a
// recovered panic — keeps its text. It reaches the log with the generation
// and cache key, GET /v1/status carries it as last_error while the previous
// revision keeps being served, and the next successful build clears it.
func TestStatusKeepsLastRebuildError(t *testing.T) {
	for _, tc := range []struct {
		name string
		fail func() error
		want string
	}{
		{"error", func() error { return errors.New("injected precompute failure") }, "injected precompute failure"},
		{"panic", func() error { panic("injected solver panic") }, "rebuild panicked: injected solver panic"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var logged bytes.Buffer
			prev := slog.Default()
			slog.SetDefault(slog.New(slog.NewTextHandler(&logged, nil)))
			defer slog.SetDefault(prev)

			s, ts, _ := newTestServer(t, testFWConfig(), nil)
			lastError := func() (string, bool) {
				t.Helper()
				_, body, _ := get(t, ts.URL+"/v1/status")
				var st map[string]any
				if err := json.Unmarshal(body, &st); err != nil {
					t.Fatalf("%v: %s", err, body)
				}
				text, ok := st["last_error"].(string)
				return text, ok
			}
			if text, ok := lastError(); ok {
				t.Fatalf("last_error = %q before any failure", text)
			}

			// Race-free for the reason given in TestBreakerEndToEnd.
			var failing atomic.Bool
			failing.Store(true)
			s.testBuildErr = func() error {
				if failing.Load() {
					return tc.fail()
				}
				return nil
			}
			g := testGraph()
			d := perturb(t, testMatrix(g, 150, 1), 1)
			if code, resp := post(t, ts.URL+"/v1/traffic", matrixText(t, g, d)); code != http.StatusAccepted {
				t.Fatalf("update = %d: %s", code, resp)
			}
			waitIdle(t, s)
			if text, _ := lastError(); !strings.Contains(text, tc.want) {
				t.Fatalf("last_error = %q, want it to contain %q", text, tc.want)
			}
			if s.Active().ID != 1 {
				t.Fatalf("failed build published revision %d", s.Active().ID)
			}
			out := logged.String()
			for _, want := range []string{"r3d: rebuild failed", "generation=1", "cache_key=" + s.keyFor(g, d).String(), tc.want} {
				if !strings.Contains(out, want) {
					t.Fatalf("log lacks %q: %s", want, out)
				}
			}

			failing.Store(false)
			if code, resp := post(t, ts.URL+"/v1/traffic", matrixText(t, g, perturb(t, d, 2))); code != http.StatusAccepted {
				t.Fatalf("healing update = %d: %s", code, resp)
			}
			waitIdle(t, s)
			if text, ok := lastError(); ok || s.Active().ID != 2 {
				t.Fatalf("after a good build: last_error = %q (present=%v), revision %d", text, ok, s.Active().ID)
			}
		})
	}
}

// TestSlowHeaderClientIsDropped: r3d serves through obs.NewHTTPServer,
// whose timeouts end a connection that never finishes its request line
// and headers, while other clients keep being answered. The header
// timeout is shortened here so the test does not sit out the real one.
func TestSlowHeaderClientIsDropped(t *testing.T) {
	s, _, _ := newTestServer(t, testFWConfig(), nil)
	srv := obs.NewHTTPServer("", s.Handler())
	if srv.ReadHeaderTimeout <= 0 || srv.ReadTimeout <= 0 || srv.WriteTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Fatalf("server left without a timeout: header %v, read %v, write %v, idle %v",
			srv.ReadHeaderTimeout, srv.ReadTimeout, srv.WriteTimeout, srv.IdleTimeout)
	}
	srv.ReadHeaderTimeout = 100 * time.Millisecond
	ts := httptest.NewUnstartedServer(nil)
	ts.Config = srv
	ts.Start()
	defer ts.Close()

	slow, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	if _, err := io.WriteString(slow, "GET /healthz HTTP/1.1\r\nHost: r3d\r\n"); err != nil {
		t.Fatal(err)
	}
	if code, _, _ := get(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz answered %d while a slow client was connected", code)
	}
	// The server hangs up on the unfinished request; only our own
	// deadline firing means it did not.
	if err := slow.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadAll(slow); errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatal("a client that never finished its headers was still connected after 10 s")
	}
	if code, _, _ := get(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz answered %d after the slow client was dropped", code)
	}
}

// TestRolloutSchedulingErrorIsLoggedOnBothPaths: when the swap scheduler
// refuses a rollout, the revision still ships (without one), and both the
// rebuild path and the rollback path count cp.rollout_errors and say why
// in the log — rollback used to count only. The scheduler is made to fail
// by filing, under the serving topology's cache key, a revision whose
// plan is over a graph with different capacities: SchedulePlanSwap
// rejects the topology digest mismatch.
func TestRolloutSchedulingErrorIsLoggedOnBothPaths(t *testing.T) {
	var logged bytes.Buffer
	prev := slog.Default()
	slog.SetDefault(slog.New(slog.NewTextHandler(&logged, nil)))
	defer slog.SetDefault(prev)

	s, ts, reg := newTestServer(t, testFWConfig(), nil)
	key := s.Active().Key
	g2 := graph.New("ring5")
	for _, name := range []string{"a", "b", "c", "d", "e"} {
		g2.AddNode(name)
	}
	for i := 0; i < 5; i++ {
		g2.AddDuplex(graph.NodeID(i), graph.NodeID((i+1)%5), 200, 1, 1)
	}
	g2.AddDuplex(0, 2, 200, 1, 1)
	g2.AddDuplex(1, 3, 200, 1, 1)
	alien, err := core.Precompute(g2, testMatrix(g2, 150, 1), testFWConfig())
	if err != nil {
		t.Fatal(err)
	}
	alienBytes, err := alien.EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	fileAlien := func() *Revision {
		return s.store.Swap(&Revision{Key: key, Plan: alien, Bytes: alienBytes, Digest: core.Fingerprint(alienBytes)})
	}
	check := func(path string, rev *Revision, errs int64, attr string) {
		t.Helper()
		if rev.Rollout != nil {
			t.Fatalf("%s: revision %d carries a rollout the scheduler refused", path, rev.ID)
		}
		if got := reg.Snapshot().Counters["cp.rollout_errors"]; got != errs {
			t.Fatalf("%s: cp.rollout_errors = %d, want %d", path, got, errs)
		}
		out := logged.String()
		logged.Reset()
		for _, want := range []string{"rollout not scheduled", "different topologies", attr} {
			if !strings.Contains(out, want) {
				t.Fatalf("%s: log lacks %q: %q", path, want, out)
			}
		}
	}

	// Rollback path: revision 1 restored over the alien revision 2.
	fileAlien()
	if code, body := post(t, ts.URL+"/v1/rollback?rev=1", nil); code != http.StatusOK {
		t.Fatalf("rollback = %d: %s", code, body)
	}
	if rev := s.Active(); rev.ID != 3 || rev.RollbackOf != 1 {
		t.Fatalf("after rollback: revision %d rollback_of %d, want 3 and 1", rev.ID, rev.RollbackOf)
	}
	check("rollback", s.Active(), 1, "rollback_of=1")

	// Rebuild path: a traffic update built over the alien revision 4.
	fileAlien()
	g := testGraph()
	if code, body := post(t, ts.URL+"/v1/traffic", matrixText(t, g, perturb(t, testMatrix(g, 150, 1), 1))); code != http.StatusAccepted {
		t.Fatalf("update = %d: %s", code, body)
	}
	check("rebuild", waitRevision(t, s, 5), 2, "generation=1")
}

// TestScenarioStagePreviewCapsFailureGroups: the staged preview answers
// 400, promptly, when the link list holds more failure groups than the
// scheduler's subset masks can index — it used to never return. 64
// groups still schedule.
func TestScenarioStagePreviewCapsFailureGroups(t *testing.T) {
	g := graph.New("ring70")
	for i := 0; i < 70; i++ {
		g.AddNode("n" + strconv.Itoa(i))
	}
	for i := 0; i < 70; i++ {
		g.AddDuplex(graph.NodeID(i), graph.NodeID((i+1)%70), 100, 1, 1)
	}
	d := traffic.NewMatrix(70)
	d.Set(0, 35, 10)
	d.Set(20, 50, 10)
	pc := testFWConfig()
	pc.Iterations = 5
	_, ts, _ := newTestServer(t, pc, func(c *Config) { c.Graph, c.Traffic = g, d })

	links := func(groups int) string {
		ids := make([]string, 2*groups)
		for i := range ids {
			ids[i] = strconv.Itoa(i)
		}
		return strings.Join(ids, ",")
	}
	if code, body, _ := get(t, ts.URL+"/v1/scenario?stage=1&links="+links(64)); code != http.StatusOK {
		t.Fatalf("64 groups = %d: %s", code, body)
	}
	code, body, _ := get(t, ts.URL+"/v1/scenario?stage=1&links="+links(65))
	if code != http.StatusBadRequest || !strings.Contains(string(body), "65 failure groups") {
		t.Fatalf("65 groups = %d, want 400 naming the group count: %s", code, body)
	}
}
