package controlplane

import (
	"errors"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock is a mutable, goroutine-safe clock for admission tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_000_000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// TestLimiter: burst spends down, tokens refill continuously at rate/s,
// the wait hint is accurate, and clients are independent.
func TestLimiter(t *testing.T) {
	clk := newFakeClock()
	l := NewLimiter(1, 2, clk.Now, nil)

	// Burst of 2, then empty.
	for i := 0; i < 2; i++ {
		if ok, _ := l.Allow("a"); !ok {
			t.Fatalf("burst request %d denied", i)
		}
	}
	ok, wait := l.Allow("a")
	if ok {
		t.Fatal("third request allowed with an empty bucket")
	}
	if wait <= 0 || wait > time.Second {
		t.Fatalf("wait hint %v, want (0, 1s]", wait)
	}

	// Other clients have their own buckets.
	if ok, _ := l.Allow("b"); !ok {
		t.Fatal("fresh client denied")
	}

	// Half a token after 500ms: still denied, shorter wait.
	clk.Advance(500 * time.Millisecond)
	ok, wait = l.Allow("a")
	if ok {
		t.Fatal("allowed with half a token")
	}
	if wait <= 0 || wait > 500*time.Millisecond {
		t.Fatalf("wait hint %v after partial refill, want (0, 500ms]", wait)
	}

	// A full second of refill: one token, one request, then empty again.
	clk.Advance(time.Second)
	if ok, _ := l.Allow("a"); !ok {
		t.Fatal("denied after full refill")
	}
	if ok, _ := l.Allow("a"); ok {
		t.Fatal("second request allowed after a single-token refill")
	}

	// Refill never exceeds burst.
	clk.Advance(time.Hour)
	for i := 0; i < 2; i++ {
		if ok, _ := l.Allow("a"); !ok {
			t.Fatalf("burst request %d denied after long idle", i)
		}
	}
	if ok, _ := l.Allow("a"); ok {
		t.Fatal("refill exceeded burst")
	}
}

// TestLimiterUnlimited: rate 0 disables limiting entirely.
// TestLimiterEvictsIdleBuckets: every distinct client identity used to
// allocate a bucket forever. The sweep must drop buckets idle past
// refill-to-full time (burst/rate), keeping the map bounded, without
// loosening an active client's limit.
func TestLimiterEvictsIdleBuckets(t *testing.T) {
	clk := newFakeClock()
	l := NewLimiter(1, 2, clk.Now, nil) // refill-to-full = 2s

	for i := 0; i < 100; i++ {
		if ok, _ := l.Allow(string(rune('a'+i%26)) + string(rune('0'+i/26))); !ok {
			t.Fatalf("fresh client %d denied", i)
		}
	}
	// One client stays active across the sweep window.
	if ok, _ := l.Allow("keep"); !ok {
		t.Fatal("active client denied")
	}
	if got := len(l.buckets); got != 101 {
		t.Fatalf("expected 101 buckets before the sweep, got %d", got)
	}

	clk.Advance(1900 * time.Millisecond)
	if ok, _ := l.Allow("keep"); !ok {
		t.Fatal("active client denied mid-window")
	}
	// 2s past the last sweep: the next request triggers eviction of the
	// 100 idle buckets; "keep" (refreshed 100ms ago) survives.
	clk.Advance(100 * time.Millisecond)
	if ok, _ := l.Allow("trigger"); !ok {
		t.Fatal("sweep-triggering client denied")
	}
	if got := len(l.buckets); got != 2 {
		t.Fatalf("expected only the active and triggering buckets after the sweep, got %d", got)
	}
	if _, ok := l.buckets["keep"]; !ok {
		t.Fatal("recently active bucket was evicted")
	}

	// An evicted client reappearing is simply a fresh, full bucket: no
	// limit was loosened by the eviction.
	for i := 0; i < 2; i++ {
		if ok, _ := l.Allow("a0"); !ok {
			t.Fatalf("returning client burst request %d denied", i)
		}
	}
	if ok, _ := l.Allow("a0"); ok {
		t.Fatal("returning client exceeded burst")
	}
}

func TestLimiterUnlimited(t *testing.T) {
	l := NewLimiter(0, 1, nil, nil)
	for i := 0; i < 1000; i++ {
		if ok, _ := l.Allow("a"); !ok {
			t.Fatal("unlimited limiter denied a request")
		}
	}
}

// TestBreakerStateMachine walks the full closed → open → half-open cycle
// with a fake clock: opens after exactly K consecutive failures, rejects
// during cooldown, admits a single probe after it, and the probe outcome
// decides between closing and another full cooldown.
func TestBreakerStateMachine(t *testing.T) {
	clk := newFakeClock()
	const cooldown = time.Minute
	b := NewBreaker(3, cooldown, clk.Now, nil)

	// K-1 failures: still closed; a success resets the count.
	b.Failure()
	b.Failure()
	if b.State() != BreakerClosed || !b.Allow() {
		t.Fatal("breaker opened before the threshold")
	}
	b.Success()
	b.Failure()
	b.Failure()
	if b.State() != BreakerClosed {
		t.Fatal("success did not reset the failure count")
	}

	// Third consecutive failure: open, requests rejected.
	b.Failure()
	if b.State() != BreakerOpen {
		t.Fatalf("state %v after threshold failures, want open", b.State())
	}
	if b.Allow() {
		t.Fatal("open breaker admitted a request")
	}
	clk.Advance(cooldown - time.Second)
	if b.Allow() {
		t.Fatal("admitted before the cooldown elapsed")
	}

	// Cooldown elapsed: exactly one probe goes through.
	clk.Advance(2 * time.Second)
	if !b.Allow() {
		t.Fatal("probe rejected after cooldown")
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state %v, want half-open", b.State())
	}
	if b.Allow() {
		t.Fatal("second request admitted while the probe is in flight")
	}

	// Probe fails: re-open for another full cooldown.
	b.Failure()
	if b.State() != BreakerOpen || b.Allow() {
		t.Fatal("failed probe did not re-open the circuit")
	}
	clk.Advance(cooldown + time.Second)
	if !b.Allow() {
		t.Fatal("second probe rejected")
	}

	// Probe succeeds: closed, traffic flows again.
	b.Success()
	if b.State() != BreakerClosed || !b.Allow() {
		t.Fatal("successful probe did not close the circuit")
	}
}

// TestServerRateLimit429: with a 1-token bucket the second request gets
// 429 plus a Retry-After hint, and a refilled bucket admits again.
func TestServerRateLimit429(t *testing.T) {
	clk := newFakeClock()
	_, ts, _ := newTestServer(t, testFWConfig(), func(c *Config) {
		c.RateLimit = 1
		c.RateBurst = 1
		c.clock = clk.Now
	})

	if code, _, _ := get(t, ts.URL+"/v1/plan"); code != http.StatusOK {
		t.Fatalf("first request = %d", code)
	}
	code, _, hdr := get(t, ts.URL+"/v1/plan")
	if code != http.StatusTooManyRequests {
		t.Fatalf("second request = %d, want 429", code)
	}
	if hdr.Get("Retry-After") != "1" {
		t.Fatalf("Retry-After %q, want 1", hdr.Get("Retry-After"))
	}

	// Health endpoints bypass the limiter even with an empty bucket.
	if code, _, _ := get(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatal("healthz throttled")
	}
	if code, _, _ := get(t, ts.URL+"/readyz"); code != http.StatusOK {
		t.Fatal("readyz throttled")
	}

	clk.Advance(time.Second)
	if code, _, _ := get(t, ts.URL+"/v1/plan"); code != http.StatusOK {
		t.Fatalf("request after refill = %d", code)
	}
}

// TestBreakerHealthRegression: with the precompute circuit open the
// process is still alive (/healthz 200) but not ready (/readyz 503), and
// updates are refused with a Retry-After hint while plan reads keep
// working.
func TestBreakerHealthRegression(t *testing.T) {
	s, ts, _ := newTestServer(t, testFWConfig(), nil)

	// Trip the breaker directly (threshold defaults to 3).
	s.breaker.Failure()
	s.breaker.Failure()
	s.breaker.Failure()
	if s.breaker.State() != BreakerOpen {
		t.Fatalf("breaker state %v, want open", s.breaker.State())
	}

	if code, _, _ := get(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatal("healthz != 200 while breaker open")
	}
	if code, _, _ := get(t, ts.URL+"/readyz"); code != http.StatusServiceUnavailable {
		t.Fatal("readyz != 503 while breaker open")
	}
	if code, _, _ := get(t, ts.URL+"/v1/plan"); code != http.StatusOK {
		t.Fatal("plan reads must survive an open breaker")
	}
	resp, err := http.Post(ts.URL+"/v1/traffic", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("update while open = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without a Retry-After hint")
	}
}

// waitIdle blocks until the rebuild worker has processed every pending
// generation (successfully or not).
func waitIdle(t testing.TB, s *Server) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		s.mu.Lock()
		idle := s.gen == s.builtGen
		s.mu.Unlock()
		if idle {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("rebuild worker did not drain")
}

// TestBreakerEndToEnd drives the breaker through the real async rebuild
// path with injected precompute failures: K failed builds open the
// circuit, updates bounce with 503, and after the cooldown a single probe
// update with a healed solver closes it and publishes a fresh revision.
func TestBreakerEndToEnd(t *testing.T) {
	clk := newFakeClock()
	const cooldown = time.Minute
	s, ts, reg := newTestServer(t, testFWConfig(), func(c *Config) {
		c.BreakerThreshold = 2
		c.BreakerCooldown = cooldown
		c.clock = clk.Now
	})
	g := testGraph()
	d := testMatrix(g, 150, 1)

	// Inject failures. Setting the hook here is race-free: the worker
	// only reads it after a wake-channel send that happens after this
	// write. The atomic flag lets the test heal the solver later without
	// touching the field again.
	var failing atomic.Bool
	failing.Store(true)
	s.testBuildErr = func() error {
		if failing.Load() {
			return errors.New("injected precompute failure")
		}
		return nil
	}

	// Two updates, two failed builds, circuit open.
	cur := d
	for i := 0; i < 2; i++ {
		cur = perturb(t, cur, float64(i+1))
		if code, resp := post(t, ts.URL+"/v1/traffic", matrixText(t, g, cur)); code != http.StatusAccepted {
			t.Fatalf("update %d = %d: %s", i, code, resp)
		}
		waitIdle(t, s)
	}
	if s.breaker.State() != BreakerOpen {
		t.Fatalf("breaker %v after %d failed builds, want open", s.breaker.State(), 2)
	}
	if n := reg.Snapshot().Counters["cp.rebuild_errors"]; n != 2 {
		t.Fatalf("rebuild_errors = %d, want 2", n)
	}
	if s.Active().ID != 1 {
		t.Fatalf("failed builds published revision %d", s.Active().ID)
	}

	// Updates bounce while open.
	if code, _ := post(t, ts.URL+"/v1/traffic", matrixText(t, g, cur)); code != http.StatusServiceUnavailable {
		t.Fatalf("update while open = %d, want 503", code)
	}

	// Rollback stays available as the escape hatch even with the circuit
	// open (here a no-op back to the active revision).
	if code, _ := post(t, ts.URL+"/v1/rollback?rev=1", nil); code != http.StatusOK {
		t.Fatal("rollback refused while breaker open")
	}

	// Cooldown elapses, solver heals: the probe update goes through,
	// builds, closes the circuit, and revision 2 appears.
	clk.Advance(cooldown + time.Second)
	failing.Store(false)
	cur = perturb(t, cur, 10)
	if code, resp := post(t, ts.URL+"/v1/traffic", matrixText(t, g, cur)); code != http.StatusAccepted {
		t.Fatalf("probe update = %d: %s", code, resp)
	}
	waitIdle(t, s)
	if s.breaker.State() != BreakerClosed {
		t.Fatalf("breaker %v after successful probe build, want closed", s.breaker.State())
	}
	rev := s.Active()
	if rev.ID != 2 || rev.Key.Traffic != cur.Fingerprint() {
		t.Fatalf("probe build published revision %d (traffic %x, want %x)", rev.ID, rev.Key.Traffic, cur.Fingerprint())
	}
	if code, _, _ := get(t, ts.URL+"/readyz"); code != http.StatusOK {
		t.Fatal("readyz != 200 after the circuit closed")
	}
	if n := reg.Snapshot().Counters["cp.breaker.probes"]; n != 1 {
		t.Fatalf("probes = %d, want 1", n)
	}
}
