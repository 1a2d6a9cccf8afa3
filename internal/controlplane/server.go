package controlplane

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/lp"
	"repro/internal/obs"
	"repro/internal/topo"
	"repro/internal/traffic"
	"repro/internal/transition"
)

// Config configures a Server.
type Config struct {
	// Graph and Traffic are the initial inputs; both are required.
	Graph   *graph.Graph
	Traffic *traffic.Matrix
	// Precompute is the solver configuration used for every revision.
	// Obs and LPWarmBasis are managed by the server and ignored here.
	Precompute core.Config
	// Retain bounds the revision log available to rollback (default 8,
	// minimum 2).
	Retain int
	// CacheSize bounds the plan cache's unpinned entries (default 32).
	CacheSize int
	// RateLimit is the per-client request rate in requests/second
	// (default 0 = unlimited); RateBurst is the bucket depth (default 10).
	RateLimit float64
	RateBurst int
	// BreakerThreshold opens the precompute circuit after this many
	// consecutive failures (default 3); BreakerCooldown is the open
	// interval before a half-open probe (default 30s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// Clock overrides time.Now for admission control (tests).
	Clock Clock
	// Obs receives cp.* metrics and the /debug endpoints; may be nil.
	Obs *obs.Registry
}

// Server is the planner daemon: it owns the current (topology, traffic)
// inputs, rebuilds plans in the background on the solver worker pool when
// they change, and serves the active revision over HTTP. See the package
// comment for the serving discipline.
type Server struct {
	pc      core.Config
	cfgHash uint64
	reg     *obs.Registry

	store   *Store
	cache   *Cache
	limiter *Limiter
	breaker *Breaker
	mux     *http.ServeMux

	mu       sync.Mutex
	g        *graph.Graph
	d        *traffic.Matrix
	gen      int64  // bumped per accepted update
	builtGen int64  // last generation the worker finished (success or not)
	lastErr  string // text of the last failed rebuild; cleared by the next success

	draining bool // guarded by mu; checked by updates and /readyz

	wake chan struct{}
	quit chan struct{}
	done chan struct{}

	// testBuildErr, when set, replaces the precompute step's outcome —
	// the failure-injection hook for breaker tests.
	testBuildErr func() error
}

// New validates the configuration, precomputes the first revision
// synchronously (the daemon answers /v1/plan from the moment it binds its
// listener), and starts the background rebuild worker.
func New(cfg Config) (*Server, error) {
	if cfg.Graph == nil || cfg.Traffic == nil {
		return nil, fmt.Errorf("controlplane: Graph and Traffic are required")
	}
	if cfg.Traffic.N != cfg.Graph.NumNodes() {
		return nil, fmt.Errorf("controlplane: traffic matrix has %d nodes, topology %d",
			cfg.Traffic.N, cfg.Graph.NumNodes())
	}
	if cfg.Retain == 0 {
		cfg.Retain = 8
	}
	if cfg.CacheSize == 0 {
		cfg.CacheSize = 32
	}
	if cfg.RateBurst == 0 {
		cfg.RateBurst = 10
	}
	if cfg.BreakerThreshold == 0 {
		cfg.BreakerThreshold = 3
	}
	if cfg.BreakerCooldown == 0 {
		cfg.BreakerCooldown = 30 * time.Second
	}

	pc := cfg.Precompute
	pc.LPWarmBasis = nil
	s := &Server{
		pc:      pc,
		cfgHash: ConfigHash(pc),
		reg:     cfg.Obs,
		store:   NewStore(cfg.Retain, cfg.Obs),
		limiter: NewLimiter(cfg.RateLimit, cfg.RateBurst, cfg.Clock, cfg.Obs),
		breaker: NewBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown, cfg.Clock, cfg.Obs),
		g:       cfg.Graph,
		d:       cfg.Traffic,
		wake:    make(chan struct{}, 1),
		quit:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	s.cache = NewCache(cfg.CacheSize, s.store.Pinned, cfg.Obs)
	s.mux = http.NewServeMux()
	s.routes()

	if err := s.build(0, cfg.Graph, cfg.Traffic); err != nil {
		return nil, fmt.Errorf("controlplane: initial precompute: %w", err)
	}
	go s.worker()
	return s, nil
}

// Handler returns the daemon's HTTP surface (the /v1 API, health
// endpoints, and the obs /debug routes).
func (s *Server) Handler() http.Handler { return s.mux }

// Drain marks the server as draining: /readyz flips to 503 so load
// balancers stop sending traffic, and further updates are rejected;
// in-flight plan queries keep being served.
func (s *Server) Drain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
}

// Close stops the background rebuild worker. Safe to call once.
func (s *Server) Close() {
	close(s.quit)
	<-s.done
}

// Active returns the currently served revision.
func (s *Server) Active() *Revision { return s.store.Active() }

// ---------------------------------------------------------------------
// Background rebuild.
// ---------------------------------------------------------------------

// worker serializes rebuilds: updates bump the input generation and
// wake it; it re-checks after every build, so a burst of updates
// coalesces into the minimum number of precomputes ending at the latest
// inputs.
func (s *Server) worker() {
	defer close(s.done)
	for {
		select {
		case <-s.quit:
			return
		case <-s.wake:
		}
		for {
			s.mu.Lock()
			g, d, gen, built := s.g, s.d, s.gen, s.builtGen
			s.mu.Unlock()
			if gen == built {
				break
			}
			lastErr := ""
			if err := s.build(gen, g, d); err != nil {
				s.breaker.Failure()
				s.reg.Counter("cp.rebuild_errors").Inc()
				slog.Warn("r3d: rebuild failed", "generation", gen, "cache_key", s.keyFor(g, d), "error", err)
				lastErr = err.Error()
			} else {
				s.breaker.Success()
			}
			s.mu.Lock()
			s.builtGen = gen
			s.lastErr = lastErr
			s.mu.Unlock()
			select {
			case <-s.quit:
				return
			default:
			}
		}
	}
}

// keyFor is the cache identity of the plan for the inputs under the
// server's solver configuration.
func (s *Server) keyFor(g *graph.Graph, d *traffic.Matrix) CacheKey {
	return CacheKey{Topo: TopologyDigest(g), Traffic: d.Fingerprint(), Config: s.cfgHash}
}

// build computes (or looks up) the plan for the inputs and publishes it
// as a new revision with a staged rollout attached. It is called from
// New (synchronously, generation 0) and from the worker; inputs are
// immutable snapshots and gen only labels log lines. A panic anywhere
// under it (the solvers are the likely source) comes back as an error
// with the stack logged: the revision being served is unaffected, so the
// daemon keeps serving it, the worker counts a breaker failure, and
// nothing is published.
func (s *Server) build(gen int64, g *graph.Graph, d *traffic.Matrix) (err error) {
	defer func() {
		if r := recover(); r != nil {
			s.reg.Counter("cp.rebuild_panics").Inc()
			slog.Error("r3d: rebuild panicked", "panic", r, "stack", string(debug.Stack()))
			err = fmt.Errorf("controlplane: rebuild panicked: %v", r)
		}
	}()
	if s.testBuildErr != nil {
		if err := s.testBuildErr(); err != nil {
			return err
		}
	}
	key := s.keyFor(g, d)
	active := s.store.Active()

	plan, bytes, ok := s.cache.Get(key)
	if !ok {
		pc := s.pc
		pc.Obs = s.reg
		// LP warm-basis reuse across revisions: the previous revision's
		// optimal basis seeds the re-solve when the topology (and hence
		// the LP shape) is unchanged. A stale or mismatched basis falls
		// back to a cold solve inside the LP, so this is always safe.
		if active != nil && active.Key.Topo == key.Topo {
			pc.LPWarmBasis = active.Plan.LPBasis
		}
		var err error
		plan, err = core.Precompute(g, d, pc)
		if err != nil {
			return err
		}
		bytes, err = plan.EncodeBytes()
		if err != nil {
			return err
		}
		s.reg.Counter("cp.precomputes").Inc()
		s.cache.Put(key, plan, bytes)
	}

	// Attach the staged rollout, LP-certified and warm-started from the
	// previous rollout's basis.
	var warm *lp.Basis
	if active != nil && active.Rollout != nil {
		warm = active.Rollout.Basis
	}
	rollout := s.rollout(active, key, plan, transition.Options{Warm: warm}, "generation", gen)

	s.store.Swap(&Revision{
		Key:     key,
		Plan:    plan,
		Bytes:   bytes,
		Digest:  core.Fingerprint(bytes),
		Rollout: rollout,
	})
	return nil
}

// rollout schedules the staged plan-to-plan swap from the revision being
// replaced. A topology change invalidates row-level deltas (router/link
// identities moved), so those swaps — like the first revision, and like
// one the scheduler refuses — ship without a rollout. attrs label the
// refusal's log line.
func (s *Server) rollout(from *Revision, key CacheKey, to *core.Plan, opts transition.Options, attrs ...any) *transition.Sequence {
	if from == nil || from.Key.Topo != key.Topo {
		return nil
	}
	opts.Obs = s.reg
	seq, err := transition.SchedulePlanSwap(from.Plan, to, opts)
	if err != nil {
		s.reg.Counter("cp.rollout_errors").Inc()
		slog.Warn("r3d: rollout not scheduled; the revision ships without one", append(attrs, "cache_key", key, "error", err)...)
		return nil
	}
	return seq
}

// bumpGen records an accepted input update and wakes the worker. Returns
// the new generation.
func (s *Server) bumpGen() int64 {
	s.mu.Lock()
	s.gen++
	gen := s.gen
	s.mu.Unlock()
	s.reg.Counter("cp.updates").Inc()
	select {
	case s.wake <- struct{}{}:
	default:
	}
	return gen
}

// ---------------------------------------------------------------------
// HTTP surface.
// ---------------------------------------------------------------------

func (s *Server) routes() {
	s.mux.HandleFunc("GET /v1/plan", s.admit(s.handlePlan))
	s.mux.HandleFunc("GET /v1/scenario", s.admit(s.handleScenario))
	s.mux.HandleFunc("GET /v1/revisions", s.admit(s.handleRevisions))
	s.mux.HandleFunc("GET /v1/status", s.admit(s.handleStatus))
	s.mux.HandleFunc("POST /v1/topology", s.admit(s.handleTopology))
	s.mux.HandleFunc("POST /v1/traffic", s.admit(s.handleTraffic))
	s.mux.HandleFunc("POST /v1/rollback", s.admit(s.handleRollback))
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	obs.Attach(s.mux, s.reg)
}

// admit applies the per-client token bucket. Health endpoints bypass it
// (a load balancer probing /readyz must never be throttled).
func (s *Server) admit(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if ok, wait := s.limiter.Allow(clientID(r)); !ok {
			w.Header().Set("Retry-After", strconv.Itoa(ceilSeconds(wait)))
			writeError(w, http.StatusTooManyRequests, "rate limit exceeded")
			return
		}
		h(w, r)
	}
}

// clientID identifies the caller for rate limiting: the X-R3-Client
// header when present (multi-tenant deployments set it at the edge),
// otherwise the connection's source host.
func clientID(r *http.Request) string {
	if c := r.Header.Get("X-R3-Client"); c != "" {
		return c
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

func ceilSeconds(d time.Duration) int {
	secs := int(d / time.Second)
	if d%time.Second != 0 || secs == 0 {
		secs++
	}
	return secs
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

// handlePlan serves the active revision's wire bytes verbatim (or a
// retained revision via ?rev=N). The revision ID and content digest ride
// response headers, so concurrency tests — and operators — can verify a
// response was never torn across a swap.
func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	rev := s.store.Active()
	if q := r.URL.Query().Get("rev"); q != "" {
		id, err := strconv.ParseInt(q, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad rev")
			return
		}
		if rev = s.store.Revision(id); rev == nil {
			writeError(w, http.StatusNotFound, "revision not retained")
			return
		}
	}
	if rev == nil {
		writeError(w, http.StatusServiceUnavailable, "no plan yet")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-R3-Revision", strconv.FormatInt(rev.ID, 10))
	w.Header().Set("X-R3-Digest", fmt.Sprintf("%016x", rev.Digest))
	w.Header().Set("ETag", fmt.Sprintf("%q", fmt.Sprintf("%016x", rev.Digest)))
	_, _ = w.Write(rev.Bytes)
}

// handleScenario evaluates a hypothetical scenario against the active
// plan: hard failures (?links=3,17), partial capacity degradations
// (?degrade=3:0.5,7:0.25) and demand surges (?surge=1.5), in any
// combination, replayed through R3 online reconfiguration (never mutating
// the served plan), plus an optional staged-rounds preview with &stage=1
// (hard failures only).
func (s *Server) handleScenario(w http.ResponseWriter, r *http.Request) {
	rev := s.store.Active()
	if rev == nil {
		writeError(w, http.StatusServiceUnavailable, "no plan yet")
		return
	}
	linksArg := r.URL.Query().Get("links")
	degradeArg := r.URL.Query().Get("degrade")
	surgeArg := r.URL.Query().Get("surge")
	if linksArg == "" && degradeArg == "" && surgeArg == "" {
		writeError(w, http.StatusBadRequest, "links, degrade or surge parameter required")
		return
	}
	var links []graph.LinkID
	if linksArg != "" {
		for _, tok := range strings.Split(linksArg, ",") {
			id, err := strconv.Atoi(strings.TrimSpace(tok))
			if err != nil || id < 0 || id >= rev.Plan.G.NumLinks() {
				writeError(w, http.StatusBadRequest, fmt.Sprintf("bad link id %q", tok))
				return
			}
			links = append(links, graph.LinkID(id))
		}
	}
	degraded, err := core.ParseDegradations(degradeArg, rev.Plan.G.NumLinks())
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	surgeScale := 0.0
	if surgeArg != "" {
		surgeScale, err = strconv.ParseFloat(surgeArg, 64)
		if err != nil || math.IsNaN(surgeScale) || math.IsInf(surgeScale, 0) || surgeScale <= 1 {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("surge %q must be a finite number > 1", surgeArg))
			return
		}
	}
	sc := core.Scenario{
		Failed: graph.NewLinkSet(links...), Node: -1,
		Degraded: degraded, SurgeScale: surgeScale,
	}
	st := core.NewState(rev.Plan)
	if err := st.ApplyScenario(sc); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	mlu := st.MLU()
	resp := map[string]any{
		"revision":        rev.ID,
		"links":           links,
		"kind":            string(sc.EffectiveKind()),
		"mlu":             mlu,
		"lost_demand":     st.LostDemand(),
		"congestion_free": mlu <= 1+1e-9,
	}
	if len(degraded) > 0 {
		resp["degraded"] = degraded
	}
	if surgeScale > 1 {
		resp["surge"] = surgeScale
	}
	if r.URL.Query().Get("stage") != "" {
		if len(degraded) > 0 || surgeScale > 1 {
			writeError(w, http.StatusBadRequest, "staged preview supports hard failures only")
			return
		}
		seq, err := transition.Schedule(rev.Plan, links, transition.Options{
			SkipCertify: r.URL.Query().Get("certify") == "",
			Obs:         s.reg,
		})
		if err != nil {
			// Every Schedule error is about the link list: repeated links,
			// or more failure groups than can be staged.
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		resp["staged"] = rolloutSummary(seq)
	}
	writeJSON(w, http.StatusOK, resp)
}

type roundSummary struct {
	Seq   int            `json:"seq"`
	Kind  string         `json:"kind"`
	Links []graph.LinkID `json:"links,omitempty"`
	// ODs counts the commodities migrated by a plan-swap round (0 for
	// failure-activation rounds).
	ODs            int      `json:"ods,omitempty"`
	StateMLU       float64  `json:"state_mlu"`
	EnvelopeMLU    float64  `json:"envelope_mlu"`
	LPMLU          *float64 `json:"lp_mlu,omitempty"`
	CertifyError   string   `json:"certify_error,omitempty"`
	Fallback       bool     `json:"fallback,omitempty"`
	CongestionFree bool     `json:"congestion_free"`
}

type rolloutView struct {
	Rounds         []roundSummary `json:"rounds"`
	TransientMLU   float64        `json:"transient_mlu"`
	FinalMLU       float64        `json:"final_mlu"`
	CongestionFree bool           `json:"congestion_free"`
	WireBytes      int            `json:"wire_bytes"`
	LPSolves       int            `json:"lp_solves"`
}

func rolloutSummary(seq *transition.Sequence) *rolloutView {
	v := &rolloutView{
		TransientMLU:   seq.TransientMLU,
		FinalMLU:       seq.FinalMLU,
		CongestionFree: seq.CongestionFree,
		WireBytes:      seq.WireBytes(),
		LPSolves:       seq.LPSolves,
	}
	for _, rd := range seq.Rounds {
		rs := roundSummary{
			Seq:            rd.Seq,
			Kind:           rd.Kind.String(),
			Links:          rd.Links,
			ODs:            len(rd.ODs),
			StateMLU:       rd.StateMLU,
			EnvelopeMLU:    rd.EnvelopeMLU,
			Fallback:       rd.Fallback,
			CongestionFree: rd.CongestionFree,
		}
		if !isNaN(rd.LPMLU) {
			lp := rd.LPMLU
			rs.LPMLU = &lp
		}
		if rd.CertifyErr != nil {
			rs.CertifyError = rd.CertifyErr.Error()
		}
		v.Rounds = append(v.Rounds, rs)
	}
	return v
}

func isNaN(f float64) bool { return f != f }

type revisionView struct {
	ID         int64        `json:"id"`
	Digest     string       `json:"digest"`
	Created    time.Time    `json:"created"`
	MLU        float64      `json:"mlu"`
	NormalMLU  float64      `json:"normal_mlu"`
	RollbackOf int64        `json:"rollback_of,omitempty"`
	Rollout    *rolloutView `json:"rollout,omitempty"`
}

func viewOf(rev *Revision) revisionView {
	v := revisionView{
		ID:         rev.ID,
		Digest:     fmt.Sprintf("%016x", rev.Digest),
		Created:    rev.Created,
		MLU:        rev.Plan.MLU,
		NormalMLU:  rev.Plan.NormalMLU,
		RollbackOf: rev.RollbackOf,
	}
	if rev.Rollout != nil {
		v.Rollout = rolloutSummary(rev.Rollout)
	}
	return v
}

func (s *Server) handleRevisions(w http.ResponseWriter, _ *http.Request) {
	revs := s.store.Revisions()
	views := make([]revisionView, len(revs))
	for i, rev := range revs {
		views[i] = viewOf(rev)
	}
	writeJSON(w, http.StatusOK, views)
}

func (s *Server) handleStatus(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	gen, built, draining, lastErr := s.gen, s.builtGen, s.draining, s.lastErr
	s.mu.Unlock()
	resp := map[string]any{
		"generation":       gen,
		"built_generation": built,
		"pending_updates":  gen - built,
		"breaker":          s.breaker.State().String(),
		"draining":         draining,
		"cache_entries":    s.cache.Len(),
	}
	if lastErr != "" {
		resp["last_error"] = lastErr
	}
	if rev := s.store.Active(); rev != nil {
		resp["active"] = viewOf(rev)
	}
	writeJSON(w, http.StatusOK, resp)
}

// admitUpdate gates the mutating endpoints: rejected while draining, and
// guarded by the precompute circuit breaker (half-open admits a single
// probe update).
func (s *Server) admitUpdate(w http.ResponseWriter) bool {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return false
	}
	if !s.breaker.Allow() {
		w.Header().Set("Retry-After", strconv.Itoa(ceilSeconds(s.breaker.cooldown)))
		writeError(w, http.StatusServiceUnavailable, "precompute circuit open")
		return false
	}
	return true
}

// maxBodyBytes caps the POST /v1/topology and /v1/traffic bodies. A dense
// 1000-node matrix, the largest input the planner takes, is about 25 MB
// of text.
const maxBodyBytes = 64 << 20

// writeBodyError answers a failed parse of a capped request body: 413
// when the cap is what cut the input short, 400 otherwise. The parsers
// report a truncated body as whatever its last line looks like, so the
// capped reader is asked directly: past the limit it fails every read.
func writeBodyError(w http.ResponseWriter, body io.Reader, err error) {
	var tooBig *http.MaxBytesError
	if _, rerr := body.Read(make([]byte, 1)); errors.As(rerr, &tooBig) {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("%v: limit is %d bytes", rerr, tooBig.Limit))
		return
	}
	writeError(w, http.StatusBadRequest, err.Error())
}

func (s *Server) handleTraffic(w http.ResponseWriter, r *http.Request) {
	if !s.admitUpdate(w) {
		return
	}
	s.mu.Lock()
	g := s.g
	s.mu.Unlock()
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	d, err := traffic.ParseMatrix(body, g.NumNodes(), g.NodeByName)
	if err != nil {
		writeBodyError(w, body, err)
		return
	}
	s.mu.Lock()
	s.d = d
	s.mu.Unlock()
	gen := s.bumpGen()
	writeJSON(w, http.StatusAccepted, map[string]any{
		"accepted":   true,
		"generation": gen,
	})
}

func (s *Server) handleTopology(w http.ResponseWriter, r *http.Request) {
	if !s.admitUpdate(w) {
		return
	}
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	g, err := topo.Parse(body)
	if err != nil {
		writeBodyError(w, body, err)
		return
	}
	s.mu.Lock()
	if g.NumNodes() != s.d.N {
		s.mu.Unlock()
		writeError(w, http.StatusConflict, fmt.Sprintf(
			"topology has %d nodes but the current traffic matrix has %d; node-set changes need a matching POST /v1/traffic against the new topology",
			g.NumNodes(), s.d.N))
		return
	}
	s.g = g
	s.mu.Unlock()
	gen := s.bumpGen()
	writeJSON(w, http.StatusAccepted, map[string]any{
		"accepted":   true,
		"generation": gen,
	})
}

// handleRollback atomically restores a retained revision. It bypasses
// the breaker — rollback is the escape hatch when new plans are failing
// — and is synchronous: the swap has happened when the response is
// written. The restored plan bytes are exactly the retained revision's
// (byte-identical), published under a fresh revision ID so the log keeps
// a linear history.
func (s *Server) handleRollback(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query().Get("rev")
	if q == "" {
		var body struct {
			Rev int64 `json:"rev"`
		}
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil || body.Rev == 0 {
			writeError(w, http.StatusBadRequest, "rev parameter required")
			return
		}
		q = strconv.FormatInt(body.Rev, 10)
	}
	id, err := strconv.ParseInt(q, 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad rev")
		return
	}
	target := s.store.Revision(id)
	if target == nil {
		writeError(w, http.StatusNotFound, "revision not retained")
		return
	}
	current := s.store.Active()
	if current != nil && current.ID == target.ID {
		writeJSON(w, http.StatusOK, map[string]any{"revision": current.ID, "noop": true})
		return
	}
	// SkipCertify: a rollback wants the swap now, not after an LP solve;
	// the rounds, their deltas and their mixing envelopes still ship.
	rollout := s.rollout(current, target.Key, target.Plan, transition.Options{SkipCertify: true}, "rollback_of", target.ID)
	rev := s.store.Swap(&Revision{
		Key:        target.Key,
		Plan:       target.Plan,
		Bytes:      target.Bytes,
		Digest:     target.Digest,
		Rollout:    rollout,
		RollbackOf: target.ID,
	})
	writeJSON(w, http.StatusOK, map[string]any{
		"revision":    rev.ID,
		"rollback_of": target.ID,
		"digest":      fmt.Sprintf("%016x", rev.Digest),
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte("ok\n"))
}

// handleReadyz reports whether the daemon should receive traffic: 503
// while draining, before the first revision, or while the precompute
// circuit is open (the daemon still serves plans, but an operator's
// rollout gate should pause). /healthz stays 200 throughout — the
// process is alive, restart would not help.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	switch {
	case draining:
		writeError(w, http.StatusServiceUnavailable, "draining")
	case s.store.Active() == nil:
		writeError(w, http.StatusServiceUnavailable, "no plan yet")
	case s.breaker.State() == BreakerOpen:
		writeError(w, http.StatusServiceUnavailable, "precompute circuit open")
	default:
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte("ready\n"))
	}
}
