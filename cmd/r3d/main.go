// Command r3d is the long-lived R3 planner daemon: it precomputes a
// protection plan at boot, serves it over HTTP, re-precomputes in the
// background when the topology or traffic matrix is updated, and swaps
// revisions atomically with a staged, LP-certified rollout attached.
//
// Usage:
//
//	r3d -net abilene -listen :8080
//	r3d -topo net.txt -traffic tm.txt -listen :8080 -solver lp
//
// API (see DESIGN.md §11):
//
//	GET  /v1/plan[?rev=N]      plan wire bytes (X-R3-Revision/-Digest headers)
//	GET  /v1/scenario?links=.. failure-scenario lookup (&stage=1 for rounds)
//	GET  /v1/revisions         retained revision log
//	GET  /v1/status            generation, breaker, cache stats
//	POST /v1/topology          replace the topology (202; rebuilds in background)
//	POST /v1/traffic           replace the traffic matrix (202; rebuilds)
//	POST /v1/rollback?rev=N    atomically restore a retained revision
//	GET  /healthz, /readyz     liveness / readiness
//	GET  /debug/...            obs metrics, traces and pprof
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/topo"
	"repro/internal/traffic"
)

func main() {
	var (
		listen   = flag.String("listen", ":8080", "HTTP listen address")
		name     = flag.String("net", "abilene", "topology: abilene|level3|sbc|uunet|generated|generated1k|usisp")
		topoFile = flag.String("topo", "", "load a topology file instead of a built-in")
		tmFile   = flag.String("traffic", "", "load a traffic matrix file instead of gravity demands")
		f        = flag.Int("f", 1, "number of overlapping link failures to protect against")
		total    = flag.Float64("total", 0, "total demand in Mbps (default: 15% of capacity)")
		seed     = flag.Int64("seed", 1, "gravity traffic seed")
		solver   = flag.String("solver", "fw", "offline solver: fw|lp")
		effort   = flag.Int("effort", 200, "FW solver effort")
		workers  = flag.Int("workers", 0, "worker goroutines for the FW solver's oracle fan-outs and gradient-cost accumulation (0 = all CPUs, 1 = serial; same plan either way, ≈ 1.0x below a few hundred links)")
		envelope = flag.Float64("envelope", 1.1, "normal-case penalty envelope (0 to disable)")

		retain       = flag.Int("retain", 8, "revisions retained for rollback")
		cacheSize    = flag.Int("cache", 32, "plan cache capacity (unpinned entries)")
		rate         = flag.Float64("rate", 0, "per-client request rate limit in req/s (0 = unlimited)")
		burst        = flag.Int("burst", 10, "rate-limit burst size")
		breakerFails = flag.Int("breaker-failures", 3, "consecutive precompute failures before the circuit opens")
		breakerCool  = flag.Duration("breaker-cooldown", 30*time.Second, "open-circuit cooldown before a half-open probe")
		drainWait    = flag.Duration("drain-timeout", 10*time.Second, "graceful shutdown deadline after SIGTERM")

		verbose = flag.Bool("v", false, "info-level logging")
	)
	flag.Parse()
	obs.InitLogging(*verbose)
	reg := obs.NewRegistry()

	g, d, err := loadInputs(*name, *topoFile, *tmFile, *total, *seed)
	if err != nil {
		fatal(err)
	}
	pc := core.Config{
		Model:           core.ArbitraryFailures{F: *f},
		Iterations:      *effort,
		PenaltyEnvelope: *envelope,
		Workers:         *workers,
	}
	switch strings.ToLower(*solver) {
	case "fw":
		pc.Solver = core.SolverFW
	case "lp":
		pc.Solver = core.SolverLP
	default:
		fatal(fmt.Errorf("unknown solver %q", *solver))
	}

	fmt.Printf("r3d: precomputing initial plan for %s (F=%d, solver %s)...\n", g.Name, *f, *solver)
	start := time.Now()
	srv, err := controlplane.New(controlplane.Config{
		Graph:            g,
		Traffic:          d,
		Precompute:       pc,
		Retain:           *retain,
		CacheSize:        *cacheSize,
		RateLimit:        *rate,
		RateBurst:        *burst,
		BreakerThreshold: *breakerFails,
		BreakerCooldown:  *breakerCool,
		Obs:              reg,
	})
	if err != nil {
		fatal(err)
	}
	defer srv.Close()
	rev := srv.Active()
	fmt.Printf("r3d: revision %d ready in %v (MLU %.4f, normal %.4f, digest %016x)\n",
		rev.ID, time.Since(start).Round(time.Millisecond), rev.Plan.MLU, rev.Plan.NormalMLU, rev.Digest)

	httpSrv := obs.NewHTTPServer(*listen, srv.Handler())
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() {
		fmt.Printf("r3d: listening on %s\n", *listen)
		errCh <- httpSrv.ListenAndServe()
	}()

	select {
	case <-ctx.Done():
		// Graceful drain: readiness flips first so load balancers stop
		// routing here, then in-flight requests get drainWait to finish.
		slog.Info("r3d: draining", "timeout", *drainWait)
		srv.Drain()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			slog.Warn("r3d: shutdown", "err", err)
		}
		fmt.Println("r3d: drained, exiting")
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	}
}

// loadInputs resolves the topology and traffic matrix from flags.
func loadInputs(name, topoFile, tmFile string, total float64, seed int64) (*graph.Graph, *traffic.Matrix, error) {
	var g *graph.Graph
	var err error
	if topoFile != "" {
		r, ferr := os.Open(topoFile)
		if ferr != nil {
			return nil, nil, ferr
		}
		g, err = topo.Parse(r)
		r.Close()
	} else {
		g, err = topo.ByName(name)
	}
	if err != nil {
		return nil, nil, err
	}
	var d *traffic.Matrix
	if tmFile != "" {
		r, ferr := os.Open(tmFile)
		if ferr != nil {
			return nil, nil, ferr
		}
		d, err = traffic.ParseMatrix(r, g.NumNodes(), g.NodeByName)
		r.Close()
		if err != nil {
			return nil, nil, err
		}
	} else {
		t := total
		if t <= 0 {
			t = 0.15 * g.TotalCapacity()
		}
		d = traffic.Gravity(g, t, seed)
	}
	return g, d, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "r3d:", err)
	os.Exit(1)
}
