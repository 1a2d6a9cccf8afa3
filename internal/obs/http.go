package obs

import (
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"time"
)

// Timeouts of every HTTP server this repository starts (r3d's API and the
// debug server). Without them one client that opens a connection and
// never finishes its request holds a goroutine and a descriptor forever.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 30 * time.Second
	// writeTimeout bounds handler time plus the response write; it must
	// outlast /debug/pprof/profile's default 30 s capture, and pprof
	// refuses a longer ?seconds= up front rather than being cut off.
	writeTimeout = 90 * time.Second
	idleTimeout  = 2 * time.Minute
)

// NewHTTPServer returns an http.Server for handler on addr with the
// repository's read, write and idle timeouts set.
func NewHTTPServer(addr string, handler http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// Handler serves the registry's debug surface:
//
//	/debug/vars     JSON snapshot of every metric and trace
//	/debug/metrics  flat text snapshot
//	/debug/pprof/   the standard pprof index (profile, heap, trace, …)
//
// The registry may be nil — the endpoints then serve empty snapshots
// (pprof still works).
func Handler(reg *Registry) http.Handler {
	mux := http.NewServeMux()
	Attach(mux, reg)
	return mux
}

// Attach registers the debug routes of Handler onto an existing mux, so a
// server with its own API surface (e.g. the planner daemon) can expose
// the same /debug endpoints on one listener.
func Attach(mux *http.ServeMux, reg *Registry) {
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = reg.WriteJSON(w)
	})
	mux.HandleFunc("/debug/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = reg.WriteText(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// StartDebugServer listens on addr and serves Handler(reg) until the
// returned shutdown function is called (or the process exits). It returns
// the bound address, useful with ":0".
func StartDebugServer(addr string, reg *Registry) (bound string, shutdown func(), err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := NewHTTPServer("", Handler(reg))
	go func() {
		if serr := srv.Serve(ln); serr != nil && serr != http.ErrServerClosed {
			slog.Warn("obs: debug server stopped", "err", serr)
		}
	}()
	slog.Info("obs: debug server listening", "addr", ln.Addr().String())
	return ln.Addr().String(), func() { _ = srv.Close() }, nil
}

// WriteTraceFile dumps the registry's span trees (the "traces" section of
// the JSON snapshot) to path, for offline inspection of -trace-out runs.
func WriteTraceFile(path string, reg *Registry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := reg.WriteJSON(f); err != nil {
		return err
	}
	return f.Close()
}

// InitLogging installs the process-wide slog default: structured text on
// stderr, quiet by default (warnings and errors only) so CLI output stays
// clean; verbose enables info-level progress logging.
func InitLogging(verbose bool) {
	lvl := slog.LevelWarn
	if verbose {
		lvl = slog.LevelInfo
	}
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl})))
}
