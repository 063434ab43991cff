package telemetry

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"phish/internal/trace"
)

// Server is the opt-in telemetry HTTP endpoint a daemon runs when started
// with -metrics. It serves /metrics (Prometheus text), /metrics.json,
// /healthz, /debug/trace, and the Go profiler under /debug/pprof/, plus
// any extra handlers the daemon mounts (the clearinghouse adds
// /cluster.json for phishtop).
type Server struct {
	ln  net.Listener
	mux *http.ServeMux
	srv *http.Server
}

// NewServer listens on addr (e.g. ":9090") and starts serving; use
// Handle to mount endpoints. Addr() reports the bound address (useful
// with ":0" in tests).
func NewServer(addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	s := &Server{ln: ln, mux: http.NewServeMux()}
	s.mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	// CPU, heap, goroutine and block profiles of the live daemon:
	// go tool pprof http://ADDR/debug/pprof/profile?seconds=10
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.srv = &http.Server{Handler: s.mux, ReadHeaderTimeout: 5 * time.Second}
	go s.srv.Serve(ln) //nolint:errcheck // closes with ErrServerClosed on shutdown
	return s, nil
}

// Handle mounts h at pattern.
func (s *Server) Handle(pattern string, h http.Handler) { s.mux.Handle(pattern, h) }

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server.
func (s *Server) Close() error { return s.srv.Close() }

// MetricsHandler serves a registry as Prometheus text exposition.
func MetricsHandler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WriteProm(w) //nolint:errcheck // client gone mid-write
	})
}

// JSONHandler serves a registry as a JSON snapshot.
func JSONHandler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		r.WriteJSON(w) //nolint:errcheck
	})
}

// TraceHandler renders a trace ring's current timeline as text, headed by
// the ring's loss accounting so a truncated timeline never masquerades as
// a complete one.
func TraceHandler(b *trace.Buffer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "# %d event(s) recorded, %d dropped (ring overwrote them unread)\n",
			b.Total(), b.Dropped())
		fmt.Fprint(w, trace.Render(b.Events()))
	})
}

// ClusterMetricsHandler serves a cluster rollup (re-assembled per scrape)
// as Prometheus text exposition. The clearinghouse mounts this at /metrics
// so one scrape covers the whole job.
func ClusterMetricsHandler(snap func() ClusterSnapshot) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WriteClusterProm(w, snap()) //nolint:errcheck // client gone mid-write
	})
}

// ClusterMetricsWithProcessHandler serves the cluster rollup followed by
// a process-local registry (build info, Go runtime health) in one text
// exposition. The two must expose disjoint metric families.
func ClusterMetricsWithProcessHandler(snap func() ClusterSnapshot, reg *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WriteClusterProm(w, snap()) //nolint:errcheck // client gone mid-write
		reg.WriteProm(w)            //nolint:errcheck
	})
}

// ClusterJSONHandler serves a cluster rollup as JSON — what phishtop polls.
func ClusterJSONHandler(snap func() ClusterSnapshot) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(snap()) //nolint:errcheck
	})
}

// Serve is the one-call setup used by the daemons: listen on addr and
// mount the standard endpoints for reg and tr (either may be nil, which
// skips its endpoints).
func Serve(addr string, reg *Registry, tr *trace.Buffer) (*Server, error) {
	s, err := NewServer(addr)
	if err != nil {
		return nil, err
	}
	if reg != nil {
		s.Handle("/metrics", MetricsHandler(reg))
		s.Handle("/metrics.json", JSONHandler(reg))
	}
	if tr != nil {
		s.Handle("/debug/trace", TraceHandler(tr))
		if reg != nil {
			RegisterTraceRing(reg, tr)
		}
	}
	return s, nil
}

// RegisterTraceRing exposes a trace ring's volume and loss counters on a
// registry, so scrapes notice when the ring outruns its readers.
func RegisterTraceRing(reg *Registry, tr *trace.Buffer) {
	reg.CounterFunc("phish_trace_events_total",
		"Scheduling events ever recorded into the trace ring.",
		func() int64 { return int64(tr.Total()) })
	reg.CounterFunc("phish_trace_events_dropped_total",
		"Trace ring events overwritten before being read.",
		func() int64 { return int64(tr.Dropped()) })
}
