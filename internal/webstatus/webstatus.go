// Package webstatus is the HTTP status/health/telemetry surface shared
// by every serving command: the read-only snapshot endpoint the batch
// commands (figure6, tables, sweep) expose behind their shared -http
// flag (internal/batchcli), and the base cmd/prefetchd mounts its job
// routes on. Beyond
// /status and /healthz, a server can opt into a Prometheus /metrics
// exposition of an obs.Registry, a /readyz readiness probe, and the
// net/http/pprof profiling handlers. The status handler only reads a
// caller-supplied snapshot function, so the work being observed never
// blocks on a slow client.
package webstatus

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync/atomic"
	"time"

	"prefetchsim/internal/obs"
)

// Status is one live snapshot of a running sweep.
type Status struct {
	// Tool is the serving command's name.
	Tool string `json:"tool"`
	// Done and Total count sweep jobs (Total 0 = unknown).
	Done  int `json:"done"`
	Total int `json:"total"`
	// Rows counts result rows emitted so far (the batch commands
	// report jobs done).
	Rows int `json:"rows"`
	// Runs counts recorded per-run manifests (including shared
	// baselines), when a ManifestRecorder is attached.
	Runs int `json:"runs"`
	// Metrics is the current sweep-wide metric-total snapshot.
	Metrics map[string]int64 `json:"metrics,omitempty"`
	// JobSpans aggregates job lifecycle spans per class (cmd/prefetchd
	// keys it by cache disposition: hit, miss, coalesced).
	JobSpans map[string]JobSpanAgg `json:"job_spans,omitempty"`
	// Version and GitSHA identify the serving build (set them from the
	// command's -version value and obs.RepoSHA()).
	Version string `json:"version,omitempty"`
	GitSHA  string `json:"git_sha,omitempty"`
	// StartUnixNS and UptimeNS situate the snapshot in wall time.
	StartUnixNS int64 `json:"start_unix_ns"`
	UptimeNS    int64 `json:"uptime_ns"`
}

// JobSpanAgg sums one class of settled jobs' lifecycle spans. WaitUS
// and RunUS carry the exact values the server's latency histograms
// observed, so class sums reconcile with histogram sums; TotalUS is
// the summed submit→done wall time.
type JobSpanAgg struct {
	Count   int64 `json:"count"`
	WaitUS  int64 `json:"wait_us"`
	RunUS   int64 `json:"run_us"`
	TotalUS int64 `json:"total_us"`
}

// Progress is a tiny atomic (done, total) tracker a command bumps from
// its sweep's Progress callback and the server reads.
type Progress struct {
	done  atomic.Int64
	total atomic.Int64
}

// Set records the latest (done, total) progress callback.
func (p *Progress) Set(done, total int) {
	p.done.Store(int64(done))
	p.total.Store(int64(total))
}

// Snapshot reads the current counters.
func (p *Progress) Snapshot() (done, total int) {
	return int(p.done.Load()), int(p.total.Load())
}

// Server is a running status endpoint.
type Server struct {
	ln    net.Listener
	srv   *http.Server
	start time.Time
}

// Serve starts the endpoint on addr (host:port; port 0 picks a free
// one). fn is called per request to produce the snapshot; it must be
// safe for concurrent use. Routes: "/" and "/status" return the JSON
// snapshot, "/healthz" returns 200 ok.
func Serve(addr string, fn func() Status) (*Server, error) {
	return ServeOpts(addr, fn, Options{})
}

// Options selects the optional surfaces of a status server.
type Options struct {
	// Register mounts extra routes on the server's mux before the
	// listener starts (cmd/prefetchd adds its /jobs API). The snapshot
	// handler also serves "/" unless Register claims a pattern that
	// shadows it.
	Register func(mux *http.ServeMux)
	// Metrics, when non-nil, serves the registry's Prometheus text
	// exposition at /metrics.
	Metrics *obs.Registry
	// OnScrape, when non-nil, runs before each /metrics render, so a
	// server can set the gauges it reads at scrape time (cmd/prefetchd
	// samples its process memory).
	OnScrape func()
	// Ready, when non-nil, backs /readyz: 200 "ok" when ready, 503
	// with the returned reason otherwise. A server is typically ready
	// once its state is loaded and it is not draining. Without Ready,
	// /readyz mirrors /healthz (always ok).
	Ready func() (ok bool, reason string)
	// Pprof mounts the net/http/pprof handlers under /debug/pprof/.
	// Opt-in: profiling endpoints can stall the process (heap dumps,
	// 30-second CPU captures) and belong behind an operator flag.
	Pprof bool
}

// ServeOpts starts the status endpoint on addr with the given optional
// surfaces. Routes: "/" and "/status" (JSON snapshot), "/healthz"
// (liveness, always ok), "/readyz" (readiness via Options.Ready),
// "/metrics" (Prometheus, when a registry is given), "/debug/pprof/*"
// (when enabled), plus whatever Options.Register mounts.
func ServeOpts(addr string, fn func() Status, o Options) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("webstatus: listen %s: %w", addr, err)
	}
	s := &Server{ln: ln, start: time.Now()}
	mux := http.NewServeMux()
	handle := func(w http.ResponseWriter, r *http.Request) {
		st := fn()
		st.StartUnixNS = s.start.UnixNano()
		st.UptimeNS = time.Since(s.start).Nanoseconds()
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(st)
	}
	mux.HandleFunc("/", handle)
	mux.HandleFunc("/status", handle)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if o.Ready != nil {
			if ok, reason := o.Ready(); !ok {
				http.Error(w, reason, http.StatusServiceUnavailable)
				return
			}
		}
		fmt.Fprintln(w, "ok")
	})
	if o.Metrics != nil {
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", obs.PromContentType)
			if o.OnScrape != nil {
				o.OnScrape()
			}
			o.Metrics.WritePrometheus(w)
		})
	}
	if o.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	if o.Register != nil {
		o.Register(mux)
	}
	s.srv = &http.Server{Handler: mux}
	go s.srv.Serve(ln)
	return s, nil
}

// Addr returns the bound address (useful with port 0).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Shutdown gracefully stops the endpoint: the listener closes at once
// (no new connections), in-flight requests run to completion, and only
// when ctx ends are the stragglers cut off. This is the drain step of
// a serving process's shutdown — an abrupt http.Server.Close would
// sever responses mid-body.
func (s *Server) Shutdown(ctx context.Context) error { return s.srv.Shutdown(ctx) }

// CloseTimeout bounds how long Close waits for in-flight requests.
const CloseTimeout = 5 * time.Second

// Close shuts the endpoint down, draining in-flight requests for up to
// CloseTimeout. It is Shutdown with a default bound — the right call
// for CLI defer paths; servers coordinating a wider drain should call
// Shutdown with their own context.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), CloseTimeout)
	defer cancel()
	return s.Shutdown(ctx)
}
