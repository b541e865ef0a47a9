// Command prefetchd serves the simulator as a long-lived HTTP job
// service: POST a job spec (a single run config or a Figure-6 sweep),
// follow its rows as NDJSON, and repeated submissions of the same spec
// are answered from a persistent content-addressed result cache without
// re-simulating — the simulator is deterministic, so equal spec digests
// mean byte-identical rows.
//
//	prefetchd -http 127.0.0.1:8080 -cache-dir /var/cache/prefetchd
//
// API:
//
//	POST   /jobs            submit a spec; ?stream=1 streams NDJSON
//	GET    /jobs            list live and recently settled jobs
//	GET    /jobs/{id}       one job's record (with lifecycle spans)
//	GET    /jobs/{id}/stream  replay + follow the job's NDJSON
//	DELETE /jobs/{id}       cancel
//	GET    / and /status    the service's JSON status snapshot
//	GET    /healthz         liveness; /readyz: readiness (503 draining)
//	GET    /metrics         Prometheus text exposition
//
// Any other path answers 404, and a known path with the wrong method
// 405.
//
// The server remembers live jobs and the 1,024 most recent settled
// ones; a settled job keeps only its record, and a replay reads its
// payload from the result cache (or reports it evicted).
//
// Operational logs are structured (JSON on stderr, level via
// -log-level); the protocol lines the smoke script parses stay on
// stdout. -pprof mounts net/http/pprof under /debug/pprof/.
//
// SIGINT/SIGTERM drains: /readyz flips to 503, new submissions get
// 503, in-flight jobs get -drain-timeout to finish (then are
// cancelled), the cache index is persisted, and only then does the
// listener close.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"prefetchsim/internal/obs"
	"prefetchsim/internal/resultcache"
)

// version identifies the build; override with
//
//	go build -ldflags "-X main.version=v1.2.3" ./cmd/prefetchd
var version = "dev"

func main() {
	var (
		httpAddr = flag.String("http", "127.0.0.1:8080", "listen address (host:port, port 0 = ephemeral)")
		cacheDir = flag.String("cache-dir", "prefetchd-cache", "result cache directory")
		cacheMax = flag.Int64("cache-max-bytes", 256<<20, "result cache size budget in bytes")
		maxJobs  = flag.Int("max-jobs", 2, "jobs computing concurrently (queued beyond that)")
		workers  = flag.Int("j", 0, "simulation workers per job (0 = GOMAXPROCS)")
		drainT   = flag.Duration("drain-timeout", 30*time.Second, "shutdown: grace for in-flight jobs before cancelling them")
		pprofOn  = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		logLevel = flag.String("log-level", "info", "structured log level: debug, info, warn, error")
		showVer  = flag.Bool("version", false, "print version and git SHA, then exit")
	)
	flag.Parse()

	sha := obs.RepoSHA()
	if *showVer {
		fmt.Printf("prefetchd %s %s\n", version, sha)
		return
	}

	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(os.Stderr, "prefetchd: bad -log-level %q: %v\n", *logLevel, err)
		os.Exit(2)
	}
	logger := slog.New(slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: lvl}))

	store, err := resultcache.Open(*cacheDir, *cacheMax)
	if err != nil {
		logger.Error("open cache", "dir", *cacheDir, "err", err)
		os.Exit(1)
	}
	s := newServer(store, *workers, *maxJobs)
	s.log = logger
	s.version = version
	s.sha = sha

	srv, err := listen(*httpAddr, s, *pprofOn)
	if err != nil {
		logger.Error("listen", "addr", *httpAddr, "err", err)
		os.Exit(1)
	}
	// The smoke script and tests parse this line for the bound address
	// (meaningful with -http :0).
	fmt.Printf("prefetchd: serving on http://%s\n", srv.Addr)
	logger.Info("serving", "addr", srv.Addr, "version", version,
		"git_sha", sha, "pprof", *pprofOn, "max_jobs", *maxJobs)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("prefetchd: draining")
	logger.Info("draining", "timeout", drainT.String())

	// Drain order: stop admitting jobs and settle the in-flight ones,
	// close the listener gracefully (in-flight status requests finish),
	// then persist the cache index.
	s.drain(*drainT)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	if err := srv.Shutdown(ctx); err != nil {
		logger.Warn("http shutdown", "err", err)
	}
	cancel()
	if err := store.Close(); err != nil {
		logger.Warn("close cache", "err", err)
	}
	fmt.Println("prefetchd: stopped")
}
