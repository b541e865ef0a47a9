package prefetchsim

import (
	"context"
	"errors"
	"sync"
	"time"

	"prefetchsim/internal/runner"
)

// This file is the public face of the parallel experiment engine
// (internal/runner): independent simulations fan out across worker
// goroutines with submission-ordered results, per-job error capture and
// a singleflight cache for the shared baseline runs that every
// relative-metric sweep repeats per scheme.

// DefaultWorkers is the worker count used when a sweep does not set
// one: GOMAXPROCS.
func DefaultWorkers() int { return runner.DefaultWorkers() }

// RunMany executes every configuration with Run, fanning the
// simulations across up to workers goroutines (0 means DefaultWorkers,
// 1 forces the serial path). Results and errors come back in
// submission order, one slot per configuration; a failed configuration
// occupies its error slot without stopping the rest. progress, when
// non-nil, is called after each simulation with (done, total).
//
// Each simulation is fully isolated — Run builds a fresh machine,
// workload and RNG per call — so a parallel sweep is deterministic: it
// produces exactly the results of running the configurations one by
// one.
func RunMany(cfgs []Config, workers int, progress func(done, total int)) ([]*Result, []error) {
	return runner.Map(context.Background(), workers, cfgs, func(_ context.Context, _ int, c Config) (*Result, error) {
		return Run(c)
	}, progressHook[*Result](progress))
}

// baselineKey identifies one shareable baseline simulation: every
// field of Config that shapes a Baseline run's result. Two sweep jobs
// whose keys are equal may share one simulation; any difference in the
// tuple must produce distinct keys.
type baselineKey struct {
	app      string
	slcBytes int
	slcWays  int
	procs    int
	scale    int
	seed     uint64
	bw       int
	seqCons  bool
	chars    bool
}

// baselineKeyFor derives the cache key for the baseline run that cfg
// (with defaults applied) shares.
func baselineKeyFor(cfg Config) baselineKey {
	cfg = cfg.withDefaults()
	return baselineKey{
		app:      cfg.App,
		slcBytes: cfg.SLCBytes,
		slcWays:  cfg.SLCWays,
		procs:    cfg.Processors,
		scale:    cfg.Scale,
		seed:     cfg.Seed,
		bw:       cfg.BandwidthFactor,
		seqCons:  cfg.SequentialConsistency,
		chars:    cfg.CollectCharacteristics,
	}
}

// baselineCache memoizes baseline runs for the duration of one sweep,
// so the shared baseline per (app, slc, procs, scale, seed, ...) tuple
// executes once instead of once per scheme. Concurrent jobs needing
// the same baseline block on the first one running it (singleflight).
// A failed baseline is not memoized: each scheme that needs it runs it
// again and reports the same error.
type baselineCache struct {
	cache runner.Cache[baselineKey, *Result]
}

// get returns the baseline result for cfg, which must describe a
// Baseline-scheme run (built-in app, no custom Program). The run
// executes through o, so a sweep's manifest recorder sees each shared
// baseline exactly once.
func (b *baselineCache) get(o ExpOptions, cfg Config) (*Result, error) {
	return b.cache.DoCtx(o.ctx(), baselineKeyFor(cfg), func(context.Context) (*Result, error) {
		return o.run(cfg)
	})
}

// ManifestRecorder collects one provenance manifest per simulation a
// sweep executes, in completion order. Attach one with
// ExpOptions.Record; it is safe for concurrent use, so one recorder
// can span a whole parallel sweep (or several sweeps, as the tables
// CLI does). Recording forces metric collection, so every manifest
// carries the run's machine-wide metric totals.
type ManifestRecorder struct {
	mu   sync.Mutex
	runs []Manifest
}

// record appends the manifest of one completed run.
func (r *ManifestRecorder) record(cfg Config, res *Result, wall time.Duration) {
	m := NewManifest(cfg, res, wall)
	r.mu.Lock()
	r.runs = append(r.runs, *m)
	r.mu.Unlock()
}

// Len reports how many runs have completed so far — a live progress
// signal during a sweep.
func (r *ManifestRecorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.runs)
}

// Runs returns a copy of the recorded manifests, in completion order.
func (r *ManifestRecorder) Runs() []Manifest {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Manifest(nil), r.runs...)
}

// Totals sums the metric totals across every recorded run — a live,
// sweep-wide metric snapshot that may be read while the sweep is still
// running.
func (r *ManifestRecorder) Totals() map[string]int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	totals := make(map[string]int64)
	for i := range r.runs {
		for k, v := range r.runs[i].Metrics {
			totals[k] += v
		}
	}
	return totals
}

// Sweep wraps the recorded runs into one sweep manifest for the given
// invocation: the tool name and arguments, the rendered result rows
// (digested so the sweep's output is pinned the way run stats are),
// and the per-run manifests.
func (r *ManifestRecorder) Sweep(tool string, args []string, rows []string, wall time.Duration) *SweepManifest {
	m := &SweepManifest{
		Schema:        ManifestSchemaVersion,
		GoVersion:     goVersion(),
		GitSHA:        gitSHA(),
		CreatedUnixNS: time.Now().UnixNano(),
		Tool:          tool,
		Args:          args,
		WallNS:        wall.Nanoseconds(),
		Rows:          len(rows),
		RowsDigest:    DigestRows(rows),
		Runs:          r.Runs(),
	}
	return m
}

// gather collapses runner.Map's parallel (results, errs) slices into
// the experiment API's ([]Row, error) shape: rows of the successful
// jobs in submission order, plus every failure joined into one error.
// A sweep with one bad configuration still returns the rows of all the
// others.
func gather[R any](results []R, errs []error) ([]R, error) {
	var rows []R
	var bad []error
	for i, err := range errs {
		if err != nil {
			bad = append(bad, err)
			continue
		}
		rows = append(rows, results[i])
	}
	return rows, errors.Join(bad...)
}
