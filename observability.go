package prefetchsim

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"prefetchsim/internal/obs"
)

// Observability re-exports (internal/obs): metric snapshots,
// transaction spans, timelines and per-run provenance manifests. Collection is opt-in per
// Config; the simulation's instruments themselves are always on and
// allocation-free.
type (
	// MetricsSnapshot is a flat, name-sorted rendering of every
	// instrument of a run ("engine.events", "node3.miss.cold", ...).
	MetricsSnapshot = obs.Snapshot
	// MetricSample is one named value of a MetricsSnapshot.
	MetricSample = obs.Sample
	// TraceSummary reports what a run's span ring saw and kept.
	TraceSummary = obs.TraceSummary
	// Manifest is the provenance record of one run.
	Manifest = obs.Manifest
	// SweepManifest aggregates the manifests of one experiment sweep.
	SweepManifest = obs.SweepManifest
	// RunConfig is the manifest's flat view of a Config.
	RunConfig = obs.RunConfig
	// SpanConfig configures transaction-span recording for one run.
	SpanConfig = obs.SpanConfig
	// Span is one completed transaction or stall lifecycle record.
	Span = obs.Span
	// SpanClass classifies a span (miss.cold, prefetch.late, ...).
	SpanClass = obs.SpanClass
	// SpanStats is the exact per-class span aggregate of one run.
	SpanStats = obs.SpanStats
	// SpanClassStats is one class's aggregate within a SpanStats.
	SpanClassStats = obs.SpanClassStats
	// SpanSummary is the manifest view of a span recording.
	SpanSummary = obs.SpanSummary
	// TimelineConfig configures windowed time-series collection.
	TimelineConfig = obs.TimelineConfig
	// TimePoint is one timeline window of instrument deltas.
	TimePoint = obs.TimePoint
	// TimelineSummary is the manifest view of a timeline recording.
	TimelineSummary = obs.TimelineSummary
)

// ManifestSchemaVersion is the manifest document version this build
// writes (and the only one it reads).
const ManifestSchemaVersion = obs.ManifestSchema

// NumSpanClasses bounds per-class span arrays (see SpanClass).
const NumSpanClasses = obs.NumSpanClasses

// Span classes (see the obs package for their exact semantics): the
// read-stall classes (misses, late prefetches, SLC hits), the
// write-stall classes (write buffer, sequential consistency), the
// sync-stall classes (acquire, barrier, release), plus ownership
// transactions and timely prefetches, which charge no stall.
const (
	SpanMissCold        = obs.SpanMissCold
	SpanMissCoherence   = obs.SpanMissCoherence
	SpanMissReplacement = obs.SpanMissReplacement
	SpanWrite           = obs.SpanWrite
	SpanPrefetch        = obs.SpanPrefetch
	SpanPrefetchLate    = obs.SpanPrefetchLate
	SpanSLCHit          = obs.SpanSLCHit
	SpanFLWB            = obs.SpanFLWB
	SpanSCWrite         = obs.SpanSCWrite
	SpanAcquire         = obs.SpanAcquire
	SpanBarrier         = obs.SpanBarrier
	SpanRelease         = obs.SpanRelease
)

// DigestRows is the canonical SHA-256 digest of a sweep's rendered
// result rows (newline-terminated lines, as in StatsDigest).
func DigestRows(rows []string) string { return obs.DigestStrings(rows) }

func goVersion() string { return runtime.Version() }

// gitSHA is the repository revision, memoized process-wide by obs
// (sweeps record one manifest per run, so the .git walk must not
// repeat per row; prefetchd's build info shares the same memo).
func gitSHA() string { return obs.RepoSHA() }

// ReadManifestFile loads a run manifest written by Manifest.WriteFile,
// rejecting unknown schema versions.
func ReadManifestFile(path string) (*Manifest, error) { return obs.ReadManifestFile(path) }

// DecodeManifest parses one run manifest document.
func DecodeManifest(r io.Reader) (*Manifest, error) { return obs.DecodeManifest(r) }

// DecodeSweepManifest parses one sweep manifest document.
func DecodeSweepManifest(r io.Reader) (*SweepManifest, error) { return obs.DecodeSweepManifest(r) }

// StatsLines renders the canonical per-node and machine-wide statistic
// lines of a run — the exact lines StatsDigest hashes. They are the
// byte-stable "rows" of a single simulation: what prefetchd streams
// (and caches) for a single-run job.
func StatsLines(st *Stats) []string {
	lines := make([]string, 0, len(st.Nodes)+1)
	for i := range st.Nodes {
		lines = append(lines, fmt.Sprintf("node%d %+v", i, st.Nodes[i]))
	}
	lines = append(lines, fmt.Sprintf("machine msgs=%d flits=%d flithops=%d exec=%d",
		st.NetMessages, st.NetFlits, st.NetFlitHops, st.ExecTime))
	return lines
}

// StatsDigest renders the canonical SHA-256 digest of every statistic
// of a run — the same per-node line format the golden determinism
// tests pin, so a manifest's digest is directly comparable across
// commits and machines.
func StatsDigest(st *Stats) string {
	return obs.DigestStrings(StatsLines(st))
}

// ConfigDigest is the content address of a configuration: the digest
// of its manifest RunConfig (every scalar knob including the seed).
// Two configs with equal digests produce byte-identical statistics;
// prefetchd's result cache is keyed by it.
func ConfigDigest(cfg Config) string {
	cfg = cfg.withDefaults()
	app := cfg.App
	return cfg.runConfig(app).Digest()
}

// runConfig renders c (already defaulted) as a manifest config record
// for a run of app.
func (c Config) runConfig(app string) RunConfig {
	return RunConfig{
		App:                   app,
		Scheme:                string(c.Scheme),
		Degree:                c.Degree,
		Processors:            c.Processors,
		SLCBytes:              c.SLCBytes,
		SLCWays:               c.SLCWays,
		Scale:                 c.Scale,
		Seed:                  c.Seed,
		SequentialConsistency: c.SequentialConsistency,
		BandwidthFactor:       c.BandwidthFactor,
	}
}

// NewManifest builds the provenance record of a completed run: the
// effective configuration, toolchain and source revision, wall and
// virtual time, the canonical stats digest, and — when the run
// collected them — machine-wide metric totals and the span and timeline
// summaries.
func NewManifest(cfg Config, res *Result, wall time.Duration) *Manifest {
	cfg = cfg.withDefaults()
	// Config.App is the reproducible identifier; a custom Program has
	// none, so its display name stands in.
	app := cfg.App
	if app == "" {
		app = res.App
	}
	rc := cfg.runConfig(app)
	m := &Manifest{
		Schema:        ManifestSchemaVersion,
		GoVersion:     goVersion(),
		GitSHA:        gitSHA(),
		CreatedUnixNS: time.Now().UnixNano(),
		Config:        rc,
		ConfigDigest:  rc.Digest(),
		WallNS:        wall.Nanoseconds(),
		VirtualTime:   int64(res.Stats.ExecTime),
		StatsDigest:   StatsDigest(res.Stats),
	}
	if len(res.Metrics) > 0 {
		m.Metrics = res.Metrics.Totals()
	}
	if res.Spans != nil && res.SpanTrace != nil {
		m.Spans = obs.SummarizeSpanStats(res.Spans, *res.SpanTrace)
	}
	if cfg.Timeline != nil && len(res.Timeline) > 0 {
		m.Timeline = &TimelineSummary{WindowPclocks: cfg.Timeline.Window, Points: len(res.Timeline)}
	}
	return m
}
