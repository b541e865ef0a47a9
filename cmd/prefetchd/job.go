package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"prefetchsim"
)

// Job kinds: a single simulation or a Figure-6 sweep.
const (
	kindRun  = "run"
	kindFig6 = "figure6"
)

// Job lifecycle states.
const (
	statusQueued    = "queued"
	statusRunning   = "running"
	statusDone      = "done"
	statusFailed    = "failed"
	statusCancelled = "cancelled"
)

// jobSpec is the POSTed description of one job: either a single
// simulation (kind "run", via the manifest's flat RunConfig) or a
// Figure-6 sweep (kind "figure6"). The normalized spec — defaults
// applied — is the unit the result cache keys on, so equivalent
// spellings of the same job share one cache entry.
type jobSpec struct {
	Kind string `json:"kind,omitempty"`

	// Single-run jobs.
	Config *prefetchsim.RunConfig `json:"config,omitempty"`
	// Spans adds the per-class span aggregate to a run job's payload.
	Spans bool `json:"spans,omitempty"`

	// Figure-6 sweep jobs.
	Apps    []string `json:"apps,omitempty"`
	Schemes []string `json:"schemes,omitempty"`
	Procs   int      `json:"procs,omitempty"`
	Scale   int      `json:"scale,omitempty"`
	Seed    uint64   `json:"seed,omitempty"`
	Finite  bool     `json:"finite,omitempty"`

	// Metrics adds machine-wide metric totals to the payload (both
	// kinds).
	Metrics bool `json:"metrics,omitempty"`
}

// decodeSpec reads one POSTed job spec. Unknown fields are an error,
// so a misspelled option is rejected instead of silently defaulted.
func decodeSpec(r io.Reader) (jobSpec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var spec jobSpec
	if err := dec.Decode(&spec); err != nil {
		return spec, fmt.Errorf("decode job spec: %w", err)
	}
	return spec, nil
}

// normalize validates the spec and applies the simulator's defaults,
// so the digest of two equivalent submissions collides.
func (s jobSpec) normalize() (jobSpec, error) {
	if s.Kind == "" {
		switch {
		case s.Config != nil:
			s.Kind = kindRun
		case len(s.Apps) > 0 || len(s.Schemes) > 0:
			s.Kind = kindFig6
		default:
			return s, fmt.Errorf("empty job spec: set kind, config or apps")
		}
	}
	switch s.Kind {
	case kindRun:
		if s.Config == nil {
			return s, fmt.Errorf("run job needs a config")
		}
		if len(s.Apps) > 0 || len(s.Schemes) > 0 || s.Procs != 0 || s.Scale != 0 || s.Seed != 0 || s.Finite {
			return s, fmt.Errorf("run job: sweep fields (apps/schemes/procs/scale/seed/finite) belong in config")
		}
		c := *s.Config
		if c.App == "" {
			return s, fmt.Errorf("run job: config.app is required")
		}
		if c.Scheme == "" {
			c.Scheme = string(prefetchsim.Baseline)
		}
		if c.Degree == 0 {
			c.Degree = 1
		}
		if c.Processors == 0 {
			c.Processors = 16
		}
		if c.Scale == 0 {
			c.Scale = 1
		}
		s.Config = &c
	case kindFig6:
		if s.Config != nil || s.Spans {
			return s, fmt.Errorf("figure6 job: config/spans are run-job fields")
		}
		if len(s.Apps) == 0 {
			s.Apps = prefetchsim.Apps()
		}
		if len(s.Schemes) == 0 {
			for _, sc := range prefetchsim.Schemes() {
				s.Schemes = append(s.Schemes, string(sc))
			}
		}
		if s.Procs == 0 {
			s.Procs = 16
		}
		if s.Scale == 0 {
			s.Scale = 1
		}
	default:
		return s, fmt.Errorf("unknown job kind %q", s.Kind)
	}
	return s, nil
}

// digest is the normalized spec's content address — the result-cache
// key. Run jobs lead with the manifest's config+seed digest (the same
// address obs manifests record), suffixed with the payload options;
// sweeps hash the whole normalized spec.
func (s jobSpec) digest() string {
	if s.Kind == kindRun {
		d := "run-" + s.Config.Digest()
		if s.Metrics {
			d += "-m"
		}
		if s.Spans {
			d += "-s"
		}
		return d
	}
	buf, err := json.Marshal(s)
	if err != nil {
		panic("prefetchd: marshal jobSpec: " + err.Error())
	}
	sum := sha256.Sum256(buf)
	return "fig6-" + hex.EncodeToString(sum[:])
}

// totalSims is the job's progress denominator (sweep baselines are
// cached per app, so they are not counted as separate progress units).
func (s jobSpec) totalSims() int {
	if s.Kind == kindRun {
		return 1
	}
	return len(s.Apps) * len(s.Schemes)
}

// jobSpans is one job's lifecycle span record: the wall-clock stamp of
// every state the job passed through, mirroring the simulator's
// per-hop transaction spans (issue/req/home/...) at the service layer.
// Zero stamps mean the job never reached that state (a cache hit is
// born terminal and never queues; a job cancelled in the queue never
// runs). WaitUS and RunUS carry the exact microsecond values the
// server observed into the runner latency histograms, so per-class
// sums over job spans reconcile with those histograms by construction.
type jobSpans struct {
	// SubmitUnixNS is when the server accepted the spec.
	SubmitUnixNS int64 `json:"submit_unix_ns"`
	// QueuedUnixNS is when the job entered the admission queue.
	QueuedUnixNS int64 `json:"queued_unix_ns,omitempty"`
	// AdmittedUnixNS is when the job won an execution slot.
	AdmittedUnixNS int64 `json:"admitted_unix_ns,omitempty"`
	// RunningUnixNS is when computation (or coalescing) began.
	RunningUnixNS int64 `json:"running_unix_ns,omitempty"`
	// StreamingUnixNS is when the first payload line landed.
	StreamingUnixNS int64 `json:"streaming_unix_ns,omitempty"`
	// DoneUnixNS is when the job settled to a terminal state.
	DoneUnixNS int64 `json:"done_unix_ns,omitempty"`
	// WaitUS is the queued→admitted latency in microseconds — the
	// value observed into the runner wait histogram (0 for jobs that
	// never queued).
	WaitUS int64 `json:"wait_us"`
	// RunUS is the admitted→settled latency in microseconds — the
	// value observed into the runner run histogram.
	RunUS int64 `json:"run_us"`
}

// jobRecord is the JSON view of a job's state.
type jobRecord struct {
	ID            string   `json:"id"`
	Kind          string   `json:"kind"`
	Digest        string   `json:"digest"`
	Status        string   `json:"status"`
	Cache         string   `json:"cache,omitempty"` // hit, miss, coalesced
	Done          int      `json:"done"`
	Total         int      `json:"total"`
	Rows          int      `json:"rows"`
	Error         string   `json:"error,omitempty"`
	CreatedUnixNS int64    `json:"created_unix_ns"`
	WallNS        int64    `json:"wall_ns,omitempty"`
	Spans         jobSpans `json:"spans"`
}

func terminal(status string) bool {
	return status == statusDone || status == statusFailed || status == statusCancelled
}

// The NDJSON line shapes. Row, metrics, spans and result lines are the
// cached payload — everything in them is deterministic for a given
// spec, which is what makes a cache hit byte-identical to the first
// run. Job and done lines frame the stream per request and carry the
// per-request facts (id, cache disposition, wall time).
type jobLine struct {
	Type string `json:"type"` // "job"
	jobRecord
}

type rowLine struct {
	Type  string `json:"type"` // "row"
	I     int    `json:"i"`
	Total int    `json:"total"`
	Text  string `json:"text"`
}

type metricsLine struct {
	Type   string           `json:"type"` // "metrics"
	Totals map[string]int64 `json:"totals"`
}

type spansLine struct {
	Type    string                   `json:"type"` // "spans"
	Summary *prefetchsim.SpanSummary `json:"summary"`
}

type resultLine struct {
	Type         string `json:"type"` // "result"
	Kind         string `json:"kind"`
	Rows         int    `json:"rows"`
	RowsDigest   string `json:"rows_digest"`
	StatsDigest  string `json:"stats_digest,omitempty"`  // run jobs
	ConfigDigest string `json:"config_digest,omitempty"` // run jobs
	VirtualTime  int64  `json:"virtual_time,omitempty"`  // run jobs
}

type doneLine struct {
	Type   string `json:"type"` // "done"
	Status string `json:"status"`
	Cache  string `json:"cache,omitempty"`
	Rows   int    `json:"rows"`
	WallNS int64  `json:"wall_ns"`
	Error  string `json:"error,omitempty"`
}

// mustJSON marshals one NDJSON line (no trailing newline). The line
// structs contain nothing unmarshalable.
func mustJSON(v any) []byte {
	buf, err := json.Marshal(v)
	if err != nil {
		panic("prefetchd: marshal line: " + err.Error())
	}
	return buf
}

// joinLines renders payload lines as the cached byte blob; splitLines
// inverts it. The blob is newline-terminated NDJSON, so the cached
// bytes are exactly what streams to the client.
func joinLines(lines [][]byte) []byte {
	var buf bytes.Buffer
	for _, l := range lines {
		buf.Write(l)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

func splitLines(data []byte) [][]byte {
	var lines [][]byte
	for _, l := range bytes.Split(data, []byte{'\n'}) {
		if len(l) > 0 {
			lines = append(lines, l)
		}
	}
	return lines
}

// job is one submitted job's live state. The mutex guards everything
// below it; notify is closed and replaced on every observable change,
// which is what lets any number of stream/SSE watchers follow along
// without the job ever blocking on a slow client.
type job struct {
	id      string
	spec    jobSpec
	digest  string
	created time.Time
	cancel  func() // nil for jobs born terminal (cache hits)

	// onState, when set (before the job is shared), observes every
	// status transition as (old, new); the server mirrors it into its
	// jobs-by-state gauges. Called under j.mu: it must only touch
	// atomics.
	onState func(old, new string)

	mu     sync.Mutex
	notify chan struct{}
	status string
	cache  string
	spans  jobSpans
	lines  [][]byte // payload lines emitted so far
	done   int
	total  int
	wallNS int64
	errMsg string
}

func newJob(id string, spec jobSpec, digest string) *job {
	j := &job{
		id: id, spec: spec, digest: digest, created: time.Now(),
		notify: make(chan struct{}), status: statusQueued,
		total: spec.totalSims(),
	}
	j.spans.SubmitUnixNS = j.created.UnixNano()
	return j
}

// setStatusLocked transitions the job's state, notifying the state
// observer. Callers hold j.mu.
func (j *job) setStatusLocked(st string) {
	if st == j.status {
		return
	}
	if j.onState != nil {
		j.onState(j.status, st)
	}
	j.status = st
}

// signalLocked wakes every watcher. Callers hold j.mu.
func (j *job) signalLocked() {
	close(j.notify)
	j.notify = make(chan struct{})
}

func (j *job) setCache(c string) {
	j.mu.Lock()
	j.cache = c
	j.signalLocked()
	j.mu.Unlock()
}

// enqueued stamps the job's entry into the admission queue.
func (j *job) enqueued() {
	j.mu.Lock()
	j.spans.QueuedUnixNS = time.Now().UnixNano()
	j.signalLocked()
	j.mu.Unlock()
}

// admitted stamps the job winning an execution slot, carrying the
// microsecond wait the server observed into the runner wait histogram.
func (j *job) admitted(waitUS int64) {
	j.mu.Lock()
	j.spans.AdmittedUnixNS = time.Now().UnixNano()
	j.spans.WaitUS = waitUS
	j.signalLocked()
	j.mu.Unlock()
}

func (j *job) start() {
	j.mu.Lock()
	j.setStatusLocked(statusRunning)
	j.spans.RunningUnixNS = time.Now().UnixNano()
	j.signalLocked()
	j.mu.Unlock()
}

func (j *job) setProgress(done, total int) {
	j.mu.Lock()
	j.done, j.total = done, total
	j.signalLocked()
	j.mu.Unlock()
}

func (j *job) appendPayload(lines ...[]byte) {
	if len(lines) == 0 {
		return
	}
	j.mu.Lock()
	if j.spans.StreamingUnixNS == 0 {
		j.spans.StreamingUnixNS = time.Now().UnixNano()
	}
	j.lines = append(j.lines, lines...)
	j.signalLocked()
	j.mu.Unlock()
}

// finish settles the job to a terminal state. runUS is the
// admitted→settled microsecond value the server observed into the
// runner run histogram (0 for jobs that were never admitted).
func (j *job) finish(status string, wall time.Duration, err error, runUS int64) {
	j.mu.Lock()
	j.setStatusLocked(status)
	j.spans.DoneUnixNS = time.Now().UnixNano()
	j.spans.RunUS = runUS
	j.wallNS = wall.Nanoseconds()
	if err != nil {
		j.errMsg = err.Error()
	}
	if status == statusDone {
		j.done = j.total
	}
	j.signalLocked()
	j.mu.Unlock()
}

// completeCached makes the job terminal with the cached payload: born
// done, served from the store, wall = the time the cache read took.
// Its span never queues or runs — submit, streaming and done are the
// only stamps.
func (j *job) completeCached(payload []byte, wall time.Duration) {
	j.mu.Lock()
	j.cache = "hit"
	j.setStatusLocked(statusDone)
	j.lines = splitLines(payload)
	now := time.Now().UnixNano()
	j.spans.StreamingUnixNS = now
	j.spans.DoneUnixNS = now
	j.done = j.total
	j.wallNS = wall.Nanoseconds()
	j.signalLocked()
	j.mu.Unlock()
}

func (j *job) recordLocked() jobRecord {
	return jobRecord{
		ID: j.id, Kind: j.spec.Kind, Digest: j.digest, Status: j.status,
		Cache: j.cache, Done: j.done, Total: j.total, Rows: len(j.lines),
		Error: j.errMsg, CreatedUnixNS: j.created.UnixNano(), WallNS: j.wallNS,
		Spans: j.spans,
	}
}

func (j *job) record() jobRecord {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.recordLocked()
}

// next blocks until the watcher at offset seen has something new:
// payload lines past seen, or the job reaching a terminal state. ok is
// false when done ended first. When finished is true the returned
// lines complete the payload.
func (j *job) next(done <-chan struct{}, seen int) (lines [][]byte, rec jobRecord, finished, ok bool) {
	for {
		j.mu.Lock()
		if len(j.lines) > seen {
			out := make([][]byte, len(j.lines)-seen)
			copy(out, j.lines[seen:])
			rec = j.recordLocked()
			fin := terminal(j.status)
			j.mu.Unlock()
			return out, rec, fin, true
		}
		if terminal(j.status) {
			rec = j.recordLocked()
			j.mu.Unlock()
			return nil, rec, true, true
		}
		ch := j.notify
		j.mu.Unlock()
		select {
		case <-ch:
		case <-done:
			return nil, jobRecord{}, false, false
		}
	}
}
