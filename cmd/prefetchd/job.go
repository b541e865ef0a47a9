package main

import (
	"bytes"
	"encoding/json"
	"sync"
	"time"

	"prefetchsim"
)

// Job lifecycle states.
const (
	statusQueued    = "queued"
	statusRunning   = "running"
	statusDone      = "done"
	statusFailed    = "failed"
	statusCancelled = "cancelled"
)

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

// ndjson appends v's NDJSON line, newline included, to buf.
func ndjson(buf []byte, v any) []byte {
	return append(append(buf, mustJSON(v)...), '\n')
}

// job is one submitted job's live state. The mutex guards everything
// below it; notify is closed and replaced on every observable change,
// which is what lets any number of stream watchers follow along
// without the job ever blocking on a slow client. The server holds a
// job only until it settles; then it keeps the job's record in its
// history ring, and only the handlers already watching the job still
// reach its payload.
type job struct {
	id      string
	kind    string
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
	// payload is the NDJSON payload emitted so far: exactly the bytes
	// the result cache stores. It is append-only, so a slice of it
	// handed to a watcher is never written again.
	payload []byte
	rows    int // lines in payload
	done    int // simulations finished, of total (0/0 for a cache hit)
	total   int
	wallNS  int64
	errMsg  string
}

func newJob(id, kind, digest string) *job {
	j := &job{
		id: id, kind: kind, digest: digest, created: time.Now(),
		notify: make(chan struct{}), status: statusQueued,
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

// update changes the job under its lock and wakes every watcher.
func (j *job) update(change func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	change()
	close(j.notify)
	j.notify = make(chan struct{})
}

func (j *job) setCache(c string) { j.update(func() { j.cache = c }) }

// enqueued stamps the job's entry into the admission queue.
func (j *job) enqueued() { j.update(func() { j.spans.QueuedUnixNS = time.Now().UnixNano() }) }

// admitted stamps the job winning an execution slot, carrying the
// microsecond wait the server observed into the runner wait histogram.
func (j *job) admitted(waitUS int64) {
	j.update(func() { j.spans.AdmittedUnixNS, j.spans.WaitUS = time.Now().UnixNano(), waitUS })
}

func (j *job) start() {
	j.update(func() {
		j.setStatusLocked(statusRunning)
		j.spans.RunningUnixNS = time.Now().UnixNano()
	})
}

func (j *job) setProgress(done, total int) { j.update(func() { j.done, j.total = done, total }) }

// appendPayload appends newline-terminated NDJSON lines to the payload
// and returns the payload so far, capped so that no later append can
// write into it.
func (j *job) appendPayload(lines []byte) (payload []byte) {
	j.update(func() {
		if j.spans.StreamingUnixNS == 0 {
			j.spans.StreamingUnixNS = time.Now().UnixNano()
		}
		j.payload = append(j.payload, lines...)
		j.rows += bytes.Count(lines, newline)
		payload = j.payload[:len(j.payload):len(j.payload)]
	})
	return payload
}

// finish settles the job to a terminal state. runUS is the
// admitted→settled microsecond value the server observed into the
// runner run histogram (0 for jobs that were never admitted).
func (j *job) finish(status string, wall time.Duration, err error, runUS int64) {
	j.update(func() {
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
	})
}

// completeCached makes the job terminal with the cached payload: born
// done, served from the store, wall = the time the cache read took.
// Its span never queues or runs — submit, streaming and done are the
// only stamps.
func (j *job) completeCached(payload []byte, wall time.Duration) {
	j.update(func() {
		j.cache = "hit"
		j.setStatusLocked(statusDone)
		j.payload, j.rows = payload[:len(payload):len(payload)], bytes.Count(payload, newline)
		j.spans.StreamingUnixNS = time.Now().UnixNano()
		j.spans.DoneUnixNS = j.spans.StreamingUnixNS
		j.wallNS = wall.Nanoseconds()
	})
}

func (j *job) recordLocked() jobRecord {
	return jobRecord{
		ID: j.id, Kind: j.kind, Digest: j.digest, Status: j.status,
		Cache: j.cache, Done: j.done, Total: j.total, Rows: j.rows,
		Error: j.errMsg, CreatedUnixNS: j.created.UnixNano(), WallNS: j.wallNS,
		Spans: j.spans,
	}
}

func (j *job) record() jobRecord {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.recordLocked()
}

// next blocks until the watcher at byte offset off has something new:
// payload bytes past off, or the job reaching a terminal state. The
// bytes are a view of the append-only payload, not a copy; when rec is
// terminal they complete the payload. ok is false when done ended
// first.
func (j *job) next(done <-chan struct{}, off int) (chunk []byte, rec jobRecord, ok bool) {
	for {
		j.mu.Lock()
		if n := len(j.payload); n > off || terminal(j.status) {
			chunk, rec = j.payload[off:n:n], j.recordLocked()
			j.mu.Unlock()
			return chunk, rec, true
		}
		ch := j.notify
		j.mu.Unlock()
		select {
		case <-ch:
		case <-done:
			return nil, jobRecord{}, false
		}
	}
}

var newline = []byte{'\n'}

// historySize is how many settled jobs the server remembers: their
// compact records answer GET /jobs/{id} and replays from the result
// cache; older ids answer 404.
const historySize = 1024

// history is the ring of the most recent settled jobs' records.
// Callers hold the server's mutex.
type history struct {
	recs  [historySize]jobRecord
	added int            // records ever added; the next goes to recs[added%historySize]
	slot  map[string]int // id → index in recs
}

func (h *history) add(rec jobRecord) {
	i := h.added % historySize
	if h.added >= historySize {
		delete(h.slot, h.recs[i].ID)
	}
	if h.slot == nil {
		h.slot = make(map[string]int, historySize)
	}
	h.recs[i], h.slot[rec.ID] = rec, i
	h.added++
}

func (h *history) get(id string) (jobRecord, bool) {
	i, ok := h.slot[id]
	if !ok {
		return jobRecord{}, false
	}
	return h.recs[i], true
}

// len reports how many records the ring holds.
func (h *history) len() int { return min(h.added, historySize) }
