package main

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"maps"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"prefetchsim"
	"prefetchsim/internal/obs"
	"prefetchsim/internal/resultcache"
	"prefetchsim/internal/runner"
)

// server owns the live-job table, the history of settled jobs, the
// admission semaphore, the in-flight dedup and the persistent result
// cache. Request handlers only read and enqueue; simulations run on
// per-job goroutines accounted by wg so shutdown can drain them. Its
// memory is bounded by the live jobs and the fixed history: a settled
// job keeps only its record, and its payload lives in the result
// cache.
type server struct {
	store   *resultcache.Store
	workers int           // simulation workers per job
	sem     chan struct{} // admission: at most cap(sem) jobs computing
	start   time.Time
	log     *slog.Logger

	version, sha string // build info surfaced on /status

	// reg binds every serving-path instrument; /metrics serves its
	// Prometheus exposition.
	reg *obs.Registry
	// rm instruments the admission pipeline: queue depth, in-flight,
	// and the wait/run latency histograms job spans reconcile against.
	rm *runner.Metrics
	// cm mirrors the result cache's state (hit/miss/eviction counters,
	// object and byte gauges).
	cm resultcache.Metrics

	// jobState holds one gauge per lifecycle state; job.onState moves
	// each job between them on every status transition.
	jobState map[string]*obs.AtomicGauge
	// rejected counts submissions refused while draining; badSpec
	// counts specs that failed to decode or normalize.
	rejected, badSpec *obs.AtomicCounter
	// streamRows and streamBytes count NDJSON lines (and bytes) written
	// to streaming clients; sseSubs gauges live /events watchers.
	streamRows, streamBytes *obs.AtomicCounter
	sseSubs                 *obs.AtomicGauge
	// retained gauges the jobs the server remembers: live jobs plus
	// the history ring. rss and heap are the process's resident set and
	// Go heap in use, sampled at every /metrics scrape.
	retained, rss, heap *obs.AtomicGauge

	// Submission-level cache dispositions (distinct from the store's
	// own counters: a coalesced job never touches the store).
	hits, misses, coalesced *obs.AtomicCounter

	// flight dedups concurrent identical submissions: the first owns
	// the computation, the rest share its payload. Keys are forgotten
	// once the payload is durably in store, so flight never grows.
	flight runner.Cache[string, []byte]

	mu       sync.Mutex
	jobs     map[string]*job // live jobs: accepted and not yet settled
	settled  history         // records of the most recent settled jobs
	seq      int             // jobs ever accepted
	rows     int             // payload lines of every job ever settled
	draining bool

	wg sync.WaitGroup // in-flight job goroutines

	// aggMu guards agg, the per-class (cache disposition) span
	// aggregate folded in as jobs settle.
	aggMu sync.Mutex
	agg   map[string]jobSpanAgg
}

// status is the /status snapshot of the service.
type status struct {
	// Tool is always "prefetchd".
	Tool string `json:"tool"`
	// Done counts jobs settled, Total jobs accepted and Rows the
	// payload lines of every settled job.
	Done  int `json:"done"`
	Total int `json:"total"`
	Rows  int `json:"rows"`
	// Runs is always 0; it stays so the snapshot's bytes keep their
	// shape.
	Runs int `json:"runs"`
	// Metrics holds job counts by state and the cache counters.
	Metrics map[string]int64 `json:"metrics,omitempty"`
	// JobSpans aggregates settled jobs' lifecycle spans per cache
	// disposition: hit, miss, coalesced.
	JobSpans map[string]jobSpanAgg `json:"job_spans,omitempty"`
	// Version and GitSHA identify the serving build.
	Version string `json:"version,omitempty"`
	GitSHA  string `json:"git_sha,omitempty"`
	// StartUnixNS and UptimeNS situate the snapshot in wall time.
	StartUnixNS int64 `json:"start_unix_ns"`
	UptimeNS    int64 `json:"uptime_ns"`
}

// jobSpanAgg sums one cache class's settled jobs' lifecycle spans.
// WaitUS and RunUS sum the exact values the runner histograms observed,
// so class sums reconcile with those histograms by construction;
// TotalUS is the summed submit→done wall time.
type jobSpanAgg struct {
	Count   int64 `json:"count"`
	WaitUS  int64 `json:"wait_us"`
	RunUS   int64 `json:"run_us"`
	TotalUS int64 `json:"total_us"`
}

func newServer(store *resultcache.Store, workers, maxJobs int) *server {
	if maxJobs < 1 {
		maxJobs = 1
	}
	reg := obs.NewRegistry()
	s := &server{
		store:   store,
		workers: workers,
		sem:     make(chan struct{}, maxJobs),
		start:   time.Now(),
		log:     slog.New(slog.NewTextHandler(io.Discard, nil)),
		reg:     reg,
		rm:      new(runner.Metrics),
		jobs:    make(map[string]*job),
		agg:     make(map[string]jobSpanAgg),
	}
	s.rm.Bind(reg, "runner")
	s.cm.Bind(reg, "resultcache")
	store.Instrument(&s.cm)
	s.jobState = make(map[string]*obs.AtomicGauge)
	for _, st := range []string{statusQueued, statusRunning, statusDone, statusFailed, statusCancelled} {
		s.jobState[st] = reg.AtomicGauge("jobs." + st)
	}
	s.rejected = reg.AtomicCounter("jobs.rejected")
	s.badSpec = reg.AtomicCounter("jobs.spec.invalid")
	s.streamRows = reg.AtomicCounter("stream.rows")
	s.streamBytes = reg.AtomicCounter("stream.bytes")
	s.sseSubs = reg.AtomicGauge("sse.subscribers")
	s.retained = reg.AtomicGauge("jobs.retained")
	s.rss = reg.AtomicGauge("process.resident_memory_bytes")
	s.heap = reg.AtomicGauge("go.heap_inuse_bytes")
	s.hits = reg.AtomicCounter("jobs.cache.hits")
	s.misses = reg.AtomicCounter("jobs.cache.misses")
	s.coalesced = reg.AtomicCounter("jobs.cache.coalesced")
	return s
}

// errDraining rejects submissions during shutdown.
var errDraining = errors.New("server is draining")

// onJobState mirrors a job's status transition into the per-state
// gauges. Called under j.mu — it only touches atomics.
func (s *server) onJobState(old, new string) {
	if g := s.jobState[old]; g != nil {
		g.Add(-1)
	}
	if g := s.jobState[new]; g != nil {
		g.Add(1)
	}
}

// submit registers a normalized spec as a job. A cache hit is born
// terminal with the stored payload and goes straight to the history; a
// miss joins the live jobs and starts computing on its own goroutine.
func (s *server) submit(spec prefetchsim.Spec) (*job, error) {
	digest := spec.Digest()
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, errDraining
	}
	s.seq++
	j := newJob(fmt.Sprintf("j%d", s.seq), spec.Kind, digest)
	j.onState = s.onJobState
	s.jobState[statusQueued].Add(1)

	readStart := time.Now()
	payload, hit := s.store.Get(digest)
	if hit {
		s.hits.Inc()
		j.completeCached(payload, time.Since(readStart))
		rec := j.record()
		s.retireLocked(rec)
		s.mu.Unlock()
		s.log.Info("job submitted", "job", j.id, "kind", spec.Kind, "digest", digest)
		s.recordSettled(rec)
		return j, nil
	}
	s.jobs[j.id] = j
	s.retained.Set(int64(len(s.jobs) + s.settled.len()))
	s.misses.Inc()
	ctx, cancel := context.WithCancel(context.Background())
	j.cancel = cancel
	s.wg.Add(1)
	s.mu.Unlock()

	s.log.Info("job submitted", "job", j.id, "kind", spec.Kind, "digest", digest)
	j.setCache("miss")
	s.rm.Enqueue()
	j.enqueued()
	go s.runJob(ctx, j, spec, time.Now())
	return j, nil
}

// runJob takes the job through admission, computes (or coalesces onto
// an identical in-flight computation), persists the payload and
// settles the job's terminal state. enq anchors the queue-wait
// measurement.
func (s *server) runJob(ctx context.Context, j *job, spec prefetchsim.Spec, enq time.Time) {
	defer s.wg.Done()
	defer j.cancel()

	select {
	case s.sem <- struct{}{}:
		defer func() { <-s.sem }()
	case <-ctx.Done():
		// Cancelled while queued: the job leaves the queue without
		// admission, so the wait histogram never sees it.
		s.rm.Abandon()
		s.settle(j, statusCancelled, 0, ctx.Err(), 0)
		return
	}
	waitUS := s.rm.Admit(time.Since(enq))
	j.admitted(waitUS)
	if err := ctx.Err(); err != nil {
		s.settle(j, statusCancelled, 0, err, s.rm.Finish(0, false))
		return
	}

	j.start()
	start := time.Now()
	owned := false
	payload, err := s.flight.DoCtx(ctx, j.digest, func(ctx context.Context) ([]byte, error) {
		owned = true
		return s.compute(ctx, j, spec)
	})
	wall := time.Since(start)
	switch {
	case err == nil:
		if owned {
			if perr := s.store.Put(j.digest, payload); perr != nil {
				s.log.Warn("cache put failed", "digest", j.digest, "err", perr)
			}
			s.flight.Forget(j.digest)
		} else {
			// Coalesced onto another job's computation: the payload
			// arrives whole, not streamed row by row.
			s.coalesced.Inc()
			j.setCache("coalesced")
			j.appendPayload(payload)
		}
		s.settle(j, statusDone, wall, nil, s.rm.Finish(wall, true))
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		s.settle(j, statusCancelled, wall, err, s.rm.Finish(wall, false))
	default:
		s.settle(j, statusFailed, wall, err, s.rm.Finish(wall, false))
	}
}

// settle drives the job terminal, moves it from the live jobs to the
// history and folds its span into the per-class aggregate. runUS is
// the value Finish observed into the run histogram (0 when the job was
// never admitted) — passing the identical value into the span record
// is what makes the aggregate reconcile with the histograms exactly.
func (s *server) settle(j *job, status string, wall time.Duration, err error, runUS int64) {
	j.finish(status, wall, err, runUS)
	rec := j.record()
	s.mu.Lock()
	s.retireLocked(rec)
	s.mu.Unlock()
	s.recordSettled(rec)
}

// retireLocked forgets a settled job but for its record, which joins
// the history. Callers hold s.mu.
func (s *server) retireLocked(rec jobRecord) {
	delete(s.jobs, rec.ID)
	s.settled.add(rec)
	s.rows += rec.Rows
	s.retained.Set(int64(len(s.jobs) + s.settled.len()))
}

// recordSettled folds a settled job's span into the per-class
// aggregate (keyed by cache disposition) and emits the settle log line.
func (s *server) recordSettled(rec jobRecord) {
	class := rec.Cache
	if class == "" {
		class = "miss"
	}
	totalUS := (rec.Spans.DoneUnixNS - rec.Spans.SubmitUnixNS) / 1000
	s.aggMu.Lock()
	a := s.agg[class]
	a.Count++
	a.WaitUS += rec.Spans.WaitUS
	a.RunUS += rec.Spans.RunUS
	a.TotalUS += totalUS
	s.agg[class] = a
	s.aggMu.Unlock()
	s.log.Info("job settled",
		"job", rec.ID, "kind", rec.Kind, "digest", rec.Digest,
		"status", rec.Status, "cache", class, "rows", rec.Rows,
		"wait_us", rec.Spans.WaitUS, "run_us", rec.Spans.RunUS,
		"wall_ns", rec.WallNS, "err", rec.Error)
}

// spanAggs snapshots the per-class span aggregate for /status.
func (s *server) spanAggs() map[string]jobSpanAgg {
	s.aggMu.Lock()
	defer s.aggMu.Unlock()
	return maps.Clone(s.agg)
}

// compute executes spec and returns the deterministic payload blob,
// streaming each payload line into j as it is produced. Rows stream in
// submission order, so the live stream is byte-identical to the cached
// payload however many workers race.
func (s *server) compute(ctx context.Context, j *job, spec prefetchsim.Spec) ([]byte, error) {
	// The recorder's manifests carry the metric totals and a run's
	// result-line digests.
	rec := new(prefetchsim.ManifestRecorder)
	opt := prefetchsim.ExpOptions{Ctx: ctx, Workers: s.workers, Progress: j.setProgress, Record: rec}
	var texts []string
	err := spec.Execute(opt, func(i, total int, row fmt.Stringer) {
		text := row.String()
		texts = append(texts, text)
		j.appendPayload(ndjson(nil, rowLine{Type: "row", I: i, Total: total, Text: text}))
	})
	if err != nil {
		return nil, err
	}

	var tail []byte
	if spec.Metrics {
		tail = ndjson(tail, metricsLine{Type: "metrics", Totals: rec.Totals()})
	}
	res := resultLine{Type: "result", Kind: spec.Kind, Rows: len(texts), RowsDigest: prefetchsim.DigestRows(texts)}
	if spec.Kind == "run" {
		m := rec.Runs()[0]
		if spec.Spans && m.Spans != nil {
			tail = ndjson(tail, spansLine{Type: "spans", Summary: m.Spans})
		}
		res.StatsDigest, res.ConfigDigest, res.VirtualTime = m.StatsDigest, m.ConfigDigest, m.VirtualTime
	}
	return j.appendPayload(ndjson(tail, res)), nil
}

// lookup finds a job by id: live (j set) or settled and still in the
// history (j nil). rec is its current record.
func (s *server) lookup(id string) (j *job, rec jobRecord, ok bool) {
	s.mu.Lock()
	j = s.jobs[id]
	rec, ok = s.settled.get(id)
	s.mu.Unlock()
	if j != nil {
		return j, j.record(), true
	}
	return nil, rec, ok
}

// drain stops admitting jobs, waits up to timeout for in-flight ones,
// then cancels the stragglers and waits for them to settle.
func (s *server) drain(timeout time.Duration) {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()

	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
		return
	case <-time.After(timeout):
	}
	s.log.Warn("drain timeout, cancelling in-flight jobs", "timeout", timeout.String())
	s.mu.Lock()
	for _, j := range s.jobs {
		if j.cancel != nil {
			j.cancel()
		}
	}
	s.mu.Unlock()
	<-done
}

// status is the /status snapshot: cumulative job counts by state,
// cache counters, build info and the per-class job-span aggregate. It
// reads counters only, never the jobs themselves.
func (s *server) status() status {
	s.mu.Lock()
	total, finished, rows := s.seq, s.settled.added, s.rows
	s.mu.Unlock()

	counts := map[string]int64{}
	for st, g := range s.jobState {
		if v := g.Value(); v != 0 {
			counts["jobs."+st] = v
		}
	}
	counts["cache.objects"] = int64(s.store.Len())
	counts["cache.bytes"] = s.store.Bytes()
	counts["cache.evictions"] = s.store.Evictions()
	counts["cache.hits"] = s.hits.Value()
	counts["cache.misses"] = s.misses.Value()
	counts["cache.coalesced"] = s.coalesced.Value()
	return status{
		Tool: "prefetchd", Done: finished, Total: total, Rows: rows,
		Metrics:     counts,
		Version:     s.version,
		GitSHA:      s.sha,
		JobSpans:    s.spanAggs(),
		StartUnixNS: s.start.UnixNano(),
		UptimeNS:    time.Since(s.start).Nanoseconds(),
	}
}

// sampleMemory sets the process memory gauges; /metrics calls it before
// every scrape. The resident set comes from /proc/self/statm, so it
// stays 0 where that file does not exist.
func (s *server) sampleMemory() {
	if statm, err := os.ReadFile("/proc/self/statm"); err == nil {
		if f := strings.Fields(string(statm)); len(f) > 1 {
			if pages, err := strconv.ParseInt(f[1], 10, 64); err == nil {
				s.rss.Set(pages * int64(os.Getpagesize()))
			}
		}
	}
	// HeapInuse: the bytes of in-use heap spans, objects and free slots.
	sm := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}, {Name: "/memory/classes/heap/unused:bytes"}}
	metrics.Read(sm)
	s.heap.Set(int64(sm[0].Value.Uint64() + sm[1].Value.Uint64()))
}

// listen binds addr (port 0 picks a free one) and serves s on it; the
// returned server's Addr is the bound address. Routes: the job API,
// "/" and "/status" (the JSON snapshot), "/healthz" (liveness, always
// ok), "/readyz" (503 "draining" once draining begins), "/metrics"
// (Prometheus text, gauges sampled at the scrape) and, with pprofOn,
// net/http/pprof under "/debug/pprof/". Any other path answers 404
// and a wrong method 405.
func listen(addr string, s *server, pprofOn bool) (*http.Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleGet)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /jobs/{id}/stream", s.handleStream)
	mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /{$}", s.handleStatus)
	mux.HandleFunc("GET /status", s.handleStatus)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	// Ready once the cache index is loaded (a *server only exists with
	// an open store) and until draining begins.
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		s.mu.Lock()
		draining := s.draining
		s.mu.Unlock()
		if draining {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", obs.PromContentType)
		s.sampleMemory()
		s.reg.WritePrometheus(w)
	})
	if pprofOn {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	srv := &http.Server{Addr: ln.Addr().String(), Handler: mux}
	go srv.Serve(ln)
	return srv, nil
}

// handleStatus writes the snapshot as indented JSON.
func (s *server) handleStatus(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.status())
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	buf := mustJSON(v)
	w.Write(append(buf, '\n'))
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func (s *server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := prefetchsim.DecodeSpec(r.Body)
	if err != nil {
		s.badSpec.Inc()
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	spec, err = spec.Normalize()
	if err != nil {
		s.badSpec.Inc()
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	j, err := s.submit(spec)
	if err != nil {
		s.rejected.Inc()
		s.log.Info("submission rejected", "err", err)
		writeErr(w, http.StatusServiceUnavailable, err)
		return
	}
	rec := j.record()
	if r.URL.Query().Get("stream") != "" {
		s.streamJob(w, r, j, rec)
		return
	}
	code := http.StatusAccepted
	if terminal(rec.Status) {
		code = http.StatusOK
	}
	writeJSON(w, code, rec)
}

// handleList lists the jobs the server remembers, live and settled, in
// submission order.
func (s *server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	recs := slices.Clone(s.settled.recs[:s.settled.len()])
	live := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		live = append(live, j)
	}
	s.mu.Unlock()
	for _, j := range live {
		recs = append(recs, j.record())
	}
	// Ids are "j<seq>": a shorter id is an older job.
	slices.SortFunc(recs, func(a, b jobRecord) int {
		return cmp.Or(cmp.Compare(len(a.ID), len(b.ID)), strings.Compare(a.ID, b.ID))
	})
	writeJSON(w, http.StatusOK, recs)
}

var errNoJob = errors.New("no such job")

func (s *server) handleGet(w http.ResponseWriter, r *http.Request) {
	_, rec, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, errNoJob)
		return
	}
	writeJSON(w, http.StatusOK, rec)
}

// handleCancel requests cancellation; the job settles to its terminal
// state asynchronously (an in-flight simulation completes first).
func (s *server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, rec, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, errNoJob)
		return
	}
	if j != nil && j.cancel != nil {
		j.cancel()
	}
	writeJSON(w, http.StatusOK, rec)
}

func (s *server) handleStream(w http.ResponseWriter, r *http.Request) {
	j, rec, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, errNoJob)
		return
	}
	s.streamJob(w, r, j, rec)
}

// errEvicted ends the replay of a settled job whose payload the result
// cache no longer holds.
var errEvicted = errors.New("payload evicted from the result cache; resubmit the spec")

// streamJob writes a job's NDJSON stream: a per-request job header,
// the payload and a per-request done trailer. A live job j streams
// from its own payload as it grows; a settled one (j nil, rec its
// record) replays its payload from the result cache, and when the
// cache has evicted it the trailer reports a failure. The payload
// between header and trailer is byte-identical across requests for
// the same spec — that is the cache contract.
func (s *server) streamJob(w http.ResponseWriter, r *http.Request, j *job, rec jobRecord) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	fl, _ := w.(http.Flusher)
	write := func(b []byte) {
		if len(b) == 0 {
			return
		}
		w.Write(b)
		s.streamRows.Add(int64(bytes.Count(b, newline)))
		s.streamBytes.Add(int64(len(b)))
		if fl != nil {
			fl.Flush()
		}
	}

	write(ndjson(nil, jobLine{Type: "job", jobRecord: rec}))
	if j != nil {
		for off := 0; ; {
			chunk, now, ok := j.next(r.Context().Done(), off)
			if !ok {
				return // client went away
			}
			write(chunk)
			off += len(chunk)
			if rec = now; terminal(rec.Status) {
				break
			}
		}
	} else if rec.Status == statusDone {
		if payload, ok := s.store.Get(rec.Digest); ok {
			write(payload)
		} else {
			rec.Status, rec.Error = statusFailed, errEvicted.Error()
		}
	}
	write(ndjson(nil, doneLine{
		Type: "done", Status: rec.Status, Cache: rec.Cache,
		Rows: rec.Rows, WallNS: rec.WallNS, Error: rec.Error,
	}))
}

// handleEvents serves job progress as server-sent events: one
// "progress" event per state change, a final "done" event, then EOF.
// A settled job sends its done event at once. The subscriber gauge
// tracks live watchers; it returns to its prior level however the
// watcher leaves (done event or disconnect).
func (s *server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, rec, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, errNoJob)
		return
	}
	s.sseSubs.Add(1)
	defer s.sseSubs.Add(-1)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	fl, _ := w.(http.Flusher)

	var last jobRecord
	var ch chan struct{}
	for first := true; ; first = false {
		if j != nil {
			j.mu.Lock()
			rec, ch = j.recordLocked(), j.notify
			j.mu.Unlock()
		}
		if first || rec != last {
			event := "progress"
			if terminal(rec.Status) {
				event = "done"
			}
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, mustJSON(rec))
			if fl != nil {
				fl.Flush()
			}
			last = rec
		}
		if terminal(rec.Status) {
			return
		}
		select {
		case <-ch:
		case <-r.Context().Done():
			return
		}
	}
}
