package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"prefetchsim/internal/obs"
)

// postJob submits a spec without streaming and returns the accepted
// record.
func postJob(t *testing.T, base, spec string) jobRecord {
	t.Helper()
	resp, err := http.Post(base+"/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatalf("POST /jobs: %v", err)
	}
	defer resp.Body.Close()
	var rec jobRecord
	if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
		t.Fatalf("decode job record: %v", err)
	}
	return rec
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitTerminal polls until the job settles and returns its final
// record.
func waitTerminal(t *testing.T, s *server, id string) jobRecord {
	t.Helper()
	var rec jobRecord
	waitFor(t, "job "+id+" to settle", func() bool {
		_, rec, _ = s.lookup(id)
		return terminal(rec.Status)
	})
	return rec
}

// TestJobSpanReconcile is the tentpole's accounting check: one job per
// cache class (miss, coalesced, hit), and the per-class span aggregate
// sums to exactly what the runner latency histograms observed — the
// same microsecond values flow into both, so the equality is exact,
// not approximate.
func TestJobSpanReconcile(t *testing.T) {
	s, base := startTestServer(t, 2)

	// Two identical submissions back to back: the store is empty when
	// both submit, so the first to enter the flight group owns the
	// computation and the other coalesces onto it.
	spec := `{"kind":"figure6","apps":["lu"],"schemes":["Seq"],"procs":4}`
	ra := postJob(t, base, spec)
	rb := postJob(t, base, spec)
	reca := waitTerminal(t, s, ra.ID)
	recb := waitTerminal(t, s, rb.ID)

	// A third submission is a cache hit, born terminal.
	rech := waitTerminal(t, s, postJob(t, base, spec).ID)
	if rech.Cache != "hit" {
		t.Fatalf("third submission cache %q, want hit", rech.Cache)
	}

	byClass := map[string]jobRecord{reca.Cache: reca, recb.Cache: recb}
	miss, ok := byClass["miss"]
	if !ok {
		t.Fatalf("no miss among %q/%q", reca.Cache, recb.Cache)
	}
	if _, ok := byClass["coalesced"]; !ok {
		t.Fatalf("no coalesced job among %q/%q", reca.Cache, recb.Cache)
	}

	// The miss walked every lifecycle state in order.
	sp := miss.Spans
	stamps := []int64{sp.SubmitUnixNS, sp.QueuedUnixNS, sp.AdmittedUnixNS,
		sp.RunningUnixNS, sp.StreamingUnixNS, sp.DoneUnixNS}
	for i, v := range stamps {
		if v <= 0 {
			t.Fatalf("miss span stamp %d missing: %+v", i, sp)
		}
		if i > 0 && v < stamps[i-1] {
			t.Fatalf("miss span stamps out of order: %+v", sp)
		}
	}
	// The hit never queued or ran; it only streamed and settled.
	hsp := rech.Spans
	if hsp.QueuedUnixNS != 0 || hsp.AdmittedUnixNS != 0 || hsp.RunningUnixNS != 0 ||
		hsp.WaitUS != 0 || hsp.RunUS != 0 {
		t.Fatalf("hit span has pipeline stamps: %+v", hsp)
	}
	if hsp.SubmitUnixNS <= 0 || hsp.StreamingUnixNS <= 0 || hsp.DoneUnixNS < hsp.StreamingUnixNS {
		t.Fatalf("hit span incomplete: %+v", hsp)
	}

	// The spans travel the HTTP surface: GET /jobs/{id} carries them.
	resp, err := http.Get(base + "/jobs/" + miss.ID)
	if err != nil {
		t.Fatalf("GET job: %v", err)
	}
	var got jobRecord
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatalf("decode job: %v", err)
	}
	resp.Body.Close()
	if got.Spans != miss.Spans {
		t.Fatalf("HTTP spans %+v != recorded %+v", got.Spans, miss.Spans)
	}

	// recordSettled folds the aggregate just after the job turns
	// terminal; wait for all three classes to land.
	waitFor(t, "three settled spans", func() bool {
		n := int64(0)
		for _, a := range s.spanAggs() {
			n += a.Count
		}
		return n == 3
	})
	aggs := s.spanAggs()
	if a := aggs["hit"]; a.Count != 1 || a.WaitUS != 0 || a.RunUS != 0 {
		t.Fatalf("hit aggregate = %+v", a)
	}

	// Reconciliation: only admitted jobs (miss + coalesced) feed the
	// runner histograms, and they carry the histogram's own values.
	admitted := aggs["miss"].Count + aggs["coalesced"].Count
	wantWait := aggs["miss"].WaitUS + aggs["coalesced"].WaitUS
	wantRun := aggs["miss"].RunUS + aggs["coalesced"].RunUS
	if n, sum := s.rm.Wait.Count(), s.rm.Wait.Sum(); n != admitted || sum != wantWait {
		t.Errorf("wait histogram count=%d sum=%d, spans say %d/%d", n, sum, admitted, wantWait)
	}
	if n, sum := s.rm.Run.Count(), s.rm.Run.Sum(); n != admitted || sum != wantRun {
		t.Errorf("run histogram count=%d sum=%d, spans say %d/%d", n, sum, admitted, wantRun)
	}
	if v := s.rm.QueueDepth.Value(); v != 0 {
		t.Errorf("queue depth %d after all jobs settled", v)
	}
	if v := s.rm.InFlight.Value(); v != 0 {
		t.Errorf("inflight %d after all jobs settled", v)
	}

	// /status carries the same aggregate.
	st := s.status()
	if st.JobSpans["miss"] != aggs["miss"] || st.JobSpans["hit"] != aggs["hit"] {
		t.Errorf("/status job_spans %+v != aggregate %+v", st.JobSpans, aggs)
	}
}

// TestStreamWatcherDisconnect: two /stream watchers follow a running
// sweep and one disconnects mid-run. Its handler returns while the job
// still runs, and the survivor still reads the whole payload,
// byte-identical to the cached one, and the done trailer.
func TestStreamWatcherDisconnect(t *testing.T) {
	s, base := startTestServer(t, 1)
	mux := jobMux(t, s)

	// An lu sweep runs for about a second, long enough for a watcher
	// to attach and detach while it runs.
	spec := `{"kind":"figure6","apps":["lu"],"schemes":["Seq"],"procs":4}`
	id := postJob(t, base, spec).ID

	survivor, err := http.Get(fmt.Sprintf("%s/jobs/%s/stream", base, id))
	if err != nil {
		t.Fatalf("GET stream (survivor): %v", err)
	}
	defer survivor.Body.Close()

	ctx, cancel := context.WithCancel(context.Background())
	left := make(chan struct{})
	go func() {
		defer close(left)
		req := httptest.NewRequest("GET", "/jobs/"+id+"/stream", nil).WithContext(ctx)
		mux.ServeHTTP(httptest.NewRecorder(), req)
	}()
	cancel()
	<-left
	if _, rec, _ := s.lookup(id); terminal(rec.Status) {
		t.Fatalf("job settled before the watcher left: %+v", rec)
	}

	header, payload, done := parseStream(t, []byte(readAll(t, survivor)))
	if header.ID != id || done.Status != statusDone {
		t.Fatalf("survivor's stream: header %+v, done %+v", header.jobRecord, done)
	}
	_, rec, _ := s.lookup(id)
	want, ok := s.store.Get(rec.Digest)
	if !ok {
		t.Fatal("settled job's payload is not in the result cache")
	}
	if got := append(bytes.Join(payload, newline), '\n'); !bytes.Equal(got, want) {
		t.Fatalf("survivor read\n%s\nwant the cached payload\n%s", got, want)
	}
}

// TestMetricsEndpoint scrapes /metrics after a miss + hit pair and
// checks the exposition end to end: the resultcache counters moved,
// the runner pipeline drained back to zero, both jobs are retained,
// the process memory gauges read, and the histograms are valid
// Prometheus (typed, with +Inf buckets).
func TestMetricsEndpoint(t *testing.T) {
	_, base := startTestServer(t, 2)

	spec := `{"kind":"figure6","apps":["matmul"],"schemes":["Seq"],"procs":4}`
	_, _, done1 := submitStream(t, base, spec)
	_, _, done2 := submitStream(t, base, spec)
	if done1.Cache != "miss" || done2.Cache != "hit" {
		t.Fatalf("cache dispositions %q/%q, want miss/hit", done1.Cache, done2.Cache)
	}

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	raw := new(strings.Builder)
	if _, err := fmt.Fprint(raw, readAll(t, resp)); err != nil {
		t.Fatal(err)
	}
	body := raw.String()
	if ct := resp.Header.Get("Content-Type"); ct != obs.PromContentType {
		t.Fatalf("/metrics content type %q", ct)
	}
	for _, want := range []string{
		"resultcache_hits_total 1\n",
		"resultcache_misses_total 1\n",
		"jobs_cache_hits_total 1\n",
		"jobs_cache_misses_total 1\n",
		"jobs_done 2\n",
		"jobs_retained 2\n",
		"runner_queue_depth 0\n",
		"runner_inflight 0\n",
		"runner_completed_total 1\n",
		"# TYPE runner_wait_us histogram\n",
		"# TYPE runner_run_us histogram\n",
		"runner_wait_us_bucket{le=\"+Inf\"} 1\n",
		"runner_run_us_count 1\n",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", strings.TrimSpace(want))
		}
	}
	// The memory gauges are sampled at scrape time, so they are set.
	for _, gauge := range []string{"process_resident_memory_bytes", "go_heap_inuse_bytes"} {
		var v int64
		if i := strings.Index(body, "\n"+gauge+" "); i < 0 {
			t.Errorf("/metrics missing %s", gauge)
		} else if fmt.Sscan(body[i+len(gauge)+2:], &v); v <= 0 {
			t.Errorf("%s = %d, want > 0", gauge, v)
		}
	}
	// Streaming counters saw both transcripts (header + payload +
	// trailer per request), so at least two lines per submission.
	if !strings.Contains(body, "# TYPE stream_rows_total counter\n") {
		t.Errorf("/metrics missing stream_rows_total")
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", body)
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	var sb strings.Builder
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		sb.Write(sc.Bytes())
		sb.WriteByte('\n')
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("read body: %v", err)
	}
	return sb.String()
}
