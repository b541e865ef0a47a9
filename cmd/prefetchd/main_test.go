package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"prefetchsim"
	"prefetchsim/internal/resultcache"
)

func TestSpecNormalize(t *testing.T) {
	t.Parallel()

	// Kind inference + defaults.
	s, err := prefetchsim.Spec{Config: &prefetchsim.RunConfig{App: "matmul"}}.Normalize()
	if err != nil {
		t.Fatalf("normalize run: %v", err)
	}
	if s.Kind != "run" || s.Config.Scheme != string(prefetchsim.Baseline) ||
		s.Config.Degree != 1 || s.Config.Processors != 16 || s.Config.Scale != 1 {
		t.Fatalf("run defaults not applied: %+v %+v", s, *s.Config)
	}

	s, err = prefetchsim.Spec{Apps: []string{"lu"}}.Normalize()
	if err != nil {
		t.Fatalf("normalize figure6: %v", err)
	}
	if s.Kind != "figure6" || len(s.Schemes) == 0 || s.Procs != 16 || s.Scale != 1 {
		t.Fatalf("figure6 defaults not applied: %+v", s)
	}

	// Equivalent spellings digest identically; different work doesn't.
	a, _ := prefetchsim.Spec{Config: &prefetchsim.RunConfig{App: "matmul"}}.Normalize()
	b, _ := prefetchsim.Spec{Kind: "run", Config: &prefetchsim.RunConfig{
		App: "matmul", Scheme: "baseline", Degree: 1, Processors: 16, Scale: 1}}.Normalize()
	if a.Digest() != b.Digest() {
		t.Errorf("equivalent specs digest differently: %s vs %s", a.Digest(), b.Digest())
	}
	c, _ := prefetchsim.Spec{Config: &prefetchsim.RunConfig{App: "matmul", Seed: 7}}.Normalize()
	if a.Digest() == c.Digest() {
		t.Errorf("different seeds share a digest: %s", a.Digest())
	}
	d := a
	d.Metrics = true
	if a.Digest() == d.Digest() {
		t.Errorf("metrics flag not part of the digest")
	}

	// Invalid specs are rejected.
	for _, bad := range []prefetchsim.Spec{
		{},
		{Kind: "nope"},
		{Kind: "run"},
		{Kind: "run", Config: &prefetchsim.RunConfig{}},
		{Config: &prefetchsim.RunConfig{App: "matmul"}, Apps: []string{"lu"}},
		{Kind: "figure6", Spans: true},
		{Config: &prefetchsim.RunConfig{App: "matmul", Degree: 17}},
		{Config: &prefetchsim.RunConfig{App: "matmul", Degree: -1}},
		{Kind: "degrees", Apps: []string{"matmul"}, Schemes: []prefetchsim.Scheme{prefetchsim.Seq}, Degrees: []int{1, 1 << 30}},
		{Kind: "sweep", Apps: []string{"matmul"}, Degrees: []int{32}},
	} {
		if _, err := bad.Normalize(); err == nil {
			t.Errorf("spec %+v: want error", bad)
		}
	}
}

// startTestServer boots a full prefetchd (ephemeral port, temp cache
// dir) and tears it down with the test.
func startTestServer(t *testing.T, maxJobs int) (*server, string) {
	t.Helper()
	return startTestServerCache(t, maxJobs, 64<<20)
}

// startTestServerCache is startTestServer with a result cache budget
// of cacheBytes.
func startTestServerCache(t *testing.T, maxJobs int, cacheBytes int64) (*server, string) {
	t.Helper()
	store, err := resultcache.Open(t.TempDir(), cacheBytes)
	if err != nil {
		t.Fatalf("open cache: %v", err)
	}
	s := newServer(store, 2, maxJobs)
	s.version, s.sha = "test", "0123456789ab"
	srv, err := listen("127.0.0.1:0", s, false)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() {
		s.drain(time.Minute)
		srv.Close()
		store.Close()
	})
	return s, "http://" + srv.Addr
}

// ndjson splits a streamed response into its job header, payload
// lines, and done trailer.
func parseStream(t *testing.T, body []byte) (header jobLine, payload [][]byte, done doneLine) {
	t.Helper()
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(nil, 1<<20)
	first := true
	for sc.Scan() {
		line := append([]byte(nil), sc.Bytes()...)
		var probe struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		switch {
		case first:
			if probe.Type != "job" {
				t.Fatalf("stream starts with %q, want job", probe.Type)
			}
			if err := json.Unmarshal(line, &header); err != nil {
				t.Fatalf("decode job line: %v", err)
			}
			first = false
		case probe.Type == "done":
			if err := json.Unmarshal(line, &done); err != nil {
				t.Fatalf("decode done line: %v", err)
			}
		default:
			payload = append(payload, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scan stream: %v", err)
	}
	if done.Type != "done" {
		t.Fatalf("stream has no done trailer; %d lines", len(payload))
	}
	return header, payload, done
}

func submitStream(t *testing.T, base, spec string) (jobLine, [][]byte, doneLine) {
	t.Helper()
	resp, err := http.Post(base+"/jobs?stream=1", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatalf("POST /jobs: %v", err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("read stream: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /jobs?stream=1: status %d: %s", resp.StatusCode, buf.String())
	}
	return parseStream(t, buf.Bytes())
}

// TestCacheHitByteIdentical is the acceptance criterion: the same spec
// submitted twice simulates once; the repeat is served from the result
// cache with a byte-identical payload, proven by hashing both streams.
func TestCacheHitByteIdentical(t *testing.T) {
	s, base := startTestServer(t, 2)

	spec := `{"kind":"figure6","apps":["matmul"],"schemes":["Seq"],"procs":4,"metrics":true}`
	_, payload1, done1 := submitStream(t, base, spec)
	if done1.Status != statusDone || done1.Cache != "miss" {
		t.Fatalf("first submission: status %q cache %q, want done/miss", done1.Status, done1.Cache)
	}
	if len(payload1) == 0 {
		t.Fatal("first submission streamed no payload lines")
	}

	_, payload2, done2 := submitStream(t, base, spec)
	if done2.Status != statusDone || done2.Cache != "hit" {
		t.Fatalf("second submission: status %q cache %q, want done/hit", done2.Status, done2.Cache)
	}

	blob1, blob2 := bytes.Join(payload1, newline), bytes.Join(payload2, newline)
	if sha256.Sum256(blob1) != sha256.Sum256(blob2) {
		t.Fatalf("cache hit payload differs from the original:\n%s\n----\n%s", blob1, blob2)
	}
	if hits, misses := s.hits.Value(), s.misses.Value(); hits != 1 || misses != 1 {
		t.Fatalf("cache counters: hits=%d misses=%d, want 1/1", hits, misses)
	}

	// The payload survives a cache reopen: a fresh server on the same
	// directory also answers from cache.
	var rows int
	for _, l := range payload1 {
		if bytes.Contains(l, []byte(`"type":"row"`)) {
			rows++
		}
	}
	if rows == 0 {
		t.Fatal("payload has no row lines")
	}
}

// TestRunJobPayload checks a single-run job's payload shape: node rows,
// metrics totals, and a result line carrying the canonical digests.
func TestRunJobPayload(t *testing.T) {
	_, base := startTestServer(t, 2)

	spec := `{"config":{"app":"matmul","processors":4},"metrics":true,"spans":true}`
	header, payload, done := submitStream(t, base, spec)
	if done.Status != statusDone {
		t.Fatalf("run job failed: %+v", done)
	}
	if !strings.HasPrefix(header.Digest, "run-") {
		t.Fatalf("run job digest %q lacks run- prefix", header.Digest)
	}

	var rows []string
	var sawMetrics, sawSpans bool
	var res resultLine
	for _, l := range payload {
		var probe struct {
			Type string `json:"type"`
			Text string `json:"text"`
		}
		if err := json.Unmarshal(l, &probe); err != nil {
			t.Fatalf("bad payload line %q: %v", l, err)
		}
		switch probe.Type {
		case "row":
			rows = append(rows, probe.Text)
		case "metrics":
			sawMetrics = true
		case "spans":
			sawSpans = true
		case "result":
			if err := json.Unmarshal(l, &res); err != nil {
				t.Fatalf("decode result line: %v", err)
			}
		}
	}
	// 4 processors -> 4 node rows + 1 machine row.
	if len(rows) != 5 {
		t.Fatalf("got %d rows, want 5", len(rows))
	}
	if !sawMetrics || !sawSpans {
		t.Fatalf("payload missing metrics (%v) or spans (%v) line", sawMetrics, sawSpans)
	}
	if res.RowsDigest != prefetchsim.DigestRows(rows) {
		t.Fatalf("rows digest mismatch: line says %s, recomputed %s", res.RowsDigest, prefetchsim.DigestRows(rows))
	}
	if res.StatsDigest == "" || res.ConfigDigest == "" || res.VirtualTime <= 0 {
		t.Fatalf("result line incomplete: %+v", res)
	}

	// The result line's config digest matches the library's notion for
	// the same configuration.
	want := prefetchsim.ConfigDigest(prefetchsim.Config{App: "matmul", Processors: 4})
	if res.ConfigDigest != want {
		t.Fatalf("config digest %s, want %s", res.ConfigDigest, want)
	}
}

// TestCancelQueuedJob: with one execution slot, a queued job cancels
// cleanly while the slot holder keeps running.
func TestCancelQueuedJob(t *testing.T) {
	s, base := startTestServer(t, 1)

	// Occupy the only slot with a real sweep...
	slow := `{"kind":"figure6","apps":["lu"],"schemes":["I-det","D-det","Seq"],"procs":4}`
	resp, err := http.Post(base+"/jobs", "application/json", strings.NewReader(slow))
	if err != nil {
		t.Fatalf("POST slow job: %v", err)
	}
	var slowRec jobRecord
	if err := json.NewDecoder(resp.Body).Decode(&slowRec); err != nil {
		t.Fatalf("decode slow job record: %v", err)
	}
	resp.Body.Close()

	// ...then queue a second and cancel it before it can start.
	queued := `{"kind":"figure6","apps":["cholesky"],"schemes":["Seq"],"procs":4}`
	resp, err = http.Post(base+"/jobs", "application/json", strings.NewReader(queued))
	if err != nil {
		t.Fatalf("POST queued job: %v", err)
	}
	var qRec jobRecord
	if err := json.NewDecoder(resp.Body).Decode(&qRec); err != nil {
		t.Fatalf("decode queued job record: %v", err)
	}
	resp.Body.Close()

	req, _ := http.NewRequest(http.MethodDelete, base+"/jobs/"+qRec.ID, nil)
	if resp, err = http.DefaultClient.Do(req); err != nil {
		t.Fatalf("DELETE queued job: %v", err)
	}
	resp.Body.Close()

	// The cancelled job settles without waiting for the slot holder.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, rec, _ := s.lookup(qRec.ID); terminal(rec.Status) {
			if rec.Status != statusCancelled {
				t.Fatalf("queued job settled as %q, want cancelled", rec.Status)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("cancelled job never settled")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Cancel the slot holder too so cleanup's drain is quick.
	req, _ = http.NewRequest(http.MethodDelete, base+"/jobs/"+slowRec.ID, nil)
	if resp, err = http.DefaultClient.Do(req); err != nil {
		t.Fatalf("DELETE slow job: %v", err)
	}
	resp.Body.Close()
}

// TestDrainRejectsNewJobs: a draining server 503s submissions.
func TestDrainRejectsNewJobs(t *testing.T) {
	s, base := startTestServer(t, 2)
	s.drain(time.Second)

	resp, err := http.Post(base+"/jobs", "application/json",
		strings.NewReader(`{"config":{"app":"matmul"}}`))
	if err != nil {
		t.Fatalf("POST after drain: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d after drain, want 503", resp.StatusCode)
	}

	// Draining also flips readiness: /readyz reports 503 so a load
	// balancer stops routing before the listener closes.
	ready, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatalf("GET /readyz: %v", err)
	}
	ready.Body.Close()
	if ready.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while draining = %d, want 503", ready.StatusCode)
	}
}

// TestStreamEndpointReplays: GET /jobs/{id}/stream after completion
// replays the identical payload the submission streamed.
func TestStreamEndpointReplays(t *testing.T) {
	_, base := startTestServer(t, 2)

	spec := `{"config":{"app":"matmul","processors":4}}`
	header, payload1, _ := submitStream(t, base, spec)

	resp, err := http.Get(fmt.Sprintf("%s/jobs/%s/stream", base, header.ID))
	if err != nil {
		t.Fatalf("GET stream: %v", err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	_, payload2, done := parseStream(t, buf.Bytes())
	if done.Status != statusDone {
		t.Fatalf("replay done: %+v", done)
	}
	if !bytes.Equal(bytes.Join(payload1, newline), bytes.Join(payload2, newline)) {
		t.Fatal("replayed payload differs from the original stream")
	}
}

// TestNextStopsWhenDoneCloses: a watcher waiting at the end of a live
// job's payload gets ok=false once its done channel closes, without new
// bytes or a terminal state.
func TestNextStopsWhenDoneCloses(t *testing.T) {
	t.Parallel()
	j := newJob("j1", "run", "d")
	line := ndjson(nil, rowLine{Type: "row", Total: 1, Text: "r"})
	j.appendPayload(line)
	done := make(chan struct{})
	if chunk, _, ok := j.next(done, 0); !ok || !bytes.Equal(chunk, line) {
		t.Fatalf("next(0) = %q, %v; want the first line", chunk, ok)
	}

	type result struct {
		chunk []byte
		ok    bool
	}
	got := make(chan result, 1)
	go func() {
		chunk, _, ok := j.next(done, len(line))
		got <- result{chunk, ok}
	}()
	select {
	case r := <-got:
		t.Fatalf("next returned %q, %v before done closed", r.chunk, r.ok)
	case <-time.After(20 * time.Millisecond):
	}
	close(done)
	if r := <-got; r.ok || r.chunk != nil {
		t.Fatalf("next after done closed = %q, %v; want nil, false", r.chunk, r.ok)
	}
}

// TestBadSpecRejectedServerSurvives: a spec whose application cannot be
// built at its processor count, or whose prefetch degree would keep a
// slot busy indefinitely, answers 400 rather than panicking or hanging
// the server, and the same server then runs a valid job.
func TestBadSpecRejectedServerSurvives(t *testing.T) {
	s, base := startTestServer(t, 2)
	bad := []struct{ spec, cause string }{
		{`{"config":{"app":"ocean","processors":2}}`, "perfect square"},
		{`{"config":{"app":"listchase","scheme":"Seq","degree":1073741824,"processors":4}}`, "degree 1073741824 out of range"},
		{`{"kind":"degrees","apps":["matmul"],"schemes":["Seq"],"degrees":[2,64],"procs":4}`, "degree 64 out of range"},
	}
	for _, c := range bad {
		resp, err := http.Post(base+"/jobs", "application/json", strings.NewReader(c.spec))
		if err != nil {
			t.Fatalf("POST bad spec: %v", err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(buf.String(), c.cause) {
			t.Fatalf("%s: status %d body %s, want 400 naming the cause", c.spec, resp.StatusCode, buf.String())
		}
	}
	if n := s.badSpec.Value(); n != int64(len(bad)) {
		t.Fatalf("jobs.spec.invalid = %d, want %d", n, len(bad))
	}
	if _, _, done := submitStream(t, base, `{"config":{"app":"matmul","processors":4}}`); done.Status != statusDone {
		t.Fatalf("valid job after the bad spec: %+v", done)
	}
}

// TestEveryKindServable submits one spec of every kind (matmul, four
// processors) and checks that its streamed rows are the rows the batch
// commands print for it: those of the experiment function the kind
// runs, and for the sweep kind the CSV the sweep command writes,
// pinned in the root package's TestCLIOutputPinned.
func TestEveryKindServable(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: runs every experiment kind")
	}
	_, base := startTestServer(t, 2)
	o := prefetchsim.ExpOptions{Procs: 4, Apps: []string{"matmul"}, Workers: 2}
	const app = `"apps":["matmul"],"procs":4`
	for _, c := range []struct {
		spec string
		want func() ([]string, error)
	}{
		{`{"config":{"app":"matmul","processors":4}}`, func() ([]string, error) {
			res, err := prefetchsim.Run(prefetchsim.Config{App: "matmul", Processors: 4})
			if err != nil {
				return nil, err
			}
			return prefetchsim.StatsLines(res.Stats), nil
		}},
		{`{"kind":"figure6",` + app + `,"finite":true}`, func() ([]string, error) { return texts(prefetchsim.Figure6Finite(o)) }},
		{`{"kind":"stalls",` + app + `}`, func() ([]string, error) { return texts(prefetchsim.StallBreakdown(o)) }},
		{`{"kind":"table2",` + app + `}`, func() ([]string, error) { return texts(prefetchsim.Table2(o)) }},
		{`{"kind":"table3",` + app + `}`, func() ([]string, error) { return texts(prefetchsim.Table3(o)) }},
		{`{"kind":"table4",` + app + `}`, func() ([]string, error) { return texts(prefetchsim.Table4(o)) }},
		{`{"kind":"consistency",` + app + `}`, func() ([]string, error) { return texts(prefetchsim.ConsistencyCompare(o)) }},
		{`{"kind":"zoo",` + app + `}`, func() ([]string, error) { return texts(prefetchsim.ZooCompare("matmul", o)) }},
		{`{"kind":"extensions",` + app + `}`, func() ([]string, error) { return texts(prefetchsim.ExtensionCompare("matmul", o)) }},
		{`{"kind":"degrees",` + app + `,"schemes":["Seq"],"degrees":[1,2]}`, func() ([]string, error) {
			return texts(prefetchsim.DegreeSweep("matmul", prefetchsim.Seq, []int{1, 2}, o))
		}},
		{`{"kind":"slc",` + app + `,"schemes":["Seq"],"slcs":[8192,16384]}`, func() ([]string, error) {
			return texts(prefetchsim.SLCSweep("matmul", prefetchsim.Seq, []int{8192, 16384}, o))
		}},
		{`{"kind":"bandwidth",` + app + `,"bandwidths":[1,2]}`, func() ([]string, error) {
			return texts(prefetchsim.BandwidthSweep("matmul", []int{1, 2}, o))
		}},
		{`{"kind":"assoc",` + app + `,"ways":[1,2]}`, func() ([]string, error) {
			return texts(prefetchsim.AssocSweep("matmul", []int{1, 2}, o))
		}},
	} {
		want, err := c.want()
		if err != nil {
			t.Fatalf("%s: %v", c.spec, err)
		}
		if got := streamedRows(t, base, c.spec); !reflect.DeepEqual(got, want) {
			t.Errorf("%s streamed rows\n%q\nwant\n%q", c.spec, got, want)
		}
	}

	// The sweep command's CSV for the same design: header plus rows.
	rows := streamedRows(t, base, `{"kind":"sweep",`+app+`,"schemes":["baseline","Seq"],"degrees":[1],"slcs":[0],"ways":[1],"bandwidths":[1]}`)
	csv := strings.Join(append([]string{strings.Join(prefetchsim.SweepColumns(), ",")}, rows...), "\n") + "\n"
	const pinned = "2ffcf87505b85550d3cd5ebf46a4c3f5967990a26286c0934e7ec250f3e2b7d2"
	if sum := sha256.Sum256([]byte(csv)); hex.EncodeToString(sum[:]) != pinned {
		t.Errorf("sweep rows do not make the sweep command's CSV:\n%s", csv)
	}
}

// streamedRows submits spec, checks the job succeeded and returns the
// texts of its row lines.
func streamedRows(t *testing.T, base, spec string) []string {
	t.Helper()
	_, payload, done := submitStream(t, base, spec)
	if done.Status != statusDone {
		t.Fatalf("%s: job ended %+v", spec, done)
	}
	var rows []string
	for _, l := range payload {
		var row rowLine
		if err := json.Unmarshal(l, &row); err != nil {
			t.Fatalf("bad payload line %q: %v", l, err)
		}
		if row.Type == "row" {
			rows = append(rows, row.Text)
		}
	}
	return rows
}

func texts[R fmt.Stringer](rows []R, err error) ([]string, error) {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	return out, err
}
