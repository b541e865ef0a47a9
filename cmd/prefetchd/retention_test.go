package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// serveDirect runs one request through the server's job API without a
// network hop.
func serveDirect(mux http.Handler, method, target, body string) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	mux.ServeHTTP(w, httptest.NewRequest(method, target, strings.NewReader(body)))
	return w
}

// jobMux returns the routes listen serves for s, to call directly.
func jobMux(t *testing.T, s *server) http.Handler {
	t.Helper()
	srv, err := listen("127.0.0.1:0", s, false)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv.Handler
}

// TestSettledJobsAreCompact submits one spec 20,000 times after its
// first run: the server remembers at most the history ring's records
// plus the live jobs, its heap stops growing, the oldest ids are
// forgotten, and a remembered job still replays its payload
// byte-identically from the result cache.
func TestSettledJobsAreCompact(t *testing.T) {
	s, _ := startTestServer(t, 1)
	mux := jobMux(t, s)
	const spec = `{"config":{"app":"listchase","scheme":"Seq","processors":4}}`
	if _, _, done := parseStream(t, serveDirect(mux, "POST", "/jobs?stream=1", spec).Body.Bytes()); done.Cache != "miss" {
		t.Fatalf("first submission: %+v, want a miss", done)
	}

	const n = 20000
	heapInuse := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse
	}
	var mid uint64
	var last []byte
	for i := 1; i <= n; i++ {
		if i < n {
			if w := serveDirect(mux, "POST", "/jobs", spec); w.Code != http.StatusOK {
				t.Fatalf("submission %d: status %d: %s", i, w.Code, w.Body)
			}
		} else {
			last = serveDirect(mux, "POST", "/jobs?stream=1", spec).Body.Bytes()
		}
		if i == n/2 {
			mid = heapInuse()
		}
	}
	end := heapInuse()

	s.mu.Lock()
	live := len(s.jobs)
	s.mu.Unlock()
	if live != 0 {
		t.Errorf("%d jobs still live after every job settled", live)
	}
	if got := s.retained.Value(); got > int64(historySize+live) {
		t.Errorf("jobs_retained = %d, want at most %d records plus %d live jobs", got, historySize, live)
	}
	if end > mid && end-mid >= 1<<20 {
		t.Errorf("HeapInuse grew %d bytes over the last %d submissions, want < 1 MB", end-mid, n/2)
	}
	if w := serveDirect(mux, "GET", "/jobs/j1", ""); w.Code != http.StatusNotFound {
		t.Errorf("GET /jobs/j1 after %d newer jobs: status %d, want 404", n, w.Code)
	}
	header, _, done := parseStream(t, last)
	if done.Cache != "hit" {
		t.Fatalf("last submission: %+v, want a hit", done)
	}
	if replay := serveDirect(mux, "GET", "/jobs/"+header.ID+"/stream", "").Body.Bytes(); !bytes.Equal(replay, last) {
		t.Errorf("replay of %s differs from its first response:\n%s\n----\n%s", header.ID, last, replay)
	}
}

// gatedWriter is a response writer that blocks on its second write,
// the first payload chunk after the job header, until gate closes.
type gatedWriter struct {
	*httptest.ResponseRecorder
	writes  int
	rows    int // lines in the chunk the writer blocked on
	blocked chan struct{}
	gate    chan struct{}
}

func (g *gatedWriter) Write(b []byte) (int, error) {
	n, err := g.ResponseRecorder.Write(b)
	if g.writes++; g.writes == 2 {
		g.rows = bytes.Count(b, newline)
		close(g.blocked)
		<-g.gate
	}
	return n, err
}

// TestWatcherSeesWholePayloadAcrossSettle attaches a watcher to a
// multi-row figure6 job mid-run and stalls it after the first rows.
// The job settles and the server forgets it but for its history
// record; the watcher still reads every row, byte-identical to the
// cached payload.
func TestWatcherSeesWholePayloadAcrossSettle(t *testing.T) {
	s, base := startTestServer(t, 1)
	mux := jobMux(t, s)
	id := postJob(t, base, `{"kind":"figure6","apps":["matmul"],"schemes":["I-det","D-det","Seq"],"procs":4}`).ID
	waitFor(t, "the first row", func() bool {
		_, rec, _ := s.lookup(id)
		return rec.Rows > 0
	})
	if _, rec, _ := s.lookup(id); terminal(rec.Status) {
		t.Fatalf("job settled before the watcher attached: %+v", rec)
	}

	g := &gatedWriter{ResponseRecorder: httptest.NewRecorder(), blocked: make(chan struct{}), gate: make(chan struct{})}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		mux.ServeHTTP(g, httptest.NewRequest("GET", "/jobs/"+id+"/stream", nil))
	}()
	<-g.blocked
	waitFor(t, "the job to settle", func() bool {
		j, rec, _ := s.lookup(id)
		return j == nil && terminal(rec.Status)
	})
	close(g.gate)
	wg.Wait()

	_, payload, done := parseStream(t, g.Body.Bytes())
	if done.Status != statusDone {
		t.Fatalf("watcher's done line: %+v", done)
	}
	_, rec, _ := s.lookup(id)
	want, ok := s.store.Get(rec.Digest)
	if !ok {
		t.Fatal("settled job's payload is not in the result cache")
	}
	if g.rows >= rec.Rows {
		t.Fatalf("watcher stalled on %d of %d lines: the job was not mid-run", g.rows, rec.Rows)
	}
	if got := append(bytes.Join(payload, newline), '\n'); !bytes.Equal(got, want) {
		t.Fatalf("watcher read\n%s\nwant the cached payload\n%s", got, want)
	}
}

// TestEvictedPayloadStreamErrors: with a one-byte cache budget each
// new object evicts the others, so a stream of an older settled job
// cannot replay its payload and must end in a done line that says so,
// never in an empty success.
func TestEvictedPayloadStreamErrors(t *testing.T) {
	_, base := startTestServerCache(t, 2, 1)
	first, _, _ := submitStream(t, base, `{"config":{"app":"matmul","processors":4}}`)
	second, want, _ := submitStream(t, base, `{"config":{"app":"matmul","processors":4,"seed":2}}`)

	stream := func(id string) ([][]byte, doneLine) {
		resp, err := http.Get(fmt.Sprintf("%s/jobs/%s/stream", base, id))
		if err != nil {
			t.Fatalf("GET stream: %v", err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		_, payload, done := parseStream(t, buf.Bytes())
		return payload, done
	}
	payload, done := stream(first.ID)
	if len(payload) != 0 || done.Status != statusFailed || !strings.Contains(done.Error, "evicted") {
		t.Fatalf("stream of an evicted job: %d payload lines, done %+v; want none and a failed done line naming the eviction", len(payload), done)
	}
	payload, done = stream(second.ID)
	if done.Status != statusDone || !bytes.Equal(bytes.Join(payload, newline), bytes.Join(want, newline)) {
		t.Fatalf("stream of the cached job: done %+v, payload differs: %v", done, !bytes.Equal(bytes.Join(payload, newline), bytes.Join(want, newline)))
	}
}
