package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"prefetchsim/internal/resultcache"
)

// listenTestServer starts a prefetchd on an ephemeral port with pprof
// as given and returns it with its HTTP server; the test shuts the
// server down itself or leaves it to the cleanup.
func listenTestServer(t *testing.T, pprofOn bool) (*server, *http.Server) {
	t.Helper()
	store, err := resultcache.Open(t.TempDir(), 1<<20)
	if err != nil {
		t.Fatalf("open cache: %v", err)
	}
	s := newServer(store, 1, 1)
	srv, err := listen("127.0.0.1:0", s, pprofOn)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() {
		srv.Close()
		store.Close()
	})
	return s, srv
}

// get fetches url and returns its status code and body.
func get(t *testing.T, method, url string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestRouteTable: only the routes prefetchd serves answer; an unknown
// path is 404 and a known path with the wrong method 405, while "/"
// still serves the status snapshot.
func TestRouteTable(t *testing.T) {
	_, srv := listenTestServer(t, false)
	base := "http://" + srv.Addr
	for _, c := range []struct {
		method, path string
		code         int
	}{
		{"GET", "/nope", http.StatusNotFound},
		{"GET", "/jobs/j1/nope", http.StatusNotFound},
		{"GET", "/debug/pprof/", http.StatusNotFound},
		{"DELETE", "/jobs", http.StatusMethodNotAllowed},
		{"POST", "/status", http.StatusMethodNotAllowed},
		{"PUT", "/healthz", http.StatusMethodNotAllowed},
		{"POST", "/metrics", http.StatusMethodNotAllowed},
		{"GET", "/healthz", http.StatusOK},
		{"GET", "/readyz", http.StatusOK},
		{"GET", "/jobs", http.StatusOK},
		{"GET", "/jobs/j1", http.StatusNotFound},
	} {
		if code, body := get(t, c.method, base+c.path); code != c.code {
			t.Errorf("%s %s = %d %q, want %d", c.method, c.path, code, body, c.code)
		}
	}
	// No job route serves /events, so even a job that exists would get
	// the mux's own 404 rather than a "no such job" record.
	if code, body := get(t, "GET", base+"/jobs/j1/events"); code != http.StatusNotFound || body != "404 page not found\n" {
		t.Errorf("GET /jobs/j1/events = %d %q, want the mux's 404", code, body)
	}
	code, body := get(t, "GET", base+"/")
	var st status
	if code != http.StatusOK || json.Unmarshal([]byte(body), &st) != nil || st.Tool != "prefetchd" {
		t.Errorf("GET / = %d %q, want the status snapshot", code, body)
	}
}

// TestListenTelemetry: pprof mounts only when asked for, and the
// memory gauges /metrics samples at scrape time show in that same
// scrape.
func TestListenTelemetry(t *testing.T) {
	s, srv := listenTestServer(t, true)
	base := "http://" + srv.Addr
	if code, _ := get(t, "GET", base+"/debug/pprof/"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/ = %d with pprof on", code)
	}

	if v := s.heap.Value(); v != 0 {
		t.Fatalf("go_heap_inuse_bytes = %d before the first scrape", v)
	}
	code, body := get(t, "GET", base+"/metrics")
	want := fmt.Sprintf("\ngo_heap_inuse_bytes %d\n", s.heap.Value())
	if code != http.StatusOK || s.heap.Value() <= 0 || !strings.Contains(body, want) {
		t.Fatalf("first scrape = %d, want %q in:\n%s", code, strings.TrimSpace(want), body)
	}
}

// TestShutdownDrainsInFlight: a /status request already in its handler
// when Shutdown begins completes with a full body instead of being
// severed, Shutdown returns only after it finished, and new requests
// fail afterwards.
func TestShutdownDrainsInFlight(t *testing.T) {
	s, srv := listenTestServer(t, false)
	base := "http://" + srv.Addr

	// Hold the lock the snapshot needs, so the request stays in flight
	// until the test lets it go.
	s.mu.Lock()
	type reply struct {
		code int
		st   status
		err  error
	}
	got := make(chan reply, 1)
	go func() {
		var r reply
		resp, err := http.Get(base + "/status")
		if err != nil {
			r.err = err
			got <- r
			return
		}
		defer resp.Body.Close()
		r.code = resp.StatusCode
		r.err = json.NewDecoder(resp.Body).Decode(&r.st)
		got <- r
	}()
	stacks := make([]byte, 1<<20)
	waitFor(t, "the /status handler to block", func() bool {
		return bytes.Contains(stacks[:runtime.Stack(stacks, true)], []byte(".(*server).status("))
	})

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()
	// Shutdown must wait for the in-flight request, not cut it: give it
	// a moment to do the wrong thing before releasing the handler.
	select {
	case err := <-shutdownDone:
		s.mu.Unlock()
		t.Fatalf("Shutdown returned (%v) with a request still in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	s.mu.Unlock()

	r := <-got
	if r.err != nil {
		t.Fatalf("in-flight request severed during shutdown: %v", r.err)
	}
	if r.code != http.StatusOK || r.st.Tool != "prefetchd" {
		t.Fatalf("in-flight response = %d %+v", r.code, r.st)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if _, err := http.Get(base + "/status"); err == nil {
		t.Fatal("request succeeded after Shutdown")
	}
}

// TestStatusKeyOrder pins the shape of /status: an indented JSON object
// whose keys come in a fixed order, with runs always present (and 0),
// so the bytes scripts and dashboards read stay put.
func TestStatusKeyOrder(t *testing.T) {
	s, base := startTestServer(t, 1)
	submitStream(t, base, `{"config":{"app":"matmul","processors":4}}`)
	waitFor(t, "the job's spans to reach /status", func() bool { return len(s.status().JobSpans) > 0 })

	resp, err := http.Get(base + "/status")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json" {
		t.Fatalf("/status = %d, content type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	text := string(body)
	if !strings.HasPrefix(text, "{\n  \"tool\": \"prefetchd\",\n") || !strings.HasSuffix(text, "\n}\n") ||
		!strings.Contains(text, "\n  \"runs\": 0,\n") {
		t.Fatalf("/status is not the indented snapshot:\n%s", text)
	}

	dec := json.NewDecoder(strings.NewReader(text))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		t.Fatalf("/status does not open an object: %v %v", tok, err)
	}
	var keys []string
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, tok.(string))
		var v json.RawMessage
		if err := dec.Decode(&v); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{"tool", "done", "total", "rows", "runs", "metrics", "job_spans",
		"version", "git_sha", "start_unix_ns", "uptime_ns"}
	if !reflect.DeepEqual(keys, want) {
		t.Fatalf("/status keys = %v, want %v", keys, want)
	}
}
