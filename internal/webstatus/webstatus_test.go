package webstatus

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"prefetchsim/internal/obs"
)

func TestServeStatus(t *testing.T) {
	var prog Progress
	prog.Set(3, 10)
	srv, err := Serve("127.0.0.1:0", func() Status {
		done, total := prog.Snapshot()
		return Status{
			Tool: "test", Done: done, Total: total, Rows: 2,
			Runs: 5, Metrics: map[string]int64{"engine.events": 42},
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	for _, path := range []string{"/", "/status"} {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("%s: content type %q", path, ct)
		}
		var st Status
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatalf("%s: body not JSON: %v (%s)", path, err, body)
		}
		if st.Tool != "test" || st.Done != 3 || st.Total != 10 || st.Rows != 2 || st.Runs != 5 {
			t.Fatalf("%s: status = %+v", path, st)
		}
		if st.Metrics["engine.events"] != 42 {
			t.Fatalf("%s: metrics = %v", path, st.Metrics)
		}
		if st.StartUnixNS == 0 || st.UptimeNS < 0 {
			t.Fatalf("%s: timestamps = %d/%d", path, st.StartUnixNS, st.UptimeNS)
		}
	}

	resp, err := http.Get("http://" + srv.Addr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != "ok\n" {
		t.Fatalf("/healthz = %d %q", resp.StatusCode, body)
	}
}

// TestServeMuxExtraRoutes: a command can mount its own handlers on the
// server's mux next to the shared surface, and the built-in routes keep
// working.
func TestServeMuxExtraRoutes(t *testing.T) {
	srv, err := ServeOpts("127.0.0.1:0", func() Status {
		return Status{Tool: "extended"}
	}, Options{Register: func(mux *http.ServeMux) {
		mux.HandleFunc("/jobs", func(w http.ResponseWriter, r *http.Request) {
			io.WriteString(w, "job list")
		})
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get("http://" + srv.Addr() + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != "job list" {
		t.Fatalf("/jobs = %d %q", resp.StatusCode, body)
	}

	resp, err = http.Get("http://" + srv.Addr() + "/status")
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Tool != "extended" {
		t.Fatalf("/status tool = %q", st.Tool)
	}
}

// TestShutdownDrainsInFlight: the satellite contract — a /status
// request already being served when Shutdown begins completes with a
// full body instead of being severed, and Shutdown returns only after
// it finished.
func TestShutdownDrainsInFlight(t *testing.T) {
	inHandler := make(chan struct{})
	release := make(chan struct{})
	srv, err := Serve("127.0.0.1:0", func() Status {
		close(inHandler)
		<-release // hold the request open across the Shutdown call
		return Status{Tool: "draining", Done: 7, Total: 9}
	})
	if err != nil {
		t.Fatal(err)
	}

	type reply struct {
		st   Status
		code int
		err  error
	}
	got := make(chan reply, 1)
	go func() {
		var r reply
		resp, err := http.Get("http://" + srv.Addr() + "/status")
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
	<-inHandler // the request is now in flight

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()

	// Shutdown must wait for the in-flight request, not kill it: give it
	// a moment to do the wrong thing before releasing the handler.
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned (%v) with a request still in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)

	r := <-got
	if r.err != nil {
		t.Fatalf("in-flight request severed during shutdown: %v", r.err)
	}
	if r.code != http.StatusOK || r.st.Tool != "draining" || r.st.Done != 7 {
		t.Fatalf("in-flight response = %d %+v", r.code, r.st)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	// The listener is closed: new requests fail.
	if _, err := http.Get("http://" + srv.Addr() + "/status"); err == nil {
		t.Fatal("request succeeded after Shutdown")
	}
}

// TestProgressConcurrent: the tracker is written from sweep callbacks
// and read from request handlers concurrently; counters must be
// consistent under the race detector.
func TestProgressConcurrent(t *testing.T) {
	var prog Progress
	srv, err := Serve("127.0.0.1:0", func() Status {
		done, total := prog.Snapshot()
		return Status{Done: done, Total: total, Rows: done}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const n = 50
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 1; i <= n; i++ {
			prog.Set(i, n)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			resp, err := http.Get("http://" + srv.Addr() + "/status")
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	wg.Wait()

	done, total := prog.Snapshot()
	if done != n || total != n {
		t.Fatalf("final snapshot = %d/%d, want %d/%d", done, total, n, n)
	}
}

// TestServeOptsTelemetry covers the opt-in surfaces: /metrics serves
// the registry's Prometheus exposition with the right content type,
// /readyz follows the Ready callback (503 + reason when not ready),
// a gauge OnScrape sets shows in the same scrape, and the pprof index
// mounts only when asked for.
func TestServeOptsTelemetry(t *testing.T) {
	reg := obs.NewRegistry()
	reg.AtomicCounter("resultcache.hits").Add(3)
	scraped := reg.AtomicGauge("scrapes")
	ready := false
	srv, err := ServeOpts("127.0.0.1:0", func() Status {
		return Status{Tool: "test", Version: "v1", GitSHA: "abc"}
	}, Options{
		Metrics:  reg,
		OnScrape: func() { scraped.Add(1) },
		Ready:    func() (bool, string) { return ready, "index loading" },
		Pprof:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	get := func(path string) (int, string, string) {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(body), resp.Header.Get("Content-Type")
	}

	if code, body, _ := get("/readyz"); code != http.StatusServiceUnavailable ||
		!strings.Contains(body, "index loading") {
		t.Fatalf("/readyz while not ready = %d %q, want 503 + reason", code, body)
	}
	ready = true
	if code, body, _ := get("/readyz"); code != http.StatusOK || body != "ok\n" {
		t.Fatalf("/readyz when ready = %d %q", code, body)
	}

	code, body, ct := get("/metrics")
	if code != http.StatusOK || ct != obs.PromContentType {
		t.Fatalf("/metrics = %d, content type %q", code, ct)
	}
	if !strings.Contains(body, "# TYPE resultcache_hits_total counter\nresultcache_hits_total 3\n") {
		t.Fatalf("/metrics exposition missing counter:\n%s", body)
	}
	if !strings.Contains(body, "\nscrapes 1\n") {
		t.Fatalf("/metrics exposition lacks the gauge OnScrape set:\n%s", body)
	}

	if code, _, _ := get("/debug/pprof/"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/ = %d with Pprof on", code)
	}

	// The status snapshot carries the build info fields through.
	var st Status
	_, body, _ = get("/status")
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if st.Version != "v1" || st.GitSHA != "abc" {
		t.Fatalf("status build info = %q/%q", st.Version, st.GitSHA)
	}

	// Without opts, /readyz is ok and /metrics and pprof stay unmounted
	// (the fallback handler answers "/" with the snapshot instead).
	plain, err := Serve("127.0.0.1:0", func() Status { return Status{Tool: "plain"} })
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	getPlain := func(path string) (int, string) {
		resp, err := http.Get("http://" + plain.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode, resp.Header.Get("Content-Type")
	}
	if code, _ := getPlain("/readyz"); code != http.StatusOK {
		t.Fatalf("plain /readyz = %d", code)
	}
	if _, ct := getPlain("/metrics"); ct != "application/json" {
		t.Fatalf("plain /metrics content type %q, want the JSON fallback", ct)
	}
}
