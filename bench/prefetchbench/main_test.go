package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"prefetchsim/internal/mem"
	"prefetchsim/internal/prefetch"
	"prefetchsim/internal/trace"
)

// benchmarkJSON is the repository's benchmark declaration.
type benchmarkJSON struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	Work     []struct{ Name string }       `json:"workloads"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	buf, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(buf, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func declared(list []struct{ Name, Unit string }) map[string]string {
	m := make(map[string]string)
	for _, d := range list {
		m[d.Name] = d.Unit
	}
	return m
}

func defsMap(defs []metricDef) map[string]string {
	m := make(map[string]string)
	for _, d := range defs {
		m[d.name] = d.unit
	}
	return m
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if got, want := defsMap(endToEnd), declared(b.EndToEnd); !reflect.DeepEqual(got, want) {
		t.Errorf("end-to-end metrics %v, BENCHMARK.json declares %v", got, want)
	}
	if got, want := defsMap(perLayer), declared(b.PerLayer); !reflect.DeepEqual(got, want) {
		t.Errorf("per-layer metrics %v, BENCHMARK.json declares %v", got, want)
	}
	var names []string
	for _, w := range b.Work {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if want := []string{"fig6", "serve", "tables", "zoo"}; !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, want %v", names, want)
	}
}

// TestSmoke runs every workload at its tiny size, untraced and traced,
// through the real binaries: the sim children and prefetchd are
// spawned, and every printed metric must be one BENCHMARK.json
// declares, with its unit, and the reverse.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "bin", "prefetchbench")
	pd := filepath.Join(dir, "bin", "prefetchd")
	for _, args := range [][]string{{"-o", bin, "."}, {"-o", pd, "prefetchsim/cmd/prefetchd"}} {
		cmd := exec.Command("go", append([]string{"build"}, args...)...)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go build %v: %v\n%s", args, err, out)
		}
	}
	b := loadBenchmarkJSON(t)
	for _, w := range []string{"fig6", "tables", "zoo", "serve"} {
		for _, traced := range []string{"0", "1"} {
			t.Run(w+"/trace"+traced, func(t *testing.T) {
				cmd := exec.Command(bin, "-workload", w, "-seed", "1", "-seconds", "1", "-trace", traced,
					"-tiny", "-work", dir)
				var stdout, stderr bytes.Buffer
				cmd.Stdout, cmd.Stderr = &stdout, &stderr
				if err := cmd.Run(); err != nil {
					t.Fatalf("%v\n%s", err, stderr.Bytes())
				}
				out := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var rep report
				if err := json.Unmarshal([]byte(out[len(out)-1]), &rep); err != nil {
					t.Fatalf("last line %q: %v", out[len(out)-1], err)
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d\n%s", rep.Correct, rep.Attempted, rep.Failed, stderr.Bytes())
				}
				want := declared(b.EndToEnd)
				if traced == "1" {
					want = declared(b.PerLayer)
				}
				got := make(map[string]string)
				for name, m := range rep.Metrics {
					got[name] = m.Unit
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("printed metrics %v, BENCHMARK.json declares %v", got, want)
				}
				if traced == "0" {
					for name, m := range rep.Metrics {
						if m.Value <= 0 {
							t.Errorf("%s = %v, want > 0", name, m.Value)
						}
					}
				}
			})
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "trace", "serve-seed1.spans.jsonl")); err != nil {
		t.Errorf("traced serve run wrote no spans: %v", err)
	}
}

// stopStream is a batch stream that records Stop.
type stopStream struct{ stopped bool }

func (s *stopStream) Next() trace.Op        { return trace.Op{Kind: trace.End} }
func (s *stopStream) NextBatch() []trace.Op { return nil }
func (s *stopStream) Recycle([]trace.Op)    {}
func (s *stopStream) Stop()                 { s.stopped = true }

func TestWrappersForward(t *testing.T) {
	var lt layerTimes
	for _, c := range []struct {
		p     prefetch.Prefetcher
		cross bool
	}{{prefetch.NewMarkov(1), true}, {prefetch.NewSequential(1), false}} {
		w := &timedPrefetcher{p: c.p, t: &lt}
		if got := prefetch.CrossesPages(w); got != c.cross {
			t.Errorf("wrapped %s crosses pages = %v, want %v", c.p.Name(), got, c.cross)
		}
		w.OnRead(prefetch.Request{Block: 7}, func(mem.Block) {})
	}
	if lt.OnReadCalls != 2 {
		t.Errorf("counted %d OnRead calls, want 2", lt.OnReadCalls)
	}

	inner := &stopStream{}
	prog := &trace.Program{Streams: []trace.Stream{&timedStream{s: inner, t: &lt}}}
	prog.Stop()
	if !inner.stopped {
		t.Error("Program.Stop did not reach the wrapped stream")
	}
}

func TestServeSchedule(t *testing.T) {
	z := serveFull
	seen := make(map[spec]bool)
	for b := 0; b < z.maxBlocks; b++ {
		jobs := z.block(7, b)
		if !reflect.DeepEqual(jobs, z.block(7, b)) {
			t.Fatalf("block %d differs between two calls with the same seed", b)
		}
		hits := 0
		for _, j := range jobs {
			if j.hit {
				hits++
				continue
			}
			if seen[j.spec] {
				t.Errorf("block %d repeats miss %v", b, j.spec)
			}
			seen[j.spec] = true
		}
		if 5*hits != 4*len(jobs) {
			t.Errorf("block %d: %d hits of %d jobs, want a 0.8 hit ratio", b, hits, len(jobs))
		}
	}
	if len(seen) != len(z.missPool()) {
		t.Errorf("the blocks used %d misses, the pool holds %d", len(seen), len(z.missPool()))
	}
	if reflect.DeepEqual(z.block(7, 0), z.block(8, 0)) {
		t.Error("seeds 7 and 8 give the same block")
	}
}
