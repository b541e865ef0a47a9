package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"prefetchsim"
	"prefetchsim/internal/analysis"
	"prefetchsim/internal/machine"
	"prefetchsim/internal/mem"
	"prefetchsim/internal/obs"
	"prefetchsim/internal/prefetch"
	"prefetchsim/internal/trace"
)

// This file is the traced path: it runs one simulation the way
// prefetchsim.Run does, but with the workload's streams and the
// prefetchers wrapped in timers, so a simulation's host time splits
// across the layers. The stats digest of every traced simulation must
// equal the untraced one, which proves the wrappers perturb nothing.

// layerTimes accumulates the host time and work of each layer over
// one or more traced simulations.
type layerTimes struct {
	BuildNS     int64 `json:"build_ns"`
	NextBatchNS int64 `json:"next_batch_ns"`
	Batches     int64 `json:"batches"`
	Ops         int64 `json:"ops"`
	OnReadNS    int64 `json:"on_read_ns"`
	OnReadCalls int64 `json:"on_read_calls"`
	RunNS       int64 `json:"run_ns"`
	AnalysisNS  int64 `json:"analysis_ns"`
}

func (t *layerTimes) add(u layerTimes) {
	t.BuildNS += u.BuildNS
	t.NextBatchNS += u.NextBatchNS
	t.Batches += u.Batches
	t.Ops += u.Ops
	t.OnReadNS += u.OnReadNS
	t.OnReadCalls += u.OnReadCalls
	t.RunNS += u.RunNS
	t.AnalysisNS += u.AnalysisNS
}

// simCounts are the simulated machine's exact counters, summed over
// simulations.
type simCounts struct {
	Refs, Events, ReadMisses                     int64
	MissCold, MissCoherence, MissReplacement     int64
	PrefetchIssued, PrefetchUseful, PrefetchLate int64
	ExecPclocks                                  int64
}

func (c *simCounts) add(u simCounts) {
	c.Refs += u.Refs
	c.Events += u.Events
	c.ReadMisses += u.ReadMisses
	c.MissCold += u.MissCold
	c.MissCoherence += u.MissCoherence
	c.MissReplacement += u.MissReplacement
	c.PrefetchIssued += u.PrefetchIssued
	c.PrefetchUseful += u.PrefetchUseful
	c.PrefetchLate += u.PrefetchLate
	c.ExecPclocks += u.ExecPclocks
}

// timedStream hands a workload stream's batches to the machine, timing
// each handoff. The machine consumes batch streams only through
// NextBatch and Recycle; it runs on one goroutine, so t needs no lock.
type timedStream struct {
	s trace.BatchStream
	t *layerTimes
}

func (s *timedStream) Next() trace.Op { return s.s.Next() }

func (s *timedStream) NextBatch() []trace.Op {
	start := time.Now()
	b := s.s.NextBatch()
	s.t.NextBatchNS += int64(time.Since(start))
	if b != nil {
		s.t.Batches++
		s.t.Ops += int64(len(b))
	}
	return b
}

func (s *timedStream) Recycle(b []trace.Op) { s.s.Recycle(b) }

// Stop releases the wrapped stream's producer, as Program.Stop expects.
func (s *timedStream) Stop() {
	if st, ok := s.s.(interface{ Stop() }); ok {
		st.Stop()
	}
}

// timedPrefetcher times every OnRead of the wrapped scheme, including
// the machine's handling of the blocks it emits.
type timedPrefetcher struct {
	p prefetch.Prefetcher
	t *layerTimes
}

func (p *timedPrefetcher) Name() string { return p.p.Name() }

func (p *timedPrefetcher) OnRead(r prefetch.Request, emit func(mem.Block)) {
	start := time.Now()
	p.p.OnRead(r, emit)
	p.t.OnReadNS += int64(time.Since(start))
	p.t.OnReadCalls++
}

// CrossesPages keeps the wrapped scheme's page-crossing capability
// visible to the machine.
func (p *timedPrefetcher) CrossesPages() bool { return prefetch.CrossesPages(p.p) }

// prefetcherFor maps a scheme name to its per-node constructor, as
// prefetchsim.Run does. Hybrid needs per-application stride hints and
// no workload runs it.
func prefetcherFor(scheme string, d int) (func(int) prefetch.Prefetcher, error) {
	var mk func() prefetch.Prefetcher
	switch prefetchsim.Scheme(scheme) {
	case prefetchsim.Baseline:
		return nil, nil
	case prefetchsim.IDet:
		mk = func() prefetch.Prefetcher { return prefetch.NewIDetection(256, d) }
	case prefetchsim.IDetLA:
		mk = func() prefetch.Prefetcher { return prefetch.NewLookaheadIDetection(256, d) }
	case prefetchsim.DDet:
		mk = func() prefetch.Prefetcher { return prefetch.NewDefaultDDetection(d) }
	case prefetchsim.DDetLA:
		mk = func() prefetch.Prefetcher { return prefetch.NewHagerstenDDetection(d) }
	case prefetchsim.Seq:
		mk = func() prefetch.Prefetcher { return prefetch.NewSequential(d) }
	case prefetchsim.Adaptive:
		mk = func() prefetch.Prefetcher { return prefetch.NewAdaptive(d) }
	case prefetchsim.Markov:
		mk = func() prefetch.Prefetcher { return prefetch.NewMarkov(d) }
	case prefetchsim.Perceptron:
		mk = func() prefetch.Prefetcher { return prefetch.NewPerceptron(d) }
	case prefetchsim.BestOff:
		mk = func() prefetch.Prefetcher { return prefetch.NewBestOffset(d) }
	default:
		return nil, fmt.Errorf("traced run: unsupported scheme %q", scheme)
	}
	return func(int) prefetch.Prefetcher { return mk() }, nil
}

// tracedSim runs one simulation with every layer timed and returns its
// stats digest, per-layer times and exact counters. chars attaches the
// Table 2/3 miss-stream analysis, as the table experiments do.
func tracedSim(rc prefetchsim.RunConfig, chars bool, sp *spanLog, attrs map[string]string) (string, layerTimes, simCounts, error) {
	var lt layerTimes
	var sc simCounts
	simSpan := sp.begin(0, "sim", attrs)
	defer sp.end(simSpan)

	build := sp.begin(simSpan, "apps.build", nil)
	start := time.Now()
	prog, err := prefetchsim.BuildApp(rc.App, prefetchsim.Params{Procs: rc.Processors, Scale: rc.Scale, Seed: rc.Seed})
	lt.BuildNS = int64(time.Since(start))
	sp.end(build)
	if err != nil {
		return "", lt, sc, err
	}
	defer prog.Stop()
	for i, s := range prog.Streams {
		bs, ok := s.(trace.BatchStream)
		if !ok {
			return "", lt, sc, fmt.Errorf("traced run: %s stream %d is not batched", rc.App, i)
		}
		prog.Streams[i] = &timedStream{s: bs, t: &lt}
	}

	mcfg := machine.DefaultConfig()
	mcfg.Processors = rc.Processors
	mcfg.SLCSize = rc.SLCBytes
	mcfg.SLCWays = rc.SLCWays
	mcfg.SequentialConsistency = rc.SequentialConsistency
	mcfg.BandwidthFactor = rc.BandwidthFactor
	newPF, err := prefetcherFor(rc.Scheme, rc.Degree)
	if err != nil {
		return "", lt, sc, err
	}
	if newPF != nil {
		mcfg.NewPrefetcher = func(n int) prefetch.Prefetcher { return &timedPrefetcher{p: newPF(n), t: &lt} }
	}
	var col *analysis.Collector
	if chars {
		col = &analysis.Collector{Node: 0}
		mcfg.MissObserver = col.Observe
	}
	m, err := machine.New(mcfg, prog)
	if err != nil {
		return "", lt, sc, err
	}
	reg := obs.NewRegistry()
	m.BindMetrics(reg)

	run := sp.begin(simSpan, "machine.run", nil)
	start = time.Now()
	st, err := m.Run()
	lt.RunNS = int64(time.Since(start))
	sp.end(run)
	if err != nil {
		return "", lt, sc, fmt.Errorf("%s/%s: %w", rc.App, rc.Scheme, err)
	}
	sp.calls(run, "trace.next_batch", lt.Batches, lt.NextBatchNS)
	if lt.OnReadCalls > 0 {
		sp.calls(run, "prefetch.on_read", lt.OnReadCalls, lt.OnReadNS)
	}
	if col != nil {
		an := sp.begin(simSpan, "analysis", nil)
		start = time.Now()
		analysis.Analyze(col.Misses())
		analysis.BySite(col.Misses())
		lt.AnalysisNS = int64(time.Since(start))
		sp.end(an)
	}

	tot := reg.Snapshot().Totals()
	for i := range st.Nodes {
		sc.Refs += st.Nodes[i].Reads + st.Nodes[i].Writes
	}
	sc.Events = tot["engine.events"]
	sc.ReadMisses = st.TotalReadMisses()
	sc.MissCold = tot["node.miss.cold"]
	sc.MissCoherence = tot["node.miss.coherence"]
	sc.MissReplacement = tot["node.miss.replacement"]
	sc.PrefetchIssued = tot["node.prefetch.issued"]
	sc.PrefetchUseful = tot["node.prefetch.useful"]
	sc.PrefetchLate = tot["node.prefetch.late"]
	sc.ExecPclocks = int64(st.ExecTime)
	return prefetchsim.StatsDigest(st), lt, sc, nil
}

// span is one traced interval, or for a call-level child (one that
// stands for many short calls) their count and summed time.
type span struct {
	ID      int               `json:"id"`
	Parent  int               `json:"parent,omitempty"`
	Name    string            `json:"name"`
	StartNS int64             `json:"start_ns"` // since the run began
	EndNS   int64             `json:"end_ns"`
	Calls   int64             `json:"calls,omitempty"`
	SumNS   int64             `json:"sum_ns,omitempty"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

// spanLog keeps a run's spans in memory until the run ends. A nil
// spanLog records nothing. It is used from one goroutine at a time.
type spanLog struct {
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

func (l *spanLog) at(t time.Time) int64 { return int64(t.Sub(l.t0)) }

// begin opens a span under parent (0 for none) and returns its id.
func (l *spanLog) begin(parent int, name string, attrs map[string]string) int {
	if l == nil {
		return 0
	}
	now := l.at(time.Now())
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Name: name, StartNS: now, EndNS: now, Attrs: attrs})
	return len(l.spans)
}

func (l *spanLog) end(id int) {
	if l != nil && id > 0 {
		l.spans[id-1].EndNS = l.at(time.Now())
	}
}

// interval records a closed span with known stamps.
func (l *spanLog) interval(parent int, name string, start, end time.Time, attrs map[string]string) int {
	if l == nil {
		return 0
	}
	id := l.begin(parent, name, attrs)
	l.spans[id-1].StartNS, l.spans[id-1].EndNS = l.at(start), l.at(end)
	return id
}

// calls records a call-level child of parent spanning its interval.
func (l *spanLog) calls(parent int, name string, n, sumNS int64) {
	if l == nil {
		return
	}
	p := l.spans[parent-1]
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Name: name,
		StartNS: p.StartNS, EndNS: p.EndNS, Calls: n, SumNS: sumNS})
}

// write stores the spans as JSONL in dir/name.
func (l *spanLog) write(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
