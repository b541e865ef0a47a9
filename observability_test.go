package prefetchsim

// Tests for the observability layer's root-package contracts: spans
// and timelines must never perturb simulation results, metric totals must agree with
// the statistics they mirror, manifests must survive a disk round
// trip, and a parallel sweep's manifest recorder must be race-clean
// while being read live.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// obsConfig is the small configuration every test here runs: matmul on
// 4 processors, the golden-test machine.
func obsConfig(scheme Scheme) Config {
	return Config{App: "matmul", Scheme: scheme, Processors: 4, Seed: 12345}
}

// TestMetricsMatchStats pins the metric instruments to the statistics
// they run alongside: the miss taxonomy, prefetch counters and engine
// dispatch count must agree exactly.
func TestMetricsMatchStats(t *testing.T) {
	cfg := obsConfig(Seq)
	cfg.CollectMetrics = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Metrics) == 0 {
		t.Fatal("CollectMetrics produced no snapshot")
	}
	totals := res.Metrics.Totals()

	var cold, coh, repl, issued, useful, misses int64
	for i := range res.Stats.Nodes {
		n := &res.Stats.Nodes[i]
		cold += n.ColdMisses
		coh += n.CoherenceMisses
		repl += n.ReplacementMisses
		issued += n.PrefetchesIssued
		useful += n.PrefetchesUseful
		misses += n.ReadMisses
	}
	for _, c := range []struct {
		name string
		want int64
	}{
		{"node.miss.cold", cold},
		{"node.miss.coherence", coh},
		{"node.miss.replacement", repl},
		{"node.prefetch.issued", issued},
		{"node.prefetch.useful", useful},
	} {
		if got := totals[c.name]; got != c.want {
			t.Errorf("%s = %d, want %d (stats)", c.name, got, c.want)
		}
	}
	if got := totals["node.miss.cold"] + totals["node.miss.coherence"] + totals["node.miss.replacement"]; got != misses {
		t.Errorf("miss classes sum to %d, stats count %d read misses", got, misses)
	}
	if totals["engine.events"] == 0 {
		t.Error("engine.events = 0, want dispatched events")
	}
	if got, ok := res.Metrics.Get("node0.read.miss.stall.count"); !ok || got == 0 {
		t.Errorf("node0.read.miss.stall.count = %d,%v, want observations", got, ok)
	}
}

// TestSpanDifferential is the acceptance check that span and timeline
// collection is purely observational: a run with both attached
// produces byte-identical statistics to the same run without.
func TestSpanDifferential(t *testing.T) {
	plain, err := Run(obsConfig(Seq))
	if err != nil {
		t.Fatal(err)
	}

	var spanBuf, tlBuf bytes.Buffer
	cfg := obsConfig(Seq)
	cfg.Spans = &SpanConfig{W: &spanBuf, Cap: 1 << 12}
	cfg.Timeline = &TimelineConfig{Window: 50000, W: &tlBuf}
	obs, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	if got, want := StatsDigest(obs.Stats), StatsDigest(plain.Stats); got != want {
		t.Fatalf("span/timeline collection changed the stats digest: %s != %s", got, want)
	}
	if !reflect.DeepEqual(obs.Stats, plain.Stats) {
		t.Fatal("span/timeline collection changed the statistics")
	}

	if obs.Spans == nil || obs.SpanTrace == nil {
		t.Fatal("run returned no span aggregates")
	}
	if obs.SpanTrace.Seen == 0 {
		t.Fatalf("span summary = %+v, want spans", obs.SpanTrace)
	}
	lines := strings.Split(strings.TrimRight(spanBuf.String(), "\n"), "\n")
	if uint64(len(lines)) != obs.SpanTrace.Kept {
		t.Fatalf("flushed %d JSONL lines, summary says kept %d", len(lines), obs.SpanTrace.Kept)
	}
	var span map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &span); err != nil {
		t.Fatalf("span line not JSON: %v (%s)", err, lines[0])
	}
	if len(obs.Timeline) == 0 {
		t.Fatal("run returned no timeline windows")
	}
	if got := strings.Count(tlBuf.String(), "\n"); got != len(obs.Timeline) {
		t.Fatalf("flushed %d timeline lines, result has %d windows", got, len(obs.Timeline))
	}
}

// TestSpanStatsReconcile is the span-vs-stats differential: the exact
// per-class span aggregates (which sampling and ring capacity never
// touch) must reconcile with the run's statistics — every read miss,
// prefetch and delayed hit has exactly one span, and the span waits
// sum to the stall-time totals the processor model charged. LU brings
// barrier synchronization into the split.
func TestSpanStatsReconcile(t *testing.T) {
	cfg := Config{App: "lu", Scheme: Seq, Processors: 4, Seed: 12345}
	cfg.Spans = &SpanConfig{Cap: 64} // deliberately tiny: aggregates stay exact
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Spans
	if st == nil {
		t.Fatal("no span aggregates")
	}

	var cold, coh, repl, issued, delayed, readStall, writeStall, syncStall int64
	for i := range res.Stats.Nodes {
		n := &res.Stats.Nodes[i]
		cold += n.ColdMisses
		coh += n.CoherenceMisses
		repl += n.ReplacementMisses
		issued += n.PrefetchesIssued
		delayed += n.DelayedHits
		readStall += int64(n.ReadStall)
		writeStall += int64(n.WriteStall)
		syncStall += int64(n.SyncStall)
	}

	// One span per classified demand miss.
	for _, c := range []struct {
		cls  SpanClass
		want int64
	}{
		{SpanMissCold, cold},
		{SpanMissCoherence, coh},
		{SpanMissReplacement, repl},
		{SpanPrefetchLate, delayed},
	} {
		if got := st.Class(c.cls).Count; got != c.want {
			t.Errorf("%v spans = %d, stats say %d", c.cls, got, c.want)
		}
	}
	// Every issued prefetch completes as timely or late.
	if got := st.Class(SpanPrefetch).Count + st.Class(SpanPrefetchLate).Count; got != issued {
		t.Errorf("prefetch spans = %d, stats issued %d", got, issued)
	}

	// The span waits partition the three stall-time totals exactly.
	sum := func(cls ...SpanClass) int64 {
		var s int64
		for _, c := range cls {
			s += st.Class(c).WaitPclocks
		}
		return s
	}
	if got := sum(SpanMissCold, SpanMissCoherence, SpanMissReplacement, SpanPrefetchLate, SpanSLCHit); got != readStall {
		t.Errorf("read-stall span waits = %d, stats charge %d", got, readStall)
	}
	if got := sum(SpanFLWB, SpanSCWrite); got != writeStall {
		t.Errorf("write-stall span waits = %d, stats charge %d", got, writeStall)
	}
	if got := sum(SpanAcquire, SpanBarrier, SpanRelease); got != syncStall {
		t.Errorf("sync-stall span waits = %d, stats charge %d", got, syncStall)
	}
	if syncStall == 0 || st.Class(SpanBarrier).Count == 0 {
		t.Error("LU run charged no barrier sync stall; the sync reconciliation is vacuous")
	}
	// Consumed prefetches report their fill-to-first-use idle time.
	if st.IdleCount == 0 {
		t.Error("no prefetch fill-to-use idle observations")
	}
}

// TestTimelineMatchesTotals: the windowed deltas must sum back to the
// run's end-of-run totals — nothing double-counted at window
// boundaries, nothing lost in the final partial window.
func TestTimelineMatchesTotals(t *testing.T) {
	cfg := obsConfig(Seq)
	cfg.Timeline = &TimelineConfig{Window: 100000}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Timeline) < 2 {
		t.Fatalf("%d windows, want a multi-window run", len(res.Timeline))
	}

	var p TimePoint
	prevT := int64(0)
	for _, w := range res.Timeline {
		if w.T <= prevT {
			t.Fatalf("window times not increasing: %d after %d", w.T, prevT)
		}
		prevT = w.T
		p.Reads += w.Reads
		p.Writes += w.Writes
		p.Misses += w.Misses
		p.PrefIssued += w.PrefIssued
		p.ReadStall += w.ReadStall
		p.NetFlits += w.NetFlits
	}
	// The final window closes at processor completion time, or later
	// when in-flight transactions drained the event queue past it.
	if last := res.Timeline[len(res.Timeline)-1].T; last < int64(res.Stats.ExecTime) {
		t.Fatalf("last window at t=%d, run ended at %d", last, res.Stats.ExecTime)
	}

	var writes, readStall int64
	for i := range res.Stats.Nodes {
		writes += res.Stats.Nodes[i].Writes
		readStall += int64(res.Stats.Nodes[i].ReadStall)
	}
	if p.Reads != res.Stats.TotalReads() {
		t.Errorf("window reads sum to %d, stats count %d", p.Reads, res.Stats.TotalReads())
	}
	if p.Writes != writes {
		t.Errorf("window writes sum to %d, stats count %d", p.Writes, writes)
	}
	if p.Misses != res.Stats.TotalReadMisses() {
		t.Errorf("window misses sum to %d, stats count %d", p.Misses, res.Stats.TotalReadMisses())
	}
	if p.PrefIssued != res.Stats.TotalPrefetchesIssued() {
		t.Errorf("window prefetches sum to %d, stats count %d", p.PrefIssued, res.Stats.TotalPrefetchesIssued())
	}
	if p.ReadStall != readStall {
		t.Errorf("window read stall sums to %d, stats charge %d", p.ReadStall, readStall)
	}
	if p.NetFlits != res.Stats.NetFlits {
		t.Errorf("window flits sum to %d, stats count %d", p.NetFlits, res.Stats.NetFlits)
	}
}

// TestManifestRoundTripFromRun writes the manifest of a real run to
// disk, reads it back and requires deep equality — the write → parse →
// deep-equal contract on live data rather than a synthetic document.
func TestManifestRoundTripFromRun(t *testing.T) {
	cfg := obsConfig(DDet)
	cfg.CollectMetrics = true
	cfg.Spans = &SpanConfig{Cap: 1 << 10, Sample: 4}
	start := time.Now()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := NewManifest(cfg, res, time.Since(start))
	if m.VirtualTime == 0 || m.StatsDigest == "" || len(m.Metrics) == 0 || m.Spans == nil {
		t.Fatalf("manifest incomplete: %+v", m)
	}
	if m.Config.App != "matmul" || m.Config.Scheme != string(DDet) ||
		m.Config.Processors != 4 || m.Config.Degree != 1 {
		t.Fatalf("manifest config = %+v", m.Config)
	}

	path := filepath.Join(t.TempDir(), "run.json")
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifestFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("manifest diverged on disk:\ngot  %+v\nwant %+v", got, m)
	}
}

// TestSweepManifestRecorder runs a parallel Figure 6 sweep with a
// recorder attached — while a second goroutine polls the live totals —
// and checks the aggregated sweep manifest: one run manifest per
// scheme plus exactly one shared baseline, with rows digested. The
// race detector covers the live reads.
func TestSweepManifestRecorder(t *testing.T) {
	rec := &ManifestRecorder{}
	var rowsSeen int
	o := ExpOptions{
		Procs: 4, Apps: []string{"matmul"}, Seed: 12345, Workers: 2,
		Record:       rec,
		OnRowIndexed: func(i, total int, row fmt.Stringer) { rowsSeen++ },
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				rec.Totals()
				rec.Len()
			}
		}
	}()
	rows, err := Figure6(o)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 || rowsSeen != 3 {
		t.Fatalf("rows = %d streamed = %d, want 3/3", len(rows), rowsSeen)
	}

	runs := rec.Runs()
	if len(runs) != 4 {
		t.Fatalf("recorded %d run manifests, want 4 (3 schemes + 1 shared baseline)", len(runs))
	}
	baselines := 0
	for _, r := range runs {
		if r.Config.Scheme == string(Baseline) {
			baselines++
		}
		if len(r.Metrics) == 0 {
			t.Errorf("run %s/%s has no metric totals", r.Config.App, r.Config.Scheme)
		}
	}
	if baselines != 1 {
		t.Fatalf("recorded %d baseline runs, want the shared one exactly once", baselines)
	}
	if tot := rec.Totals(); tot["engine.events"] == 0 {
		t.Error("sweep totals missing engine.events")
	}

	var rendered []string
	for _, r := range rows {
		rendered = append(rendered, r.String())
	}
	sm := rec.Sweep("figure6", []string{"-procs", "4"}, rendered, time.Second)
	if sm.Rows != 3 || sm.RowsDigest != DigestRows(rendered) || len(sm.Runs) != 4 {
		t.Fatalf("sweep manifest = %+v", sm)
	}
	var buf bytes.Buffer
	if err := sm.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSweepManifest(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, sm) {
		t.Fatal("sweep manifest round trip diverged")
	}
}
