package prefetchsim_test

import (
	"bytes"
	"strings"
	"testing"

	"prefetchsim"
)

// small returns a fast configuration for API tests.
func small(app string, scheme prefetchsim.Scheme) prefetchsim.Config {
	return prefetchsim.Config{App: app, Scheme: scheme, Processors: 4}
}

func TestAppsListsPaperOrder(t *testing.T) {
	want := []string{"mp3d", "cholesky", "water", "lu", "ocean", "pthor"}
	got := prefetchsim.Apps()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Apps() = %v", got)
		}
	}
}

func TestRunUnknownAppFails(t *testing.T) {
	if _, err := prefetchsim.Run(prefetchsim.Config{App: "fft"}); err == nil {
		t.Fatal("unknown app accepted")
	}
}

func TestRunUnknownSchemeFails(t *testing.T) {
	if _, err := prefetchsim.Run(small("lu", "magic")); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}

// TestRunRejectsUnbuildableConfigs: parameters a component cannot be
// built with are errors, not panics — a job server runs whatever a
// client submits.
func TestRunRejectsUnbuildableConfigs(t *testing.T) {
	for name, c := range map[string]prefetchsim.Config{
		"ocean on 2 processors": {App: "ocean", Processors: 2},
		"65 processors":         {App: "matmul", Processors: 65},
		"negative degree":       {App: "matmul", Processors: 4, Scheme: prefetchsim.Seq, Degree: -1},
		"100-byte SLC":          {App: "matmul", Processors: 4, SLCBytes: 100},
		"3-way 16 KB SLC":       {App: "matmul", Processors: 4, SLCBytes: 16384, SLCWays: 3},
	} {
		if _, err := prefetchsim.Run(c); err == nil {
			t.Errorf("%s: Run returned no error", name)
		}
	}
}

func TestRunBaselineCholesky(t *testing.T) {
	res, err := prefetchsim.Run(small("cholesky", prefetchsim.Baseline))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.TotalReadMisses() == 0 || res.Stats.ExecTime == 0 {
		t.Fatalf("degenerate run: %v", res.Stats)
	}
	if res.Stats.TotalPrefetchesIssued() != 0 {
		t.Fatal("baseline issued prefetches")
	}
	if res.Chars != nil {
		t.Fatal("characteristics attached without being requested")
	}
}

func TestRunCollectsCharacteristics(t *testing.T) {
	cfg := small("cholesky", prefetchsim.Baseline)
	cfg.CollectCharacteristics = true
	res, err := prefetchsim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Chars == nil || res.Chars.TotalMisses == 0 {
		t.Fatal("no characteristics collected")
	}
	if d := res.Chars.Dominant(); d.Stride != 1 {
		t.Fatalf("cholesky dominant stride = %d, want 1", d.Stride)
	}
}

func TestSchemesReduceMissesOnCholesky(t *testing.T) {
	base, err := prefetchsim.Run(small("cholesky", prefetchsim.Baseline))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range append(prefetchsim.Schemes(), prefetchsim.Adaptive) {
		res, err := prefetchsim.Run(small("cholesky", s))
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.TotalPrefetchesIssued() == 0 {
			t.Errorf("%s issued no prefetches", s)
		}
		if res.Stats.TotalReadMisses() >= base.Stats.TotalReadMisses() {
			t.Errorf("%s did not reduce cholesky misses (%d vs %d)",
				s, res.Stats.TotalReadMisses(), base.Stats.TotalReadMisses())
		}
		if res.Stats.TotalReadStall() >= base.Stats.TotalReadStall() {
			t.Errorf("%s did not reduce cholesky read stall", s)
		}
	}
}

func TestFiniteSLCProducesReplacementMisses(t *testing.T) {
	cfg := small("ocean", prefetchsim.Baseline)
	cfg.SLCBytes = prefetchsim.FiniteSLCBytes
	res, err := prefetchsim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var repl int64
	for i := range res.Stats.Nodes {
		repl += res.Stats.Nodes[i].ReplacementMisses
	}
	if repl == 0 {
		t.Fatal("16 KB SLC produced no replacement misses on ocean")
	}
}

func TestCustomProgramAPI(t *testing.T) {
	build := func() *prefetchsim.Program {
		space := prefetchsim.NewSpace()
		arr := prefetchsim.NewArray(space, 256, 64, 64)
		return prefetchsim.NewProgram("custom", 2, func(p int, g *prefetchsim.Gen) {
			for i := p; i < 256; i += 2 {
				g.Read(prefetchsim.PC(1), arr.Elem(i), 3)
			}
			g.Barrier()
		})
	}
	base, err := prefetchsim.Run(prefetchsim.Config{
		Program: build(), Processors: 2, Scheme: prefetchsim.Baseline,
		CollectCharacteristics: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 64-byte records, interleaved ownership: each processor strides by
	// 4 blocks.
	if d := base.Chars.Dominant(); d.Stride != 4 {
		t.Fatalf("custom program dominant stride = %d, want 4", d.Stride)
	}

	res, err := prefetchsim.Run(prefetchsim.Config{
		Program: build(), Processors: 2, Scheme: prefetchsim.IDet,
		CollectCharacteristics: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.TotalPrefetchesIssued() == 0 {
		t.Fatal("I-det silent on a pure stride workload")
	}
	if res.Stats.TotalReadMisses() >= base.Stats.TotalReadMisses() {
		t.Fatal("I-det did not remove stride misses")
	}
	// With prefetching active the residual misses are the page-boundary
	// restarts (prefetches never cross a page): the residual stream
	// strides by one page, 128 blocks.
	if d := res.Chars.Dominant(); d.Stride != 128 {
		t.Fatalf("residual dominant stride = %d, want 128 (page-bounded prefetching)", d.Stride)
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := prefetchsim.Run(small("mp3d", prefetchsim.Seq))
	if err != nil {
		t.Fatal(err)
	}
	b, err := prefetchsim.Run(small("mp3d", prefetchsim.Seq))
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats.ExecTime != b.Stats.ExecTime ||
		a.Stats.TotalReadMisses() != b.Stats.TotalReadMisses() ||
		a.Stats.TotalPrefetchesIssued() != b.Stats.TotalPrefetchesIssued() {
		t.Fatalf("runs diverged:\n%v\nvs\n%v", a.Stats, b.Stats)
	}
}

func TestExperimentRowsFormat(t *testing.T) {
	row := prefetchsim.Fig6Row{App: "lu", Scheme: prefetchsim.Seq,
		RelMisses: 0.5, Efficiency: 0.9, RelStall: 0.6, RelTraffic: 1.1}
	s := row.String()
	for _, want := range []string{"lu", "Seq", "50.0%", "90.0%"} {
		if !strings.Contains(s, want) {
			t.Errorf("Fig6Row.String() missing %q: %s", want, s)
		}
	}
}

func TestTable2SmallMachine(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-application sweep")
	}
	rows, err := prefetchsim.Table2(prefetchsim.ExpOptions{
		Procs: 4, Apps: []string{"water", "pthor"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].App != "water" || rows[0].Dominant[0].Stride != 21 {
		t.Fatalf("water row = %+v", rows[0])
	}
	if rows[1].InStrideFrac > 0.3 {
		t.Fatalf("pthor in-stride = %v, want low", rows[1].InStrideFrac)
	}
}

func TestFigure6SmallMachine(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-scheme sweep")
	}
	rows, err := prefetchsim.Figure6(prefetchsim.ExpOptions{
		Procs: 4, Apps: []string{"water"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3 schemes", len(rows))
	}
	// The paper's Water result: stride prefetching removes most misses
	// (long 21-block strides), and I-det has high efficiency.
	for _, r := range rows {
		if r.Scheme == prefetchsim.IDet {
			if r.RelMisses > 0.6 {
				t.Errorf("I-det on water: relative misses %.2f, want < 0.6", r.RelMisses)
			}
			if r.Efficiency < 0.8 {
				t.Errorf("I-det efficiency %.2f, want >= 0.8", r.Efficiency)
			}
		}
	}
}

func TestDegreeSweepRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	rows, err := prefetchsim.DegreeSweep("water", prefetchsim.Seq, []int{1, 2}, prefetchsim.ExpOptions{Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
}

func TestExtensionSchemesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	base, err := prefetchsim.Run(small("water", prefetchsim.Baseline))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []prefetchsim.Scheme{
		prefetchsim.IDetLA, prefetchsim.DDetLA, prefetchsim.Hybrid,
	} {
		res, err := prefetchsim.Run(small("water", s))
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.TotalPrefetchesIssued() == 0 {
			t.Errorf("%s issued no prefetches", s)
		}
		if res.Stats.TotalReadMisses() >= base.Stats.TotalReadMisses() {
			t.Errorf("%s did not reduce water misses", s)
		}
	}
}

func TestHybridOnCustomProgramNeedsHints(t *testing.T) {
	mk := func() *prefetchsim.Program {
		space := prefetchsim.NewSpace()
		arr := prefetchsim.NewArray(space, 128, 96, 96)
		return prefetchsim.NewProgram("hinted", 1, func(p int, g *prefetchsim.Gen) {
			for i := 0; i < 128; i++ {
				g.Read(prefetchsim.PC(5), arr.Elem(i), 40)
			}
		})
	}
	// Without hints the hybrid scheme is inert.
	noHints, err := prefetchsim.Run(prefetchsim.Config{
		Program: mk(), Processors: 1, Scheme: prefetchsim.Hybrid,
	})
	if err != nil {
		t.Fatal(err)
	}
	if noHints.Stats.TotalPrefetchesIssued() != 0 {
		t.Fatal("hybrid prefetched without hints")
	}
	// With the record stride supplied, it covers the stream.
	hinted, err := prefetchsim.Run(prefetchsim.Config{
		Program: mk(), Processors: 1, Scheme: prefetchsim.Hybrid,
		StrideHints: map[prefetchsim.PC]int64{5: 96},
	})
	if err != nil {
		t.Fatal(err)
	}
	if hinted.Stats.TotalReadMisses() >= noHints.Stats.TotalReadMisses() {
		t.Fatal("hinted hybrid did not reduce misses")
	}
}

func TestSequentialConsistencyConfig(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	cfg := small("mp3d", prefetchsim.Baseline)
	rc, err := prefetchsim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.SequentialConsistency = true
	sc, err := prefetchsim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Stats.ExecTime <= rc.Stats.ExecTime {
		t.Fatalf("SC exec time %d not above RC %d", sc.Stats.ExecTime, rc.Stats.ExecTime)
	}
}

func TestBandwidthFactorSlowsBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	full, err := prefetchsim.Run(small("mp3d", prefetchsim.Baseline))
	if err != nil {
		t.Fatal(err)
	}
	cfg := small("mp3d", prefetchsim.Baseline)
	cfg.BandwidthFactor = 4
	quarter, err := prefetchsim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if quarter.Stats.ExecTime <= full.Stats.ExecTime {
		t.Fatalf("quarter-bandwidth exec %d not above full %d",
			quarter.Stats.ExecTime, full.Stats.ExecTime)
	}
	// Miss counts are nearly bandwidth-independent (only coherence
	// races move with timing).
	fm, qm := full.Stats.TotalReadMisses(), quarter.Stats.TotalReadMisses()
	if diff := qm - fm; diff < -fm/100 || diff > fm/100 {
		t.Fatalf("bandwidth changed miss count by >1%%: %d vs %d", qm, fm)
	}
}

func TestBandwidthSweepShowsSeqErosion(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	rows, err := prefetchsim.BandwidthSweep("mp3d", []int{1, 4}, prefetchsim.ExpOptions{Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	// §7: sequential prefetching's stall advantage must erode as
	// bandwidth tightens (its useless prefetches congest the system).
	if rows[1].SeqRelStall <= rows[0].SeqRelStall {
		t.Fatalf("Seq stall advantage did not erode: %.3f → %.3f",
			rows[0].SeqRelStall, rows[1].SeqRelStall)
	}
}

func TestAssociativeSLC(t *testing.T) {
	// A surgical conflict workload: two blocks one SLC-span apart map to
	// the same direct-mapped set but coexist in a 2-way set. The 16 KB
	// SLC has 512 sets.
	build := func() *prefetchsim.Program {
		return prefetchsim.NewProgram("conflict", 1, func(p int, g *prefetchsim.Gen) {
			a := prefetchsim.Addr(4096)
			b := a + 512*32
			for i := 0; i < 200; i++ {
				g.Read(prefetchsim.PC(1), a, 200) // gaps defeat the FLC? no: FLC holds both
				g.Read(prefetchsim.PC(2), b, 200)
			}
		})
	}
	run := func(ways int) int64 {
		res, err := prefetchsim.Run(prefetchsim.Config{
			Program: build(), Processors: 1,
			SLCBytes: prefetchsim.FiniteSLCBytes, SLCWays: ways,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats.TotalReadMisses()
	}
	dm, twoWay := run(1), run(2)
	// Direct-mapped: both blocks fit the FLC, so after its two cold
	// misses everything hits the FLC — force SLC visibility by FLC
	// conflict: a and b are also 4 KB-multiple apart, sharing an FLC
	// set, so every access reaches the SLC. Direct-mapped SLC thrashes;
	// 2-way holds both.
	if dm < 100 {
		t.Fatalf("direct-mapped conflict workload missed only %d times; test premise broken", dm)
	}
	if twoWay > 4 {
		t.Fatalf("2-way SLC still missed %d times on a 2-block conflict set", twoWay)
	}
}

func TestMatmulWorkloadRegistered(t *testing.T) {
	res, err := prefetchsim.Run(prefetchsim.Config{
		App: "matmul", Scheme: prefetchsim.IDet, Processors: 4,
		CollectCharacteristics: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.TotalPrefetchesIssued() == 0 {
		t.Fatal("matmul produced no prefetching activity")
	}
	// But it must not be part of the paper's default sweeps.
	for _, name := range prefetchsim.Apps() {
		if name == "matmul" {
			t.Fatal("matmul leaked into the paper's application list")
		}
	}
}

func TestRecordReplayThroughAPI(t *testing.T) {
	prog, err := prefetchsim.BuildApp("matmul", prefetchsim.Params{Procs: 2, Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := prefetchsim.WriteProgram(&buf, prog); err != nil {
		t.Fatal(err)
	}
	replayed, err := prefetchsim.ReadProgram(&buf)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := prefetchsim.Run(prefetchsim.Config{
		Program: mustBuild(t, "matmul", 2), Processors: 2, Scheme: prefetchsim.Seq,
	})
	if err != nil {
		t.Fatal(err)
	}
	fromTrace, err := prefetchsim.Run(prefetchsim.Config{
		Program: replayed, Processors: 2, Scheme: prefetchsim.Seq,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Replaying the recorded trace must reproduce the generator run
	// exactly (the simulation is deterministic).
	if direct.Stats.ExecTime != fromTrace.Stats.ExecTime ||
		direct.Stats.TotalReadMisses() != fromTrace.Stats.TotalReadMisses() {
		t.Fatalf("trace replay diverged: exec %d vs %d, misses %d vs %d",
			direct.Stats.ExecTime, fromTrace.Stats.ExecTime,
			direct.Stats.TotalReadMisses(), fromTrace.Stats.TotalReadMisses())
	}
}

func mustBuild(t *testing.T, app string, procs int) *prefetchsim.Program {
	t.Helper()
	p, err := prefetchsim.BuildApp(app, prefetchsim.Params{Procs: procs, Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRepresentativeness(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	row, err := prefetchsim.Representativeness("lu", prefetchsim.ExpOptions{Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	// The paper's §5.1 claim: processor 0 is representative. The
	// in-stride fraction spread across processors must be tight.
	if row.MaxFrac-row.MinFrac > 0.1 {
		t.Fatalf("in-stride fraction spread %.3f–%.3f too wide; node 0 not representative",
			row.MinFrac, row.MaxFrac)
	}
	if row.Node0Frac < row.MinFrac || row.Node0Frac > row.MaxFrac {
		t.Fatal("node 0 outside the machine-wide range")
	}
}

func TestResultIncludesPerSiteBreakdown(t *testing.T) {
	cfg := small("ocean", prefetchsim.Baseline)
	cfg.CollectCharacteristics = true
	res, err := prefetchsim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sites) == 0 {
		t.Fatal("no per-site breakdown")
	}
	// Ordered by descending miss count; totals must match the overall
	// analysis.
	total := 0
	for i, s := range res.Sites {
		if i > 0 && s.Misses > res.Sites[i-1].Misses {
			t.Fatal("sites not ordered by miss count")
		}
		total += s.Misses
	}
	if total != res.Chars.TotalMisses {
		t.Fatalf("per-site misses sum %d != total %d", total, res.Chars.TotalMisses)
	}
}
