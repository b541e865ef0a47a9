package prefetchsim

import (
	"context"
	"fmt"
	"strings"
	"time"

	"prefetchsim/internal/analysis"
	"prefetchsim/internal/machine"
	"prefetchsim/internal/runner"
)

// This file regenerates the paper's evaluation artifacts: Table 2
// (application characteristics, infinite SLC), Table 3 (finite 16 KB
// SLC), Table 4 (larger data sets) and Figure 6 (read misses, prefetch
// efficiency and read stall time for I-det, D-det and Seq relative to
// the baseline), plus the ablations discussed in §5.4/§6.
//
// Every sweep fans its independent simulations across ExpOptions.Workers
// goroutines through internal/runner. Rows come back in the same order
// as a serial sweep, a failed configuration reports its error without
// killing the rest, and the shared baseline run of each relative-metric
// sweep executes once per (app, machine) tuple instead of once per
// scheme.

// FiniteSLCBytes is the §5.3 finite second-level cache size.
const FiniteSLCBytes = 16384

// ExpOptions parameterize an experiment sweep.
type ExpOptions struct {
	// Ctx, when non-nil, bounds the sweep: once it ends, simulations
	// not yet started are skipped (their jobs fail with ctx.Err()) while
	// in-flight ones run to completion. Nil means no cancellation — the
	// sweep always runs to the end. A job server uses this to cancel
	// queued work without tearing the process down.
	Ctx context.Context
	// Procs is the machine size (default 16, the paper's).
	Procs int
	// Scale multiplies data-set sizes (default 1 = the paper's inputs).
	Scale int
	// Apps restricts the sweep (default: all six, paper order).
	Apps []string
	// Seed perturbs workload randomness.
	Seed uint64
	// Workers bounds how many simulations run concurrently: 0 means
	// GOMAXPROCS, 1 forces the serial reference path. Results are
	// identical either way.
	Workers int
	// Progress, when non-nil, is called after each sweep job completes
	// with the number done and the job total. Calls are serialized and
	// done is strictly increasing.
	Progress func(done, total int)
	// OnRowIndexed, when non-nil, streams each finished row with its
	// submission index (in completion order, serialized) as the sweep
	// executes, before the full row slice is returned. Callers that
	// must re-emit rows in deterministic submission order (the job
	// server streams the contiguous completed prefix) need to know
	// which row landed, not just how many. Rows of failed jobs are not
	// streamed.
	OnRowIndexed func(i, total int, row fmt.Stringer)
	// Record, when non-nil, collects one provenance manifest — config,
	// wall and virtual time, stats digest, metric totals — per
	// simulation the sweep executes (including shared baselines, once
	// each). See ManifestRecorder.
	Record *ManifestRecorder
}

// ctx resolves the sweep's cancellation context (nil = never ends).
func (o ExpOptions) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

func (o ExpOptions) withDefaults() ExpOptions {
	if o.Procs == 0 {
		o.Procs = 16
	}
	if o.Scale == 0 {
		o.Scale = 1
	}
	if len(o.Apps) == 0 {
		o.Apps = Apps()
	}
	return o
}

// run executes one simulation of a sweep. With a manifest recorder
// attached it forces metric collection and records the run's
// provenance; results are identical either way.
func (o ExpOptions) run(cfg Config) (*Result, error) {
	if o.Record == nil {
		return Run(cfg)
	}
	cfg.CollectMetrics = true
	start := time.Now()
	res, err := Run(cfg)
	if err != nil {
		return nil, err
	}
	o.Record.record(cfg, res, time.Since(start))
	return res, nil
}

// mapRows fans a sweep's jobs across the worker pool and streams every
// finished row to OnRowIndexed (and the count to Progress) as it
// lands, then gathers the submission-ordered rows. A cancelled
// ExpOptions.Ctx skips the jobs not yet started.
func mapRows[J any, R fmt.Stringer](o ExpOptions, jobs []J, fn func(i int, j J) (R, error)) ([]R, error) {
	var each func(done, total, i int, r R, err error)
	if o.Progress != nil || o.OnRowIndexed != nil {
		each = func(done, total, i int, r R, err error) {
			if o.OnRowIndexed != nil && err == nil {
				o.OnRowIndexed(i, total, r)
			}
			if o.Progress != nil {
				o.Progress(done, total)
			}
		}
	}
	rows, errs := runner.MapEachCtx(o.ctx(), o.Workers, jobs,
		func(_ context.Context, i int, j J) (R, error) { return fn(i, j) }, each)
	return gather(rows, errs)
}

// CharRow is one application's column of Table 2 or Table 3.
type CharRow struct {
	App string
	// ReplacementFrac is the fraction of read misses that are
	// replacement misses (Table 3's extra row; 0 under an infinite SLC).
	ReplacementFrac float64
	// InStrideFrac is "read misses within stride sequences".
	InStrideFrac float64
	// AvgSeqLen is the average stride-sequence length in block
	// references.
	AvgSeqLen float64
	// Dominant lists the top strides (blocks) by share.
	Dominant []StrideShare
}

func (r CharRow) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-9s repl %4.0f%%  in-stride %5.1f%%  avg-len %5.1f ",
		r.App, 100*r.ReplacementFrac, 100*r.InStrideFrac, r.AvgSeqLen)
	for i, s := range r.Dominant {
		if i == 2 {
			break
		}
		fmt.Fprintf(&b, " stride %d (%.0f%%)", s.Stride, 100*s.Share)
	}
	return b.String()
}

// charRow runs one application on the baseline machine and analyzes
// processor 0's miss stream.
func charRow(app string, slcBytes int, o ExpOptions) (CharRow, error) {
	res, err := o.run(Config{
		App: app, Scheme: Baseline, Processors: o.Procs, Scale: o.Scale,
		Seed: o.Seed, SLCBytes: slcBytes, CollectCharacteristics: true,
	})
	if err != nil {
		return CharRow{}, err
	}
	row := CharRow{
		App:          app,
		InStrideFrac: res.Chars.FracInSequences(),
		AvgSeqLen:    res.Chars.AvgSeqLen(),
		Dominant:     res.Chars.Strides(),
	}
	if misses := res.Stats.TotalReadMisses(); misses > 0 {
		var repl int64
		for i := range res.Stats.Nodes {
			repl += res.Stats.Nodes[i].ReplacementMisses
		}
		row.ReplacementFrac = float64(repl) / float64(misses)
	}
	return row, nil
}

// charTable runs one characteristics column per application in
// parallel. Rows of failed applications are dropped; their errors come
// back joined, alongside the successful rows.
func charTable(o ExpOptions, slcBytes int) ([]CharRow, error) {
	o = o.withDefaults()
	return mapRows(o, o.Apps, func(_ int, app string) (CharRow, error) {
		return charRow(app, slcBytes, o)
	})
}

// Table2 reproduces the paper's Table 2: application characteristics
// under an infinitely large SLC.
func Table2(o ExpOptions) ([]CharRow, error) {
	return charTable(o, 0)
}

// Table3 reproduces the paper's Table 3: the same characteristics under
// a finite 16 KB direct-mapped SLC, where replacement misses appear.
func Table3(o ExpOptions) ([]CharRow, error) {
	return charTable(o, FiniteSLCBytes)
}

// TrendRow is one application's column of Table 4: how the key
// characteristics move with a larger data set.
type TrendRow struct {
	App          string
	Small, Large CharRow
	// FracTrend and LenTrend are the paper's qualitative entries:
	// "higher"/"lower"/"about the same" and "longer"/"shorter"/"limited".
	FracTrend string
	LenTrend  string
}

func (r TrendRow) String() string {
	return fmt.Sprintf("%-9s in-stride %5.1f%% → %5.1f%% (%s)   avg-len %5.1f → %5.1f (%s)",
		r.App, 100*r.Small.InStrideFrac, 100*r.Large.InStrideFrac, r.FracTrend,
		r.Small.AvgSeqLen, r.Large.AvgSeqLen, r.LenTrend)
}

func trend(small, large, sameBand float64, up, down, same string) string {
	switch {
	case large > small*(1+sameBand):
		return up
	case large < small*(1-sameBand):
		return down
	default:
		return same
	}
}

// Table4 reproduces the paper's Table 4: expected characteristics for
// larger data sets under an infinite SLC. As in the paper, PTHOR is
// excluded ("because of time limitations for simulations").
func Table4(o ExpOptions) ([]TrendRow, error) {
	o = o.withDefaults()
	var apps []string
	for _, a := range o.Apps {
		if a != "pthor" {
			apps = append(apps, a)
		}
	}
	rows, err := mapRows(o, apps, func(_ int, app string) (TrendRow, error) {
		small, err := charRow(app, 0, o)
		if err != nil {
			return TrendRow{}, err
		}
		ol := o
		ol.Scale = o.Scale + 1
		large, err := charRow(app, 0, ol)
		if err != nil {
			return TrendRow{}, err
		}
		return TrendRow{
			App: app, Small: small, Large: large,
			FracTrend: trend(small.InStrideFrac, large.InStrideFrac, 0.05,
				"higher", "lower", "about the same"),
			LenTrend: trend(small.AvgSeqLen, large.AvgSeqLen, 0.10,
				"longer", "shorter", "limited"),
		}, nil
	})
	return rows, err
}

// Fig6Row is one bar of Figure 6: a scheme's read misses and read stall
// time relative to the baseline, and its prefetch efficiency.
type Fig6Row struct {
	App    string
	Scheme Scheme
	// RelMisses is read misses relative to the baseline (Figure 6 top).
	RelMisses float64
	// Efficiency is useful/issued prefetches (Figure 6 middle).
	Efficiency float64
	// RelStall is read stall time relative to the baseline (Figure 6
	// bottom).
	RelStall float64
	// RelTraffic is network flit-hops relative to the baseline (the
	// §5.2 traffic discussion).
	RelTraffic float64
}

func (r Fig6Row) String() string {
	return fmt.Sprintf("%-9s %-8s misses %5.1f%%  efficiency %5.1f%%  stall %5.1f%%  traffic %5.1f%%",
		r.App, r.Scheme, 100*r.RelMisses, 100*r.Efficiency, 100*r.RelStall, 100*r.RelTraffic)
}

// Figure6 reproduces the paper's Figure 6 for the given schemes
// (default: I-det, D-det, Seq with degree 1, as in the paper).
func Figure6(o ExpOptions, schemes ...Scheme) ([]Fig6Row, error) {
	return figure6(o, 0, schemes...)
}

// Figure6Finite runs the same comparison under the §5.3 finite SLC.
func Figure6Finite(o ExpOptions, schemes ...Scheme) ([]Fig6Row, error) {
	return figure6(o, FiniteSLCBytes, schemes...)
}

func figure6(o ExpOptions, slcBytes int, schemes ...Scheme) ([]Fig6Row, error) {
	o = o.withDefaults()
	if len(schemes) == 0 {
		schemes = Schemes()
	}
	type job struct {
		app    string
		scheme Scheme
	}
	var jobs []job
	for _, app := range o.Apps {
		for _, s := range schemes {
			jobs = append(jobs, job{app, s})
		}
	}
	var base baselineCache
	return mapRows(o, jobs, func(_ int, j job) (Fig6Row, error) {
		baseRes, err := base.get(o, Config{App: j.app, Scheme: Baseline,
			Processors: o.Procs, Scale: o.Scale, Seed: o.Seed, SLCBytes: slcBytes})
		if err != nil {
			return Fig6Row{}, err
		}
		res, err := o.run(Config{App: j.app, Scheme: j.scheme, Degree: 1,
			Processors: o.Procs, Scale: o.Scale, Seed: o.Seed, SLCBytes: slcBytes})
		if err != nil {
			return Fig6Row{}, err
		}
		return fig6Row(j.app, j.scheme, baseRes, res), nil
	})
}

// StallRow is one app×scheme execution-time decomposition: the share
// of aggregate processor time spent busy versus stalled on reads,
// writes and synchronization — the stall split behind Figure 6's bars
// (and the reference cmd/traceview reproduces from span data alone).
type StallRow struct {
	App    string
	Scheme Scheme
	// ExecTime is the machine execution time in pclocks.
	ExecTime int64
	// Busy, Read, Write and Sync are fractions of the summed per-node
	// execution time.
	Busy, Read, Write, Sync float64
}

func (r StallRow) String() string {
	return fmt.Sprintf("%-9s %-8s busy %5.1f%%  read %5.1f%%  write %5.1f%%  sync %5.1f%%  exec %d",
		r.App, r.Scheme, 100*r.Busy, 100*r.Read, 100*r.Write, 100*r.Sync, r.ExecTime)
}

// StallSplit computes one result's execution-time decomposition.
func StallSplit(app string, s Scheme, res *Result) StallRow {
	row := StallRow{App: app, Scheme: s, ExecTime: int64(res.Stats.ExecTime)}
	var exec, read, write, syn int64
	for i := range res.Stats.Nodes {
		n := &res.Stats.Nodes[i]
		exec += int64(n.ExecTime)
		read += int64(n.ReadStall)
		write += int64(n.WriteStall)
		syn += int64(n.SyncStall)
	}
	if exec == 0 {
		return row
	}
	row.Read = float64(read) / float64(exec)
	row.Write = float64(write) / float64(exec)
	row.Sync = float64(syn) / float64(exec)
	row.Busy = 1 - row.Read - row.Write - row.Sync
	return row
}

// StallBreakdown runs one decomposition row per app×scheme (schemes
// default to Baseline plus the Figure 6 schemes, degree 1).
func StallBreakdown(o ExpOptions, schemes ...Scheme) ([]StallRow, error) {
	o = o.withDefaults()
	if len(schemes) == 0 {
		schemes = append([]Scheme{Baseline}, Schemes()...)
	}
	type job struct {
		app    string
		scheme Scheme
	}
	var jobs []job
	for _, app := range o.Apps {
		for _, s := range schemes {
			jobs = append(jobs, job{app, s})
		}
	}
	return mapRows(o, jobs, func(_ int, j job) (StallRow, error) {
		res, err := o.run(Config{App: j.app, Scheme: j.scheme, Degree: 1,
			Processors: o.Procs, Scale: o.Scale, Seed: o.Seed})
		if err != nil {
			return StallRow{}, err
		}
		return StallSplit(j.app, j.scheme, res), nil
	})
}

func fig6Row(app string, s Scheme, base, res *Result) Fig6Row {
	row := Fig6Row{App: app, Scheme: s, Efficiency: res.Stats.PrefetchEfficiency()}
	if bm := base.Stats.TotalReadMisses(); bm > 0 {
		row.RelMisses = float64(res.Stats.TotalReadMisses()) / float64(bm)
	}
	if bs := base.Stats.TotalReadStall(); bs > 0 {
		row.RelStall = float64(res.Stats.TotalReadStall()) / float64(bs)
	}
	if bt := base.Stats.NetFlitHops; bt > 0 {
		row.RelTraffic = float64(res.Stats.NetFlitHops) / float64(bt)
	}
	return row
}

// DegreeSweep runs one application and scheme across prefetch degrees
// (the §6 observation that d makes little difference for this
// prefetching phase).
func DegreeSweep(app string, scheme Scheme, degrees []int, o ExpOptions) ([]Fig6Row, error) {
	o = o.withDefaults()
	var base baselineCache
	return mapRows(o, degrees, func(_ int, d int) (Fig6Row, error) {
		baseRes, err := base.get(o, Config{App: app, Scheme: Baseline,
			Processors: o.Procs, Scale: o.Scale, Seed: o.Seed})
		if err != nil {
			return Fig6Row{}, err
		}
		res, err := o.run(Config{App: app, Scheme: scheme, Degree: d,
			Processors: o.Procs, Scale: o.Scale, Seed: o.Seed})
		if err != nil {
			return Fig6Row{}, err
		}
		return fig6Row(app, Scheme(fmt.Sprintf("%s-d%d", scheme, d)), baseRes, res), nil
	})
}

// SLCSweep runs one application and scheme across finite SLC sizes,
// extending the §5.3 study.
func SLCSweep(app string, scheme Scheme, sizes []int, o ExpOptions) ([]Fig6Row, error) {
	o = o.withDefaults()
	var base baselineCache
	return mapRows(o, sizes, func(_ int, size int) (Fig6Row, error) {
		baseRes, err := base.get(o, Config{App: app, Scheme: Baseline,
			Processors: o.Procs, Scale: o.Scale, Seed: o.Seed, SLCBytes: size})
		if err != nil {
			return Fig6Row{}, err
		}
		res, err := o.run(Config{App: app, Scheme: scheme, Degree: 1,
			Processors: o.Procs, Scale: o.Scale, Seed: o.Seed, SLCBytes: size})
		if err != nil {
			return Fig6Row{}, err
		}
		return fig6Row(app, Scheme(fmt.Sprintf("%s-slc%dK", scheme, size/1024)), baseRes, res), nil
	})
}

// ExtensionCompare runs the §6 extension schemes next to their paper
// counterparts on one application: the lookahead variants (Baer–Chen's
// lookahead-PC, Hagersten's adaptive distance) and the hybrid
// software-assisted scheme.
func ExtensionCompare(app string, o ExpOptions) ([]Fig6Row, error) {
	o.Apps = []string{app}
	return Figure6(o, IDet, IDetLA, DDet, DDetLA, Seq, Hybrid)
}

// ZooCompare runs the modern prefetcher zoo (Markov, Perceptron,
// BestOffset) next to the paper's schemes on one application —
// typically one of the pointer-heavy extras (listchase, hashjoin, bfs)
// the zoo exists for, but any registered workload works. It uses the
// §5.3 finite SLC: correlation prefetching only has work to do when the
// working set exceeds the cache (under an infinite SLC a repeated
// traversal misses exactly once, so there is nothing left to replay).
func ZooCompare(app string, o ExpOptions) ([]Fig6Row, error) {
	o.Apps = []string{app}
	return Figure6Finite(o, append([]Scheme{IDet, DDet, Seq, Adaptive}, ZooSchemes()...)...)
}

// ConsistencyRow is one entry of the consistency ablation.
type ConsistencyRow struct {
	App string
	// RelExecTime is SC execution time relative to RC.
	RelExecTime float64
	// RelWriteStall is SC write stall relative to RC total stall.
	SCWriteStall int64
	RCWriteStall int64
}

func (r ConsistencyRow) String() string {
	return fmt.Sprintf("%-9s exec time under SC %5.1f%% of RC  (write stall %d vs %d pclocks)",
		r.App, 100*r.RelExecTime, r.SCWriteStall, r.RCWriteStall)
}

// ConsistencyCompare quantifies the paper's release-consistency
// assumption ([11]): how much longer each application runs when writes
// block (sequential consistency).
func ConsistencyCompare(o ExpOptions) ([]ConsistencyRow, error) {
	o = o.withDefaults()
	return mapRows(o, o.Apps, func(_ int, app string) (ConsistencyRow, error) {
		rc, err := o.run(Config{App: app, Processors: o.Procs, Scale: o.Scale, Seed: o.Seed})
		if err != nil {
			return ConsistencyRow{}, err
		}
		sc, err := o.run(Config{App: app, Processors: o.Procs, Scale: o.Scale, Seed: o.Seed,
			SequentialConsistency: true})
		if err != nil {
			return ConsistencyRow{}, err
		}
		row := ConsistencyRow{App: app}
		if rc.Stats.ExecTime > 0 {
			row.RelExecTime = float64(sc.Stats.ExecTime) / float64(rc.Stats.ExecTime)
		}
		for i := range sc.Stats.Nodes {
			row.SCWriteStall += int64(sc.Stats.Nodes[i].WriteStall)
			row.RCWriteStall += int64(rc.Stats.Nodes[i].WriteStall)
		}
		return row, nil
	})
}

// BandwidthRow is one entry of the §7 bandwidth-limitation study.
type BandwidthRow struct {
	App    string
	Factor int // bandwidth divisor (1 = the paper's machine)
	// Stall ratios relative to the *same-bandwidth* baseline: the
	// paper's claim is that sequential prefetching's advantage erodes
	// as bandwidth tightens, because of its useless prefetches.
	SeqRelStall    float64
	StrideRelStall float64 // I-det
}

func (r BandwidthRow) String() string {
	return fmt.Sprintf("%-9s bandwidth/%d  read stall vs baseline: Seq %5.1f%%  I-det %5.1f%%",
		r.App, r.Factor, 100*r.SeqRelStall, 100*r.StrideRelStall)
}

// BandwidthSweep tests the paper's closing claim (§7): "because of the
// lower fraction of useless prefetches, stride prefetching can perform
// better than sequential prefetching if the memory-system bandwidth is
// not sufficient". For each bandwidth divisor it runs baseline, Seq and
// I-det at that bandwidth and reports the schemes' stall relative to
// the equally-throttled baseline.
func BandwidthSweep(app string, factors []int, o ExpOptions) ([]BandwidthRow, error) {
	o = o.withDefaults()
	return mapRows(o, factors, func(_ int, f int) (BandwidthRow, error) {
		base, err := o.run(Config{App: app, Processors: o.Procs, Scale: o.Scale,
			Seed: o.Seed, BandwidthFactor: f})
		if err != nil {
			return BandwidthRow{}, err
		}
		row := BandwidthRow{App: app, Factor: f}
		for _, s := range []Scheme{Seq, IDet} {
			res, err := o.run(Config{App: app, Scheme: s, Degree: 1,
				Processors: o.Procs, Scale: o.Scale, Seed: o.Seed, BandwidthFactor: f})
			if err != nil {
				return BandwidthRow{}, err
			}
			rel := 0.0
			if bs := base.Stats.TotalReadStall(); bs > 0 {
				rel = float64(res.Stats.TotalReadStall()) / float64(bs)
			}
			if s == Seq {
				row.SeqRelStall = rel
			} else {
				row.StrideRelStall = rel
			}
		}
		return row, nil
	})
}

// AssocRow is one entry of the associativity ablation.
type AssocRow struct {
	App             string
	Ways            int
	ReplacementFrac float64
	RelMissesVsDM   float64 // total misses vs the direct-mapped run
}

func (r AssocRow) String() string {
	return fmt.Sprintf("%-9s %d-way  replacement misses %5.1f%%  total misses %5.1f%% of direct-mapped",
		r.App, r.Ways, 100*r.ReplacementFrac, 100*r.RelMissesVsDM)
}

// AssocSweep extends §5.3: how much of the finite-SLC replacement-miss
// traffic is conflict (recovered by associativity) rather than capacity.
func AssocSweep(app string, ways []int, o ExpOptions) ([]AssocRow, error) {
	o = o.withDefaults()
	// The runs are independent; only the relative-misses column depends
	// on the first (direct-mapped) run, so normalize after the fan-out.
	results, errs := runner.MapCtx(o.ctx(), o.Workers, ways, func(_ context.Context, _ int, w int) (*Result, error) {
		return o.run(Config{App: app, Processors: o.Procs, Scale: o.Scale,
			Seed: o.Seed, SLCBytes: FiniteSLCBytes, SLCWays: w})
	}, o.Progress)
	var dmMisses int64
	var rows []AssocRow
	for i, res := range results {
		if errs[i] != nil {
			continue
		}
		misses := res.Stats.TotalReadMisses()
		if i == 0 {
			dmMisses = misses
		}
		var repl int64
		for n := range res.Stats.Nodes {
			repl += res.Stats.Nodes[n].ReplacementMisses
		}
		row := AssocRow{App: app, Ways: ways[i]}
		if misses > 0 {
			row.ReplacementFrac = float64(repl) / float64(misses)
		}
		if dmMisses > 0 {
			row.RelMissesVsDM = float64(misses) / float64(dmMisses)
		}
		rows = append(rows, row)
	}
	_, err := gather(results, errs)
	return rows, err
}

// RepresentativenessRow summarizes how much one processor's miss
// characteristics deviate from the machine-wide spread — the check
// behind the paper's §5.1 note that a single processor "has been shown
// to be representative".
type RepresentativenessRow struct {
	App                  string
	MinFrac, MaxFrac     float64 // per-node in-stride fraction range
	Node0Frac            float64
	MinAvgLen, MaxAvgLen float64
	Node0AvgLen          float64
}

func (r RepresentativenessRow) String() string {
	return fmt.Sprintf("%-9s in-stride: node0 %5.1f%% (all nodes %5.1f–%5.1f%%)  avg-len: node0 %5.1f (all %5.1f–%5.1f)",
		r.App, 100*r.Node0Frac, 100*r.MinFrac, 100*r.MaxFrac,
		r.Node0AvgLen, r.MinAvgLen, r.MaxAvgLen)
}

// Representativeness runs the baseline machine collecting every
// processor's miss stream and reports the spread of the Table 2
// metrics across processors.
func Representativeness(app string, o ExpOptions) (RepresentativenessRow, error) {
	o = o.withDefaults()
	prog, err := BuildApp(app, Params{Procs: o.Procs, Scale: o.Scale, Seed: o.Seed})
	if err != nil {
		return RepresentativenessRow{}, err
	}
	defer prog.Stop()

	mcfg := machine.DefaultConfig()
	mcfg.Processors = o.Procs
	col := analysis.NewMultiCollector(o.Procs)
	mcfg.MissObserver = col.Observe
	m, err := machine.New(mcfg, prog)
	if err != nil {
		return RepresentativenessRow{}, err
	}
	if _, err := m.Run(); err != nil {
		return RepresentativenessRow{}, err
	}

	row := RepresentativenessRow{App: app, MinFrac: 2, MinAvgLen: 1 << 30}
	for i, r := range col.Results() {
		frac, l := r.FracInSequences(), r.AvgSeqLen()
		if i == 0 {
			row.Node0Frac, row.Node0AvgLen = frac, l
		}
		if frac < row.MinFrac {
			row.MinFrac = frac
		}
		if frac > row.MaxFrac {
			row.MaxFrac = frac
		}
		if l < row.MinAvgLen {
			row.MinAvgLen = l
		}
		if l > row.MaxAvgLen {
			row.MaxAvgLen = l
		}
	}
	return row, nil
}

// RenderBars draws Figure 6's three panels as ASCII bar charts, one bar
// per (application, scheme), mirroring the paper's presentation.
func RenderBars(rows []Fig6Row) string {
	var b strings.Builder
	panel := func(title string, value func(Fig6Row) float64) {
		fmt.Fprintf(&b, "%s\n", title)
		app := ""
		for _, r := range rows {
			if r.App != app {
				app = r.App
				fmt.Fprintf(&b, "  %s\n", app)
			}
			v := value(r)
			width := int(v*40 + 0.5)
			if width > 60 {
				width = 60
			}
			fmt.Fprintf(&b, "    %-8s %6.1f%% %s\n", r.Scheme, 100*v, strings.Repeat("█", width))
		}
		b.WriteString("\n")
	}
	panel("Read misses relative to baseline", func(r Fig6Row) float64 { return r.RelMisses })
	panel("Prefetch efficiency", func(r Fig6Row) float64 { return r.Efficiency })
	panel("Read stall time relative to baseline", func(r Fig6Row) float64 { return r.RelStall })
	return b.String()
}
