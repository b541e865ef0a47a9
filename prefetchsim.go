// Package prefetchsim is an architectural simulator reproducing
// Dahlgren and Stenström, "Effectiveness of Hardware-Based Stride and
// Sequential Prefetching in Shared-Memory Multiprocessors" (HPCA 1995).
//
// It models the paper's cache-coherent NUMA multiprocessor — 16
// processing nodes on a 4×4 wormhole mesh, write-through first-level
// caches, lockup-free write-back second-level caches, a full-map
// write-invalidate directory protocol, queue-based locks and release
// consistency — and the three prefetching schemes the paper compares:
// I-detection stride prefetching (a Baer–Chen reference prediction
// table), D-detection stride prefetching (Hagersten's miss-address
// scheme) and sequential prefetching — plus the extensions §6 of the
// paper discusses: adaptive sequential prefetching, lookahead variants
// of both stride detectors, and hybrid software-assisted prefetching.
//
// The simplest entry point runs one of the paper's six applications on
// one scheme:
//
//	res, err := prefetchsim.Run(prefetchsim.Config{App: "lu", Scheme: prefetchsim.Seq})
//	fmt.Println(res.Stats)
//
// Custom workloads plug in through NewProgram; see examples/customapp.
package prefetchsim

import (
	"fmt"
	"io"

	"prefetchsim/internal/analysis"
	"prefetchsim/internal/apps"
	"prefetchsim/internal/apps/workload"
	"prefetchsim/internal/machine"
	"prefetchsim/internal/mem"
	"prefetchsim/internal/obs"
	"prefetchsim/internal/prefetch"
	"prefetchsim/internal/stats"
	"prefetchsim/internal/trace"
)

// Re-exported building blocks. Aliases keep the implementation in
// internal packages while giving users one import.
type (
	// Program is a complete multiprocessor workload: one operation
	// stream per processor.
	Program = trace.Program
	// Op is one memory operation of a workload stream.
	Op = trace.Op
	// PC identifies a static load/store site (used by I-detection).
	PC = trace.PC
	// Gen emits a processor's operations inside NewProgram's body.
	Gen = workload.Gen
	// Params are the common application parameters.
	Params = workload.Params
	// Space allocates simulated shared memory for custom workloads.
	Space = mem.Space
	// Array is a contiguous allocation of fixed-size records.
	Array = mem.Array
	// Addr is a simulated virtual address.
	Addr = mem.Addr
	// Stats aggregates the measurements of one run.
	Stats = stats.Machine
	// NodeStats holds one processor's counters.
	NodeStats = stats.Node
	// Characteristics is the Table 2/3 stride-sequence analysis.
	Characteristics = analysis.Result
	// StrideShare is one entry of the stride distribution.
	StrideShare = analysis.StrideShare
	// SiteStat is one load site's row of the per-instruction miss
	// breakdown.
	SiteStat = analysis.SiteStat
)

// NewSpace returns an empty simulated address space.
func NewSpace() *Space { return mem.NewSpace() }

// NewArray allocates n records of recSize bytes, padded to pad bytes
// each (pad 0 means unpadded).
func NewArray(s *Space, n, recSize, pad int) Array { return mem.NewArray(s, n, recSize, pad) }

// NewProgram builds a custom workload: body runs once per processor in
// its own goroutine and emits that processor's operations through g.
func NewProgram(name string, procs int, body func(p int, g *Gen)) *Program {
	return workload.Build(name, procs, body)
}

// Apps lists the built-in applications in the paper's table order:
// mp3d, cholesky, water, lu, ocean, pthor.
func Apps() []string { return apps.Names() }

// ExtraApps lists the built-in workloads outside the paper's six:
// the §3.1 matmul example and the pointer-heavy kernels (listchase,
// hashjoin, bfs) added for the prefetcher zoo. Runnable by name,
// excluded from the default sweeps.
func ExtraApps() []string { return apps.Extras() }

// BuildApp constructs a built-in application's program without running
// it (for recording to a trace file, or custom machine drivers).
func BuildApp(name string, params Params) (*Program, error) {
	mk, err := apps.Get(name)
	if err != nil {
		return nil, err
	}
	return mk(params)
}

// WriteProgram serializes a workload to a portable trace file, draining
// it (record once, replay many times).
func WriteProgram(w io.Writer, prog *Program) error { return trace.WriteProgram(w, prog) }

// ReadProgram loads a workload recorded with WriteProgram.
func ReadProgram(r io.Reader) (*Program, error) { return trace.ReadProgram(r) }

// Scheme selects a prefetching scheme.
type Scheme string

// The schemes of the paper (§3) plus the extensions its §6 discusses.
const (
	// Baseline is the architecture with no prefetching.
	Baseline Scheme = "baseline"
	// IDet is I-detection stride prefetching (256-entry RPT).
	IDet Scheme = "I-det"
	// DDet is D-detection stride prefetching (Hagersten's scheme).
	DDet Scheme = "D-det"
	// Seq is fixed sequential prefetching.
	Seq Scheme = "Seq"
	// Adaptive is adaptive sequential prefetching (extension, after
	// Dahlgren, Dubois and Stenström [6]).
	Adaptive Scheme = "Adaptive"
	// IDetLA is I-detection with a dynamic lookahead distance, standing
	// in for Baer and Chen's lookahead-PC scheme (extension, §6 [1]).
	IDetLA Scheme = "I-det-LA"
	// DDetLA is D-detection with Hagersten's latency-adaptive
	// prefetching phase (extension, §6 [13]).
	DDetLA Scheme = "D-det-LA"
	// Hybrid is software-assisted stride prefetching: the workload
	// supplies per-load-site strides, no hardware detection (extension,
	// §6, after Bianchini and LeBlanc [2]). Requires stride hints — the
	// built-in applications provide theirs; custom programs pass
	// Config.StrideHints.
	Hybrid Scheme = "Hybrid"

	// The "zoo" schemes below are modern prefetchers outside the paper,
	// added to probe the irregular workloads its §7 leaves open.

	// Markov is correlation-based pointer-chase prefetching (after
	// Joseph–Grunwald; Srivastava and Navalakha, arXiv:1801.08088): a
	// table of miss-successor correlations replayed on re-visits. The
	// only scheme allowed to cross page boundaries, since it re-issues
	// previously referenced addresses.
	Markov Scheme = "Markov"
	// Perceptron is perceptron-learning prefetching (after Wang and Luo,
	// arXiv:1712.00905): candidate deltas scored by learned saturating
	// weights over (previous delta, PC, delta) features.
	Perceptron Scheme = "Perceptron"
	// BestOff is multi-offset best-offset prefetching (after Michaud;
	// the multi-stride scheme of Blom et al., arXiv:2412.16001): offsets
	// that empirically predicted recent misses are adopted for a phase.
	BestOff Scheme = "BestOffset"
)

// Schemes lists the Figure 6 schemes in presentation order.
func Schemes() []Scheme { return []Scheme{IDet, DDet, Seq} }

// ZooSchemes lists the modern prefetchers added beyond the paper, in
// presentation order.
func ZooSchemes() []Scheme { return []Scheme{Markov, Perceptron, BestOff} }

// Config describes one simulation.
type Config struct {
	// App names a built-in application (see Apps). Ignored when
	// Program is set.
	App string
	// Program supplies a custom workload; Run consumes it.
	Program *Program

	// Scheme is the prefetching scheme (default Baseline).
	Scheme Scheme
	// Degree is the degree of prefetching d (default 1).
	Degree int

	// Processors is the machine size (default 16, the paper's).
	Processors int
	// SLCBytes sizes the second-level cache; 0 is the paper's default
	// infinite SLC, 16384 reproduces §5.3.
	SLCBytes int
	// SLCWays is the finite SLC's associativity (0/1 = the paper's
	// direct-mapped; higher = LRU sets, an extension).
	SLCWays int

	// Scale multiplies the application data set (Table 4); default 1.
	Scale int
	// Seed perturbs workload randomness deterministically.
	Seed uint64

	// SequentialConsistency replaces the paper's release consistency
	// with blocking writes (an ablation; see EXPERIMENTS.md).
	SequentialConsistency bool

	// BandwidthFactor divides the memory-system and network bandwidth
	// by the given factor (0/1 = the paper's full bandwidth); the §7
	// bandwidth-limitation study sweeps it.
	BandwidthFactor int

	// StrideHints supplies the per-load-site strides for the Hybrid
	// scheme when running a custom Program; built-in applications
	// provide their own tables.
	StrideHints map[PC]int64

	// CollectCharacteristics analyzes processor 0's miss stream as it
	// happens and attaches the Table 2/3 analysis to the result.
	CollectCharacteristics bool

	// CollectMetrics attaches a snapshot of every observability
	// instrument (engine dispatch counters, per-node miss taxonomy,
	// prefetch effectiveness, stall histograms) to the result.
	CollectMetrics bool
	// Spans, when non-nil, records one lifecycle span per memory-system
	// transaction and stall episode (issue → network → directory →
	// service → reply → fill, with per-hop virtual-time stamps). Exact
	// per-class aggregates attach to Result.Spans; the sampled raw
	// spans flush as JSONL to Spans.W. Purely observational.
	Spans *SpanConfig
	// Timeline, when non-nil with a positive Window, snapshots the
	// instruments every Window pclocks of virtual time; the windowed
	// time-series attaches to Result.Timeline and flushes as JSONL to
	// Timeline.W. Purely observational: the statistics are unchanged.
	Timeline *TimelineConfig
}

// withDefaults fills the zero fields with the paper's machine: 16
// processors, the paper's data sets, degree 1 and no prefetching. Every
// front end's defaults come from here.
func (c Config) withDefaults() Config {
	if c.Processors == 0 {
		c.Processors = workload.DefaultProcs
	}
	if c.Degree == 0 {
		c.Degree = 1
	}
	if c.Scheme == "" {
		c.Scheme = Baseline
	}
	if c.Scale == 0 {
		c.Scale = workload.DefaultScale
	}
	return c
}

// Result is the outcome of one simulation.
type Result struct {
	// App is the workload name.
	App string
	// Scheme is the prefetching scheme simulated.
	Scheme Scheme
	// Stats holds all counters (read misses, stall times, prefetch
	// efficiency, traffic...).
	Stats *Stats
	// Chars holds the stride-sequence analysis of processor 0's misses
	// when Config.CollectCharacteristics was set.
	Chars *Characteristics
	// Sites breaks processor 0's misses down per load site (set
	// together with Chars).
	Sites []SiteStat
	// Metrics is the name-sorted instrument snapshot when
	// Config.CollectMetrics was set.
	Metrics MetricsSnapshot
	// Spans holds the exact per-class span aggregates when Config.Spans
	// was set; SpanTrace summarizes the sampled raw-span ring.
	Spans     *SpanStats
	SpanTrace *TraceSummary
	// Timeline is the windowed instrument time-series when
	// Config.Timeline was set.
	Timeline []TimePoint
}

// newPrefetcher builds the per-node prefetch engine for a scheme.
func newPrefetcher(s Scheme, degree int, hints map[PC]int64) (func(int) prefetch.Prefetcher, error) {
	if s != Baseline && s != "" && degree < 1 {
		return nil, fmt.Errorf("prefetchsim: degree %d is not positive", degree)
	}
	switch s {
	case Baseline, "":
		return nil, nil
	case IDet:
		return func(int) prefetch.Prefetcher { return prefetch.NewIDetection(256, degree) }, nil
	case IDetLA:
		return func(int) prefetch.Prefetcher { return prefetch.NewLookaheadIDetection(256, degree) }, nil
	case DDet:
		return func(int) prefetch.Prefetcher { return prefetch.NewDefaultDDetection(degree) }, nil
	case DDetLA:
		return func(int) prefetch.Prefetcher { return prefetch.NewHagerstenDDetection(degree) }, nil
	case Seq:
		return func(int) prefetch.Prefetcher { return prefetch.NewSequential(degree) }, nil
	case Adaptive:
		return func(int) prefetch.Prefetcher { return prefetch.NewAdaptive(degree) }, nil
	case Hybrid:
		return func(int) prefetch.Prefetcher { return prefetch.NewHybrid(hints, degree) }, nil
	case Markov:
		return func(int) prefetch.Prefetcher { return prefetch.NewMarkov(degree) }, nil
	case Perceptron:
		return func(int) prefetch.Prefetcher { return prefetch.NewPerceptron(degree) }, nil
	case BestOff:
		return func(int) prefetch.Prefetcher { return prefetch.NewBestOffset(degree) }, nil
	}
	return nil, fmt.Errorf("prefetchsim: unknown scheme %q", s)
}

// Run executes one simulation to completion. The workload is either a
// built-in application (Config.App) or a caller-supplied Program, which
// Run consumes.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()

	// Checked before the workload is built, which sizes itself by it.
	if err := machine.CheckProcessors(cfg.Processors); err != nil {
		return nil, err
	}
	prog := cfg.Program
	if prog == nil {
		var err error
		prog, err = BuildApp(cfg.App, workload.Params{Procs: cfg.Processors, Scale: cfg.Scale, Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
	}
	defer prog.Stop()

	hints := cfg.StrideHints
	if cfg.Scheme == Hybrid && hints == nil && cfg.App != "" {
		h, err := apps.StrideHints(cfg.App,
			workload.Params{Procs: cfg.Processors, Scale: cfg.Scale, Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		hints = h
	}

	mcfg := machine.DefaultConfig()
	mcfg.Processors = cfg.Processors
	mcfg.SLCSize = cfg.SLCBytes
	mcfg.SLCWays = cfg.SLCWays
	mcfg.SequentialConsistency = cfg.SequentialConsistency
	mcfg.BandwidthFactor = cfg.BandwidthFactor
	pf, err := newPrefetcher(cfg.Scheme, cfg.Degree, hints)
	if err != nil {
		return nil, err
	}
	mcfg.NewPrefetcher = pf

	var chars *analysis.Tracker
	if cfg.CollectCharacteristics {
		chars = &analysis.Tracker{Node: 0}
		mcfg.MissObserver = chars.Observe
	}

	var sp *obs.SpanRecorder
	if cfg.Spans != nil {
		sp = obs.NewSpanRecorder(*cfg.Spans)
		mcfg.Spans = sp
	}
	var tl *obs.Timeline
	if cfg.Timeline != nil {
		tl = obs.NewTimeline(*cfg.Timeline)
		mcfg.Timeline = tl
	}

	m, err := machine.New(mcfg, prog)
	if err != nil {
		return nil, err
	}
	var reg *obs.Registry
	if cfg.CollectMetrics {
		reg = obs.NewRegistry()
		m.BindMetrics(reg)
	}
	st, err := m.Run()
	if err != nil {
		return nil, fmt.Errorf("%s/%s: %w", prog.Name, cfg.Scheme, err)
	}

	res := &Result{App: prog.Name, Scheme: cfg.Scheme, Stats: st}
	if chars != nil {
		r := chars.Result()
		res.Chars = &r
		res.Sites = chars.Sites()
	}
	if reg != nil {
		res.Metrics = reg.Snapshot()
	}
	if sp != nil {
		if err := sp.Flush(); err != nil {
			return nil, err
		}
		res.Spans = sp.Stats()
		s := sp.Summary()
		res.SpanTrace = &s
	}
	if tl != nil {
		if err := tl.Flush(); err != nil {
			return nil, err
		}
		res.Timeline = tl.Points()
	}
	return res, nil
}
