// Package machine assembles the paper's architectural framework (§2, §4)
// into a runnable whole-system model: 16 processing nodes, each with a
// blocking-load processor, a write-through FLC with an 8-entry FLWB, a
// lockup-free write-back SLC with a 16-entry SLWB and an attached
// prefetcher, a full-map write-invalidate directory at distributed
// memory, a 4×4 wormhole mesh, queue-based locks at memory, and release
// consistency.
//
// The simulation is program-driven: each processor pulls its next
// operation from a trace.Stream (the re-implemented applications) and
// the architecture model decides how long everything takes. All
// contention — SLC arrays, buses, memory banks, mesh links, directory
// entries — is modelled (paper §4: "contention is accurately modelled in
// all parts of the system").
package machine

import (
	"fmt"

	"prefetchsim/internal/blockmap"
	"prefetchsim/internal/cache"
	"prefetchsim/internal/coherence"
	"prefetchsim/internal/mem"
	"prefetchsim/internal/memsys"
	"prefetchsim/internal/network"
	"prefetchsim/internal/obs"
	"prefetchsim/internal/prefetch"
	"prefetchsim/internal/sim"
	"prefetchsim/internal/stats"
	"prefetchsim/internal/trace"
)

// Timing constants in pclocks (Table 1; see DESIGN.md §3 for the
// composition of the 28-pclock local-memory read).
const (
	// FLCHit is the FLC read hit time ("Read from FLC: 1 pclock").
	FLCHit = 1
	// SLCHitExtra is the additional latency of an SLC read hit beyond
	// the FLC lookup, making "Read from SLC" 6 pclocks total.
	SLCHitExtra = 5
	// SLCCycle is the SLC array occupancy per access (30 ns SRAM).
	SLCCycle = 3
	// FLCFillForward covers forwarding the critical word to the
	// processor while the FLC fills.
	FLCFillForward = 2
)

// Config describes one simulated machine.
type Config struct {
	// Processors is the node count (paper: 16).
	Processors int
	// FLCSize is the first-level cache size in bytes (paper: 4 KB).
	FLCSize int
	// SLCSize is the second-level cache size in bytes; 0 means the
	// paper's default infinitely large SLC.
	SLCSize int
	// SLCWays is the finite SLC's associativity; 0/1 is the paper's
	// direct-mapped configuration, higher values use LRU sets.
	SLCWays int
	// FLWBEntries and SLWBEntries size the write buffers (paper: 8, 16).
	FLWBEntries int
	SLWBEntries int
	// NewPrefetcher constructs the per-node prefetch engine; nil means
	// the baseline architecture (no prefetching).
	NewPrefetcher func(node int) prefetch.Prefetcher
	// BandwidthFactor divides memory-system and network bandwidth
	// (bus cycles, bank occupancy, flit serialization) by the given
	// factor; 0/1 is the paper's full bandwidth. Used by the §7
	// bandwidth-limitation study.
	BandwidthFactor int
	// SequentialConsistency makes writes blocking (the processor stalls
	// until each write is globally performed) instead of the paper's
	// release consistency. An ablation showing why the paper assumes RC
	// ([11]): under SC the write latency lands on the critical path.
	SequentialConsistency bool
	// MaxEvents aborts a runaway simulation; 0 means no limit.
	MaxEvents int64
	// MissObserver, if non-nil, is called in simulated-time order for
	// every demand SLC read miss, with the issuing node, the load-site
	// PC and the missing address. The Table 2/3 application-
	// characteristics analysis is built on this hook.
	MissObserver func(node int, pc trace.PC, addr mem.Addr)
	// Spans, if non-nil, receives one lifecycle record per completed
	// memory-system transaction and per processor stall episode
	// (internal/obs). The stamps live inside the pooled transaction
	// records, so recording allocates nothing. Purely observational: it
	// changes no timing and no statistic.
	Spans *obs.SpanRecorder
	// Timeline, if non-nil, receives a windowed snapshot of the
	// instruments every Timeline.Window() pclocks of virtual time. The
	// snapshot events ride the ordinary event queue and only read
	// state, so statistics are unchanged.
	Timeline *obs.Timeline
}

// DefaultConfig returns the paper's fixed architectural parameters
// (Table 1) with no prefetcher.
func DefaultConfig() Config {
	return Config{
		Processors:  16,
		FLCSize:     4096,
		SLCSize:     0,
		FLWBEntries: 8,
		SLWBEntries: 16,
	}
}

// Machine is a configured simulator instance. Build one with New, run
// it once with Run.
type Machine struct {
	cfg   Config
	eng   sim.Engine
	mesh  *network.Mesh
	dir   *coherence.Directory
	mems  []*memsys.Module
	nodes []*node
	locks map[uint64]*lockState
	bar   barrier

	// Free lists for the pooled protocol events and transaction
	// records (events.go); the steady-state protocol allocates nothing.
	evFree *ev
	txFree []*pendingTx

	// engMet holds the engine's observability instruments (metrics.go);
	// embedding them here keeps instrumentation allocation-free.
	engMet sim.EngineMetrics
	// sp and tl are the optional span recorder and timeline collector.
	sp *obs.SpanRecorder
	tl *obs.Timeline
	// tlFn is the cached timeline-tick closure (one per machine, so
	// rescheduling the tick allocates nothing per window).
	tlFn func()

	// Stats accumulates results; valid after Run.
	Stats *stats.Machine
}

// txKind classifies an outstanding SLWB transaction.
type txKind uint8

const (
	txRead  txKind = iota // read miss or prefetch
	txWrite               // ownership acquisition (upgrade / read-exclusive)
)

// pendingTx is an outstanding transaction for one block (an SLWB
// entry). Records are pooled on the machine (events.go).
type pendingTx struct {
	kind     txKind
	prefetch bool // read issued by the prefetcher
	demand   bool // a demand read is blocked on this transaction
	// issue is the demand read's processor-side issue time; the fill
	// charges the read stall against it (resumeDemand).
	issue sim.Time
	// writeRefs counts buffered writes whose completion (for release
	// consistency) depends on this transaction.
	writeRefs int
	// wantWrite marks a write merged onto an in-flight read: ownership
	// is acquired right after the fill.
	wantWrite bool
	// invalidated marks that an invalidation arrived while the data was
	// in flight; the fill is consumed once and not cached.
	invalidated bool
	// span collects the transaction's lifecycle stamps when the machine
	// has a span recorder (Config.Spans); embedded by value so stamping
	// allocates nothing.
	span obs.Span
}

// Block history flags for miss classification (§5.1, §5.3).
const (
	hTouched uint8 = 1 << iota
	hInv
	hRepl
)

// node is one processing node.
type node struct {
	m   *Machine
	id  int
	st  *stats.Node
	met NodeMetrics
	pf  prefetch.Prefetcher
	// pfCross caches prefetch.CrossesPages(pf): correlation-based schemes
	// replay known translations, so the §2 page filter is lifted for them.
	pfCross bool

	stream trace.Stream
	// batch is the local run of ops the fetch-execute loop iterates
	// (refilled via bs when the stream supports batching; bs is nil on
	// the legacy per-op path and batch then stays empty).
	bs      trace.BatchStream
	batch   []trace.Op
	bi      int
	stash   trace.Op // op fetched but deferred to honor event ordering
	stashed bool
	time    sim.Time
	done    bool
	// stepID is the engine id of the node's step handler (Fire).
	stepID sim.HandlerID

	flc    *cache.FLC
	flwb   *cache.WriteBuffer
	slc    cache.Store
	slcRes sim.Resource

	// pending and wbPending hold the node's in-flight transactions
	// (writes queued behind a full SLWB included) and writebacks. They
	// hold few blocks at a time, at most a few hundred, so they are
	// hash tables sized by that, not page tables that would keep a
	// leaf for every page the node ever missed on.
	pending     blockmap.Small[*pendingTx]
	wbPending   blockmap.Small[[]func(sim.Time)]
	slwbUsed    int
	slwbWaiters []slwbWaiter

	// outWrites counts write transactions not yet globally performed;
	// releases and barriers wait for it to reach zero (release
	// consistency).
	outWrites int
	drainWait func(sim.Time)

	hist blockmap.Table[uint8]

	// pfFill records (only when spans are collected) the fill time of
	// each tagged, still-unconsumed prefetched block, for the
	// fill-to-first-use idle measurement. A re-prefetch overwrites the
	// stale entry, so consumption always sees the latest fill.
	pfFill blockmap.Table[sim.Time]

	// Scratch state for the prefetcher's issue callback: pfEmit is
	// built once per node so OnRead allocates no closure per read;
	// pfBlock/pfTime carry the triggering access (processor.go).
	pfBlock mem.Block
	pfTime  sim.Time
	pfEmit  func(pb mem.Block)
}

// slwbWaiter is a dispatched-on-slot-free transaction queued behind a
// full SLWB.
type slwbWaiter struct {
	b  mem.Block
	tx *pendingTx
}

// CheckProcessors reports why a machine cannot have n processors (the
// range is 1..64), or nil if it can.
func CheckProcessors(n int) error {
	if n <= 0 || n > 64 {
		return fmt.Errorf("machine: processor count %d out of range 1..64", n)
	}
	return nil
}

// New builds a machine running the given program. The program must have
// exactly cfg.Processors streams.
func New(cfg Config, prog *trace.Program) (*Machine, error) {
	if err := CheckProcessors(cfg.Processors); err != nil {
		return nil, err
	}
	if len(prog.Streams) != cfg.Processors {
		return nil, fmt.Errorf("machine: program %q has %d streams, config wants %d",
			prog.Name, len(prog.Streams), cfg.Processors)
	}
	if cfg.FLWBEntries <= 0 || cfg.SLWBEntries <= 0 {
		return nil, fmt.Errorf("machine: write buffers must have at least one entry")
	}
	ways := max(cfg.SLCWays, 1)
	if sets := cfg.SLCSize / (mem.BlockBytes * ways); cfg.SLCSize != 0 && (sets <= 0 || sets&(sets-1) != 0) {
		return nil, fmt.Errorf("machine: a %d-byte %d-way SLC has no power-of-two set count", cfg.SLCSize, ways)
	}
	m := &Machine{
		cfg:   cfg,
		mesh:  network.New(cfg.Processors),
		dir:   coherence.New(cfg.Processors),
		mems:  make([]*memsys.Module, cfg.Processors),
		locks: make(map[uint64]*lockState),
		Stats: stats.New(cfg.Processors),
	}
	m.mesh.BandwidthFactor = cfg.BandwidthFactor
	m.sp = cfg.Spans
	m.tl = cfg.Timeline
	m.eng.SetMetrics(&m.engMet)
	for i := 0; i < cfg.Processors; i++ {
		m.mems[i] = &memsys.Module{BandwidthFactor: cfg.BandwidthFactor}
		var store cache.Store
		switch {
		case cfg.SLCSize == 0:
			store = cache.NewInfiniteStore()
		case cfg.SLCWays > 1:
			store = cache.NewAssocStore(cfg.SLCSize, cfg.SLCWays)
		default:
			store = cache.NewDirectStore(cfg.SLCSize)
		}
		n := &node{
			m:      m,
			id:     i,
			st:     &m.Stats.Nodes[i],
			stream: prog.Streams[i],
			flc:    cache.NewFLC(cfg.FLCSize),
			flwb:   cache.NewWriteBuffer(cfg.FLWBEntries),
			slc:    store,
		}
		if bs, ok := n.stream.(trace.BatchStream); ok {
			n.bs = bs
		}
		if cfg.NewPrefetcher != nil {
			n.pf = cfg.NewPrefetcher(i)
		} else {
			n.pf = prefetch.None{}
		}
		n.pfCross = prefetch.CrossesPages(n.pf)
		n.stepID = m.eng.Register(n)
		n.pfEmit = func(pb mem.Block) { m.emitPrefetch(n, pb) }
		m.nodes = append(m.nodes, n)
	}
	return m, nil
}

// Run executes the program to completion and returns the collected
// statistics. It returns an error on deadlock (some processor never
// reached End) or when MaxEvents is exceeded.
func (m *Machine) Run() (*stats.Machine, error) {
	for _, n := range m.nodes {
		m.eng.Schedule(0, n.stepID)
	}
	if m.tl != nil {
		m.tlFn = func() { m.timelineTick() }
		m.eng.At(sim.Time(m.tl.Window()), m.tlFn)
	}
	m.eng.Run(m.cfg.MaxEvents)
	if m.eng.Pending() > 0 {
		return nil, fmt.Errorf("machine: exceeded %d events; likely livelock", m.cfg.MaxEvents)
	}
	for _, n := range m.nodes {
		if !n.done {
			return nil, fmt.Errorf("machine: deadlock: node %d stopped at t=%d (outWrites=%d, pending=%d, barrier arrived=%d/%d)",
				n.id, n.time, n.outWrites, n.pending.Len(), m.bar.arrived, m.cfg.Processors)
		}
	}
	m.finalize()
	return m.Stats, nil
}

func (m *Machine) finalize() {
	var max sim.Time
	for _, n := range m.nodes {
		if n.st.ExecTime > max {
			max = n.st.ExecTime
		}
		n.st.PrefetchesUnconsumed = int64(n.slc.PrefetchedCount())
	}
	m.Stats.ExecTime = max
	m.Stats.NetMessages = m.mesh.Messages
	m.Stats.NetFlits = m.mesh.Flits
	m.Stats.NetFlitHops = m.mesh.FlitHops
	if m.tl != nil {
		// Close the final, possibly partial, window at the machine's
		// execution time. Record drops this when the last tick already
		// covered it — ticks ride the event queue, which can drain
		// after the processors finish.
		m.tl.Record(m.timePoint(max))
	}
}

// home returns the home node of block b.
func (m *Machine) home(b mem.Block) int { return mem.HomeNode(b, m.cfg.Processors) }

// scheduleStep resumes the processor's fetch-execute loop at its local
// time.
func (m *Machine) scheduleStep(n *node) {
	m.eng.Schedule(n.time, n.stepID)
}

// Fire implements sim.Handler: the node's scheduled step.
func (n *node) Fire(sim.Time) { n.m.stepNode(n) }

// trySLWB claims a slot if one is free; prefetches are dropped rather
// than queued when the SLWB is full (the lockup-free SLC stalls demand
// requests instead — see startReadTx/startWriteTx).
func (m *Machine) trySLWB(n *node) bool {
	if n.slwbUsed < m.cfg.SLWBEntries {
		n.slwbUsed++
		n.slwbSet()
		return true
	}
	return false
}

// freeSLWB releases a slot, dispatching the oldest queued transaction
// if any.
func (m *Machine) freeSLWB(n *node) {
	n.slwbUsed--
	n.slwbSet()
	if len(n.slwbWaiters) > 0 {
		w := n.slwbWaiters[0]
		n.slwbWaiters[0] = slwbWaiter{}
		n.slwbWaiters = n.slwbWaiters[1:]
		n.slwbUsed++
		n.slwbSet()
		if w.tx.kind == txRead {
			m.dispatchReadTx(n, w.b, w.tx, m.eng.Now())
		} else {
			m.dispatchWriteTx(n, w.b, w.tx, m.eng.Now())
		}
	}
}

// classifyMiss attributes a demand read miss to cold, coherence or
// replacement (§5.1, §5.3). The returned span class (SpanMissCold/SpanMissCoherence/
// SpanMissReplacement) lets the caller stamp the servicing
// transaction's span.
func (m *Machine) classifyMiss(n *node, b mem.Block) obs.SpanClass {
	h, _ := n.hist.Get(b)
	switch {
	case h&hTouched == 0:
		n.st.ColdMisses++
		return obs.SpanMissCold
	case h&hInv != 0:
		n.st.CoherenceMisses++
		return obs.SpanMissCoherence
	case h&hRepl != 0:
		n.st.ReplacementMisses++
		return obs.SpanMissReplacement
	default:
		// Present-history block missing without invalidation or
		// replacement: a fill consumed while invalidated-in-flight;
		// attribute to coherence.
		n.st.CoherenceMisses++
		return obs.SpanMissCoherence
	}
}
