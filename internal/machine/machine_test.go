package machine

import (
	"runtime"
	"strings"
	"testing"

	"prefetchsim/internal/cache"
	"prefetchsim/internal/coherence"
	"prefetchsim/internal/mem"
	"prefetchsim/internal/obs"
	"prefetchsim/internal/prefetch"
	"prefetchsim/internal/trace"
)

// prog builds a Program from per-processor op slices.
func prog(streams ...[]trace.Op) *trace.Program {
	p := &trace.Program{Name: "test"}
	for _, ops := range streams {
		p.Streams = append(p.Streams, trace.NewSliceStream(ops))
	}
	return p
}

func cfgN(n int) Config {
	c := DefaultConfig()
	c.Processors = n
	return c
}

func run(t *testing.T, cfg Config, p *trace.Program) (*Machine, *Machine) {
	t.Helper()
	m, err := New(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	return m, m
}

func rd(addr uint64, gap uint32) trace.Op {
	return trace.Op{Kind: trace.Read, Addr: addr, Gap: gap}
}

func rdpc(pc trace.PC, addr uint64, gap uint32) trace.Op {
	return trace.Op{Kind: trace.Read, PC: pc, Addr: addr, Gap: gap}
}

func wr(addr uint64, gap uint32) trace.Op {
	return trace.Op{Kind: trace.Write, Addr: addr, Gap: gap}
}

const page1 = uint64(mem.PageBytes) // home node: 1 % P

// TestNewReservesNoTables guards against up-front table reservations:
// building a 16-processor, infinite-SLC machine allocates well under
// 1 MiB, because its block tables (directory, SLC tags, per-node
// history) grow page by page as blocks are touched.
func TestNewReservesNoTables(t *testing.T) {
	streams := make([][]trace.Op, 16)
	cfg := cfgN(16)
	if cfg.SLCSize != 0 {
		t.Fatalf("default SLC size %d, want 0 (infinite)", cfg.SLCSize)
	}
	p := prog(streams...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m, err := New(cfg, p)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(m)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("New allocated %d bytes, want < 1 MiB", got)
	}
}

func TestLocalReadMissIs28Pclocks(t *testing.T) {
	// Table 1: "Read from local memory: 28 pclocks".
	m, _ := run(t, cfgN(1), prog([]trace.Op{rd(page1, 0)}))
	st := &m.Stats.Nodes[0]
	if st.ExecTime != 28 {
		t.Fatalf("local read miss took %d pclocks, want 28", st.ExecTime)
	}
	if st.ReadMisses != 1 || st.ColdMisses != 1 {
		t.Fatalf("miss accounting: %d misses, %d cold", st.ReadMisses, st.ColdMisses)
	}
	if st.ReadStall != 27 {
		t.Fatalf("read stall = %d, want 27", st.ReadStall)
	}
}

func TestFLCHitIsOnePclock(t *testing.T) {
	m, _ := run(t, cfgN(1), prog([]trace.Op{rd(page1, 0), rd(page1+8, 0)}))
	st := &m.Stats.Nodes[0]
	if st.FLCReadHits != 1 {
		t.Fatalf("FLC hits = %d, want 1", st.FLCReadHits)
	}
	if st.ExecTime != 29 {
		t.Fatalf("exec time = %d, want 29 (28 + 1-pclock FLC hit)", st.ExecTime)
	}
}

func TestSLCHitIsSixPclocks(t *testing.T) {
	// Evict page1's block from the FLC with a conflicting block one FLC
	// span (4 KB) away, then re-read: FLC miss, SLC hit.
	m, _ := run(t, cfgN(1), prog([]trace.Op{
		rd(page1, 0), rd(page1+4096, 0), rd(page1, 0),
	}))
	st := &m.Stats.Nodes[0]
	if st.SLCReadHits != 1 {
		t.Fatalf("SLC hits = %d, want 1", st.SLCReadHits)
	}
	if st.ExecTime != 62 {
		t.Fatalf("exec time = %d, want 62 (28 + 28 + 6)", st.ExecTime)
	}
}

func TestRemoteCleanReadTwoTraversals(t *testing.T) {
	// Node 0 reads a block homed at node 1 (one hop away): request and
	// data reply each cross the mesh once.
	m, _ := run(t, cfgN(2), prog([]trace.Op{rd(page1, 0)}, nil))
	st := &m.Stats.Nodes[0]
	// 1 (FLC) + 3 (SLC) + 6 (ctrl: 1 hop) + 19 (home) + 14 (data: 1 hop)
	// + 3 (fill) + 2 (forward) = 48.
	if st.ExecTime != 48 {
		t.Fatalf("remote clean read took %d pclocks, want 48", st.ExecTime)
	}
	if m.Stats.NetMessages != 2 {
		t.Fatalf("messages = %d, want 2 (request + data)", m.Stats.NetMessages)
	}
}

func TestWriteDoesNotBlockProcessor(t *testing.T) {
	// Release consistency: a write costs the processor ~1 pclock even
	// though the ownership transaction takes tens of pclocks.
	m, _ := run(t, cfgN(2), prog([]trace.Op{wr(page1, 0)}, nil))
	st := &m.Stats.Nodes[0]
	if st.ExecTime > 2 {
		t.Fatalf("write blocked the processor for %d pclocks", st.ExecTime)
	}
	// The transaction still completed: directory shows node 0 as owner.
	e, ok := m.dir.Peek(mem.BlockOf(mem.Addr(page1)))
	if !ok || e.State != coherence.Dirty || e.Owner != 0 {
		t.Fatalf("directory after write: %+v (ok=%v)", e, ok)
	}
	if m.nodes[0].outWrites != 0 {
		t.Fatal("outstanding writes not drained")
	}
}

func TestSecondWriteToOwnedBlockIsLocal(t *testing.T) {
	m, _ := run(t, cfgN(1), prog([]trace.Op{
		wr(page1, 0), wr(page1, 1000), trace.Op{Kind: trace.End},
	}))
	// Exactly one ownership transaction: one memory access for the
	// read-exclusive; the second write hits Modified.
	if m.mems[0].Accesses != 1 {
		t.Fatalf("memory accesses = %d, want 1", m.mems[0].Accesses)
	}
}

func TestWriteInvalidatesSharers(t *testing.T) {
	x := page1 // home node 1 in a 2-node machine
	p := prog(
		[]trace.Op{rd(x, 0), rd(x, 2000)}, // node 0: read, re-read after inv
		[]trace.Op{wr(x, 500)},            // node 1: write in between
	)
	m, _ := run(t, cfgN(2), p)
	n0 := &m.Stats.Nodes[0]
	if n0.InvalidationsReceived != 1 {
		t.Fatalf("node 0 invalidations = %d, want 1", n0.InvalidationsReceived)
	}
	if n0.ReadMisses != 2 || n0.CoherenceMisses != 1 {
		t.Fatalf("node 0: %d misses, %d coherence; want 2, 1",
			n0.ReadMisses, n0.CoherenceMisses)
	}
}

func TestDirtyRemoteReadDowngradesOwner(t *testing.T) {
	x := page1 // home node 1
	p := prog(
		[]trace.Op{rd(x, 800)}, // node 0 reads after node 1 modified
		[]trace.Op{wr(x, 0)},   // node 1 writes first
	)
	m, _ := run(t, cfgN(2), p)
	// Owner keeps a shared copy; directory is shared-clean with both.
	line, ok := m.nodes[1].slc.Lookup(mem.BlockOf(mem.Addr(x)))
	if !ok || line.State != cache.Shared {
		t.Fatalf("owner's line after downgrade: %+v (ok=%v)", line, ok)
	}
	e, _ := m.dir.Peek(mem.BlockOf(mem.Addr(x)))
	if e.State != coherence.SharedClean || !e.IsSharer(0) || !e.IsSharer(1) {
		t.Fatalf("directory after downgrade: state=%v sharers=%v", e.State, e.Sharers())
	}
}

func TestDirtyRemoteReadIsSlowerThanClean(t *testing.T) {
	x := page1
	dirty := prog(
		[]trace.Op{rd(x, 800)},
		[]trace.Op{wr(x, 0)},
	)
	m1, _ := run(t, cfgN(2), dirty)
	clean := prog(
		[]trace.Op{rd(x, 800)},
		nil,
	)
	m2, _ := run(t, cfgN(2), clean)
	if m1.Stats.Nodes[0].ReadStall <= m2.Stats.Nodes[0].ReadStall {
		t.Fatalf("dirty read stall (%d) not slower than clean (%d)",
			m1.Stats.Nodes[0].ReadStall, m2.Stats.Nodes[0].ReadStall)
	}
}

func TestReleaseWaitsForOutstandingWrites(t *testing.T) {
	lock := uint64(3 * mem.PageBytes)
	p := prog([]trace.Op{
		{Kind: trace.Acquire, Addr: lock},
		wr(page1, 0),
		{Kind: trace.Release, Addr: lock},
	})
	m, _ := run(t, cfgN(1), p)
	st := &m.Stats.Nodes[0]
	if st.SyncStall == 0 {
		t.Fatal("release did not wait for the outstanding write")
	}
}

func TestLockMutualExclusion(t *testing.T) {
	lock := uint64(3 * mem.PageBytes)
	critical := func() []trace.Op {
		return []trace.Op{
			{Kind: trace.Acquire, Addr: lock},
			wr(page1, 0),
			rd(page1, 300), // hold the lock ~300 pclocks
			{Kind: trace.Release, Addr: lock},
		}
	}
	m, _ := run(t, cfgN(2), prog(critical(), critical()))
	// One processor must have waited for the other's critical section.
	s0, s1 := m.Stats.Nodes[0].SyncStall, m.Stats.Nodes[1].SyncStall
	if s0+s1 < 300 {
		t.Fatalf("lock waiting time %d+%d; critical sections overlapped", s0, s1)
	}
}

func TestBarrierBlocksUntilAllArrive(t *testing.T) {
	p := prog(
		[]trace.Op{{Kind: trace.Barrier, Addr: 0}, rd(page1, 0)},
		[]trace.Op{rd(2*page1, 500), {Kind: trace.Barrier, Addr: 0}},
	)
	m, _ := run(t, cfgN(2), p)
	if m.Stats.Nodes[0].ExecTime < 500 {
		t.Fatalf("node 0 passed the barrier at %d, before node 1 arrived (~500)",
			m.Stats.Nodes[0].ExecTime)
	}
	if m.Stats.Nodes[0].SyncStall < 400 {
		t.Fatalf("node 0 barrier stall = %d, want >= 400", m.Stats.Nodes[0].SyncStall)
	}
}

// seqReads builds reads covering every 8th byte of n pages starting at
// page p, with the given per-read think gap.
func seqReads(pc trace.PC, firstPage uint64, pages int, gap uint32) []trace.Op {
	var ops []trace.Op
	for off := uint64(0); off < uint64(pages*mem.PageBytes); off += 8 {
		ops = append(ops, rdpc(pc, firstPage*mem.PageBytes+off, gap))
	}
	return ops
}

func TestSequentialPrefetchingRemovesSequentialMisses(t *testing.T) {
	reads := seqReads(1, 1, 1, 10) // one page = 128 blocks
	base, _ := run(t, cfgN(1), prog(reads))
	cfg := cfgN(1)
	cfg.NewPrefetcher = func(int) prefetch.Prefetcher { return prefetch.NewSequential(1) }
	pf, _ := run(t, cfg, prog(reads))

	bm := base.Stats.TotalReadMisses()
	pm := pf.Stats.TotalReadMisses()
	if bm != 128 {
		t.Fatalf("baseline misses = %d, want 128", bm)
	}
	if pm > 8 {
		t.Fatalf("sequential prefetching left %d misses on a pure sequential stream", pm)
	}
	if eff := pf.Stats.PrefetchEfficiency(); eff < 0.95 {
		t.Fatalf("prefetch efficiency = %.3f, want >= 0.95", eff)
	}
	if pf.Stats.TotalReadStall() >= base.Stats.TotalReadStall() {
		t.Fatal("prefetching did not reduce read stall time")
	}
}

func TestPrefetchNeverCrossesPageBoundary(t *testing.T) {
	reads := seqReads(1, 1, 2, 10) // two pages
	cfg := cfgN(1)
	cfg.NewPrefetcher = func(int) prefetch.Prefetcher { return prefetch.NewSequential(1) }
	m, _ := run(t, cfg, prog(reads))
	// 256 blocks, 2 pages: at most 127 prefetches per page.
	if got := m.Stats.TotalPrefetchesIssued(); got > 254 {
		t.Fatalf("issued %d prefetches, want <= 254 (page-bounded)", got)
	}
	// The first block of the second page must be a (cold) miss: no
	// prefetch crossed into it.
	if m.Stats.TotalReadMisses() < 2 {
		t.Fatal("page-boundary miss was prefetched away; page rule violated")
	}
}

func TestIDetectionPrefetchesStridedStream(t *testing.T) {
	// Stride of 64 bytes (2 blocks) from a single load site.
	var reads []trace.Op
	for i := 0; i < 64; i++ {
		reads = append(reads, rdpc(7, page1+uint64(i)*64, 40))
	}
	base, _ := run(t, cfgN(1), prog(reads))
	cfg := cfgN(1)
	cfg.NewPrefetcher = func(int) prefetch.Prefetcher { return prefetch.NewIDetection(256, 1) }
	pf, _ := run(t, cfg, prog(reads))
	if bm := base.Stats.TotalReadMisses(); bm != 64 {
		t.Fatalf("baseline misses = %d, want 64", bm)
	}
	if pm := pf.Stats.TotalReadMisses(); pm > 8 {
		t.Fatalf("I-detection left %d misses on a pure stride stream", pm)
	}
	if eff := pf.Stats.PrefetchEfficiency(); eff < 0.9 {
		t.Fatalf("I-det efficiency = %.3f, want >= 0.9", eff)
	}
}

func TestMergedPrefetchCountsAsMissAndUseful(t *testing.T) {
	// Zero think time: the processor chases its own prefetches, so some
	// demand reads arrive while the prefetch is still in flight.
	reads := seqReads(1, 1, 1, 0)
	cfg := cfgN(1)
	cfg.NewPrefetcher = func(int) prefetch.Prefetcher { return prefetch.NewSequential(1) }
	m, _ := run(t, cfg, prog(reads))
	st := &m.Stats.Nodes[0]
	if st.PrefetchesMerged == 0 {
		t.Fatal("no merged prefetches with zero think time; expected in-flight merges")
	}
	if st.PrefetchesUseful < st.PrefetchesMerged {
		t.Fatal("merged prefetches must be counted useful")
	}
}

func TestFiniteSLCReplacementMissesAndWriteback(t *testing.T) {
	cfg := cfgN(1)
	cfg.SLCSize = 16384 // 512 blocks
	b0 := page1
	conflict := page1 + 512*mem.BlockBytes // same SLC set as b0
	p := prog([]trace.Op{
		wr(b0, 0),         // b0 becomes Modified
		rd(conflict, 200), // evicts b0: writeback
		rd(b0, 500),       // replacement miss
	})
	m, _ := run(t, cfg, p)
	st := &m.Stats.Nodes[0]
	if st.Writebacks != 1 {
		t.Fatalf("writebacks = %d, want 1", st.Writebacks)
	}
	if st.ReplacementMisses != 1 {
		t.Fatalf("replacement misses = %d, want 1", st.ReplacementMisses)
	}
	// Directory must have retired the writeback: block uncached, then
	// re-shared by the final read.
	e, _ := m.dir.Peek(mem.BlockOf(mem.Addr(b0)))
	if e.State != coherence.SharedClean {
		t.Fatalf("directory state after writeback+reread = %v", e.State)
	}
}

func TestInfiniteSLCNeverReplaces(t *testing.T) {
	var reads []trace.Op
	for i := 0; i < 2000; i++ {
		reads = append(reads, rd(page1+uint64(i)*mem.BlockBytes, 0))
	}
	m, _ := run(t, cfgN(1), prog(reads))
	if m.Stats.Nodes[0].ReplacementMisses != 0 {
		t.Fatal("infinite SLC produced replacement misses")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	mk := func() *trace.Program {
		return prog(
			seqReads(1, 1, 1, 3),
			append([]trace.Op{wr(page1+64, 100)}, seqReads(2, 2, 1, 5)...),
		)
	}
	cfg := cfgN(2)
	cfg.NewPrefetcher = func(int) prefetch.Prefetcher { return prefetch.NewSequential(1) }
	a, _ := run(t, cfg, mk())
	b, _ := run(t, cfg, mk())
	if a.Stats.ExecTime != b.Stats.ExecTime ||
		a.Stats.TotalReadMisses() != b.Stats.TotalReadMisses() ||
		a.Stats.TotalReadStall() != b.Stats.TotalReadStall() ||
		a.Stats.NetFlitHops != b.Stats.NetFlitHops {
		t.Fatalf("runs diverged:\n%v\nvs\n%v", a.Stats, b.Stats)
	}
}

func TestDeadlockDetected(t *testing.T) {
	p := prog(
		[]trace.Op{{Kind: trace.Barrier, Addr: 0}},
		nil, // node 1 ends immediately; node 0 waits forever
	)
	m, err := New(cfgN(2), p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("Run error = %v, want deadlock", err)
	}
}

func TestMaxEventsAborts(t *testing.T) {
	cfg := cfgN(1)
	cfg.MaxEvents = 3
	m, err := New(cfg, prog(seqReads(1, 1, 4, 0)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err == nil {
		t.Fatal("MaxEvents did not abort")
	}
}

// TestMaxEventsExactBudget pins the limit's boundary: a run that
// finishes in exactly MaxEvents events succeeds, and one event fewer
// aborts.
func TestMaxEventsExactBudget(t *testing.T) {
	p := func() *trace.Program { return prog(seqReads(1, 1, 1, 0), seqReads(2, 2, 1, 3)) }
	m, err := New(cfgN(2), p())
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	m.BindMetrics(reg)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	n, _ := reg.Snapshot().Get("engine.events")
	if n < 2 {
		t.Fatalf("engine.events = %d, want a multi-event run", n)
	}
	for _, tc := range []struct {
		max     int64
		wantErr bool
	}{{n, false}, {n - 1, true}} {
		cfg := cfgN(2)
		cfg.MaxEvents = tc.max
		m, err := New(cfg, p())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(); (err != nil) != tc.wantErr {
			t.Errorf("MaxEvents = %d of a %d-event run: error %v, want error: %v", tc.max, n, err, tc.wantErr)
		}
	}
}

func TestNewValidatesConfig(t *testing.T) {
	if _, err := New(cfgN(0), prog()); err == nil {
		t.Error("accepted zero processors")
	}
	if _, err := New(cfgN(2), prog(nil)); err == nil {
		t.Error("accepted stream/processor mismatch")
	}
	bad := cfgN(1)
	bad.FLWBEntries = 0
	if _, err := New(bad, prog(nil)); err == nil {
		t.Error("accepted zero-entry FLWB")
	}
}

func TestSLWBLimitsPrefetchBurst(t *testing.T) {
	// Degree-16 sequential prefetching on a miss proposes 16 blocks but
	// the 16-entry SLWB also holds the demand miss: at least one
	// proposal must be dropped, never queued.
	cfg := cfgN(1)
	cfg.NewPrefetcher = func(int) prefetch.Prefetcher { return prefetch.NewSequential(16) }
	m, _ := run(t, cfg, prog([]trace.Op{rd(page1, 0)}))
	if got := m.Stats.TotalPrefetchesIssued(); got > 16 {
		t.Fatalf("issued %d prefetches with a 16-entry SLWB", got)
	}
}

func TestStatsStringMentionsKeyFields(t *testing.T) {
	m, _ := run(t, cfgN(1), prog([]trace.Op{rd(page1, 0)}))
	s := m.Stats.String()
	for _, want := range []string{"exec time", "read misses", "prefetches", "network"} {
		if !strings.Contains(s, want) {
			t.Errorf("stats report missing %q:\n%s", want, s)
		}
	}
}

func TestRemoteDirtyReadFourTraversals(t *testing.T) {
	// Pin the four-traversal dirty-read latency exactly: request to
	// home (1 hop), forward to owner (1 hop back), owner's data to home
	// (1 hop), reply to requester (1 hop). Node 0 reads a block homed
	// at node 1 that node 0... no — owner must be a third party: use a
	// 4-node machine: home=1, owner=2, requester=0.
	x := uint64(mem.PageBytes) // page 1 → home node 1
	p := prog(
		[]trace.Op{rd(x, 800)}, // requester, after owner settled
		nil,
		[]trace.Op{wr(x, 0)}, // owner
		nil,
	)
	m, _ := run(t, cfgN(4), p)
	st := &m.Stats.Nodes[0]
	// Composition: 1 (FLC) + 3 (SLC) + req 0→1 (1 hop: 3+3=6) + home
	// ctrl (10) + fwd 1→2 (1 hop: 6) + owner SLC (6) + data 2→1 (2
	// hops: 6+11=17) + home access (19) + reply 1→0 (1 hop: 3+11=14) +
	// fill (3) + forward (2) = 86... pin against regression rather than
	// deriving every term: measured stall must sit in the 4-traversal
	// band, well above the 2-traversal clean read (47) and below 120.
	if st.ReadStall < 60 || st.ReadStall > 120 {
		t.Fatalf("dirty remote read stall = %d pclocks; outside the 4-traversal band", st.ReadStall)
	}
}

// TestMissStateCostPerPage bounds the host memory one node's demand
// misses cost per page touched. Each page missed on needs a directory
// leaf (128 entries of 16 bytes), an SLC tag leaf and a history leaf,
// about 2.5 KB together; in-flight transaction state must not add a
// leaf per page on top, and directory entries must stay small. The
// bound sits between that and the 9 KB a page cost when the
// transaction table was a page table and an entry carried its own
// waiter queue.
func TestMissStateCostPerPage(t *testing.T) {
	const pages = 4096
	ops := make([]trace.Op, pages)
	for p := range ops {
		ops[p] = rd(uint64(p)*uint64(mem.PageBytes)+uint64(p%mem.BlocksPerPage)*mem.BlockBytes, 1)
	}
	p := prog(ops)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m, err := New(cfgN(1), p)
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Run()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if st.Nodes[0].ColdMisses != pages {
		t.Fatalf("%d cold misses, want %d", st.Nodes[0].ColdMisses, pages)
	}
	perPage := float64(after.TotalAlloc-before.TotalAlloc) / pages
	t.Logf("%.0f bytes allocated per page missed on", perPage)
	if perPage > 5<<10 {
		t.Fatalf("%.0f bytes allocated per page missed on, want <= 5 KiB", perPage)
	}
}
