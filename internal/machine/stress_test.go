package machine

import (
	"fmt"
	"testing"

	"prefetchsim/internal/cache"
	"prefetchsim/internal/coherence"
	"prefetchsim/internal/mem"
	"prefetchsim/internal/prefetch"
	"prefetchsim/internal/racecheck"
	"prefetchsim/internal/sim"
	"prefetchsim/internal/trace"
)

// Protocol stress testing: random small programs hammer a handful of
// blocks from every processor, under every cache/prefetcher
// configuration, and the machine's invariants are checked afterwards.
// The two protocol races found during development (grant-in-flight
// forward-invalidation, duplicate transactions behind a writeback)
// would both have been caught here.

// alignedRandomProgram is like randomProgram but with barrier positions
// chosen identically across processors, so the program cannot deadlock.
func alignedRandomProgram(seed uint64, procs, opsPer int) *trace.Program {
	shape := sim.NewRand(seed * 7777777)
	barrierAt := make(map[int]bool)
	for i := 0; i < opsPer; i++ {
		if shape.Intn(12) == 0 {
			barrierAt[i] = true
		}
	}
	const hotBlocks = 24
	base := uint64(mem.PageBytes)
	lockA := uint64(6 * mem.PageBytes)

	p := &trace.Program{Name: fmt.Sprintf("stress-%d", seed)}
	for id := 0; id < procs; id++ {
		r := sim.NewRand(seed*1000003 + uint64(id) + 1)
		var ops []trace.Op
		barrier := uint64(0)
		holding := false
		for i := 0; i < opsPer; i++ {
			if barrierAt[i] {
				if holding {
					ops = append(ops, trace.Op{Kind: trace.Release, Addr: lockA})
					holding = false
				}
				ops = append(ops, trace.Op{Kind: trace.Barrier, Addr: barrier})
				barrier++
				continue
			}
			addr := base + uint64(r.Intn(hotBlocks))*mem.BlockBytes + uint64(r.Intn(4))*8
			gap := uint32(r.Intn(30))
			switch r.Intn(9) {
			case 0, 1, 2, 3:
				ops = append(ops, trace.Op{Kind: trace.Read, PC: trace.PC(r.Intn(6)), Addr: addr, Gap: gap})
			case 4, 5, 6:
				ops = append(ops, trace.Op{Kind: trace.Write, PC: trace.PC(r.Intn(6)), Addr: addr, Gap: gap})
			case 7:
				if !holding {
					ops = append(ops, trace.Op{Kind: trace.Acquire, Addr: lockA})
				} else {
					ops = append(ops, trace.Op{Kind: trace.Release, Addr: lockA})
				}
				holding = !holding
			case 8:
				// extra read pressure on one very hot block
				ops = append(ops, trace.Op{Kind: trace.Read, PC: 7, Addr: base, Gap: gap})
			}
		}
		if holding {
			ops = append(ops, trace.Op{Kind: trace.Release, Addr: lockA})
		}
		p.Streams = append(p.Streams, trace.NewSliceStream(ops))
	}
	return p
}

// checkInvariants verifies machine-wide consistency after a run.
func checkInvariants(t *testing.T, m *Machine, label string) {
	t.Helper()
	for _, n := range m.nodes {
		if !n.done {
			t.Fatalf("%s: node %d not done", label, n.id)
		}
		if n.outWrites != 0 {
			t.Errorf("%s: node %d has %d outstanding writes after completion", label, n.id, n.outWrites)
		}
		if n.pending.Len() != 0 {
			t.Errorf("%s: node %d has %d pending transactions", label, n.id, n.pending.Len())
		}
		if n.wbPending.Len() != 0 {
			t.Errorf("%s: node %d has %d writebacks in flight", label, n.id, n.wbPending.Len())
		}
		if n.slwbUsed != 0 {
			t.Errorf("%s: node %d SLWB count leaked: %d", label, n.id, n.slwbUsed)
		}
		if len(n.slwbWaiters) != 0 {
			t.Errorf("%s: node %d has queued SLWB waiters", label, n.id)
		}
		if n.st.PrefetchesUseful > n.st.PrefetchesIssued {
			t.Errorf("%s: node %d useful (%d) > issued (%d)", label,
				n.id, n.st.PrefetchesUseful, n.st.PrefetchesIssued)
		}
	}
	// Directory ⇄ cache agreement for every hot block.
	for b := mem.Block(0); b < mem.Block(8*mem.BlocksPerPage); b++ {
		e, ok := m.dir.Peek(b)
		if !ok {
			continue
		}
		if e.Busy() {
			t.Errorf("%s: block %d directory entry left busy", label, b)
			continue
		}
		switch e.State {
		case coherence.Dirty:
			line, present := m.nodes[e.Owner].slc.Lookup(b)
			if !present || line.State != cache.Modified {
				t.Errorf("%s: block %d Dirty at node %d but cache has %v (present=%v)",
					label, b, e.Owner, line.State, present)
			}
			// No other node may hold the block.
			for _, n := range m.nodes {
				if n.id == int(e.Owner) {
					continue
				}
				if _, ok := n.slc.Lookup(b); ok {
					t.Errorf("%s: block %d Dirty at %d but also cached at %d",
						label, b, e.Owner, n.id)
				}
			}
		case coherence.SharedClean:
			// Every cached copy must be Shared and its node listed
			// (presence bits may be stale supersets — silent S
			// replacement — but never subsets).
			for _, n := range m.nodes {
				if line, ok := n.slc.Lookup(b); ok {
					if line.State == cache.Modified {
						t.Errorf("%s: block %d SharedClean but node %d holds M", label, b, n.id)
					}
					if !e.IsSharer(n.id) {
						t.Errorf("%s: block %d cached at node %d without presence bit", label, b, n.id)
					}
				}
			}
		case coherence.Uncached:
			for _, n := range m.nodes {
				if line, ok := n.slc.Lookup(b); ok && line.State == cache.Modified {
					t.Errorf("%s: block %d Uncached but node %d holds M", label, b, n.id)
				}
			}
		}
	}
}

// StressSeeds is the per-configuration seed count of the protocol
// stress sweep, scaled down under the race detector; the repo-level
// race suite asserts the same racecheck.Scale(6, 2) expression yields
// the reduced count when -race is compiled in.
var StressSeeds = uint64(racecheck.Scale(6, 2))

func stressConfig(procs, slc int, pf func(int) prefetch.Prefetcher) Config {
	cfg := DefaultConfig()
	cfg.Processors = procs
	cfg.SLCSize = slc
	cfg.NewPrefetcher = pf
	cfg.MaxEvents = 50_000_000
	return cfg
}

func TestProtocolStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress")
	}
	prefetchers := map[string]func(int) prefetch.Prefetcher{
		"baseline": nil,
		"seq":      func(int) prefetch.Prefetcher { return prefetch.NewSequential(2) },
		"idet":     func(int) prefetch.Prefetcher { return prefetch.NewIDetection(256, 2) },
		"ddet":     func(int) prefetch.Prefetcher { return prefetch.NewDefaultDDetection(2) },
		"adaptive": func(int) prefetch.Prefetcher { return prefetch.NewAdaptive(2) },
	}
	// Tiny SLC (128 blocks) maximizes replacement/writeback traffic on
	// the hot set; infinite exercises the pure coherence paths. Under
	// the race detector the seed sweep shrinks (see StressSeeds) to keep
	// the package inside the single-core 10-minute test timeout; the
	// interleaving coverage -race needs does not grow with seeds.
	for _, slc := range []int{0, 4096} {
		for name, pf := range prefetchers {
			for seed := uint64(1); seed <= StressSeeds; seed++ {
				label := fmt.Sprintf("slc=%d/%s/seed=%d", slc, name, seed)
				prog := alignedRandomProgram(seed, 8, 600)
				m, err := New(stressConfig(8, slc, pf), prog)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if _, err := m.Run(); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				checkInvariants(t, m, label)
			}
		}
	}
}

func TestProtocolStressDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("stress")
	}
	mk := func() *stats_ {
		prog := alignedRandomProgram(99, 8, 800)
		cfg := stressConfig(8, 4096, func(int) prefetch.Prefetcher { return prefetch.NewSequential(2) })
		m, err := New(cfg, prog)
		if err != nil {
			t.Fatal(err)
		}
		st, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return &stats_{st.ExecTime, st.TotalReadMisses(), st.TotalPrefetchesIssued(), st.NetFlitHops}
	}
	a, b := mk(), mk()
	if *a != *b {
		t.Fatalf("stress run diverged: %+v vs %+v", a, b)
	}
}

type stats_ struct {
	exec   sim.Time
	misses int64
	pf     int64
	hops   int64
}
