package coherence

import (
	"testing"

	"prefetchsim/internal/mem"
)

// dirBench drives a warmed directory through the transactions the
// machine's home node runs: read-shares, a write upgrade that
// invalidates the sharers (queued behind a read in flight, so the
// waiter FIFO is exercised), and a writeback that releases ownership.
type dirBench struct {
	d     *Directory
	w     upgrade
	inval int
}

// dirBlocks is the working set: 4096 blocks 37 apart, spread over 1184
// of the entry table's 128-block pages.
const dirBlocks = 4096

func dirBlock(i int) mem.Block { return mem.Block(i%dirBlocks) * 37 }

func newDirBench() *dirBench {
	s := &dirBench{d: New(16)}
	s.w.s = s
	for i := 0; i < dirBlocks; i++ {
		s.d.Entry(dirBlock(i))
	}
	return s
}

// upgrade is a write transaction that waits for the block's entry.
type upgrade struct {
	s    *dirBench
	b    mem.Block
	node int
}

func (w *upgrade) Run() { w.s.grant(w.b, w.node) }

// share makes node a reader of b; a dirty owner supplies the data and
// keeps a shared copy.
func (s *dirBench) share(b mem.Block, node int) {
	e := s.d.Entry(b)
	if e.State == Dirty {
		owner := int(e.Owner)
		e.ClearSharers()
		e.AddSharer(owner)
	}
	e.State = SharedClean
	e.AddSharer(node)
}

// grant invalidates every sharer of b but node and makes node the
// dirty owner.
func (s *dirBench) grant(b mem.Block, node int) {
	e := s.d.Entry(b)
	for v := e.Bits() &^ (1 << uint(node)); v != 0; v &= v - 1 {
		s.inval++
	}
	e.State = Dirty
	e.Owner = int8(node)
	e.ClearSharers()
}

// step runs transaction i, issued by node i%16. Each block takes four
// in a row: two read-shares, a read-share with a write upgrade queued
// behind it, and a writeback.
func (s *dirBench) step(i int) {
	b, node := dirBlock(i>>2), i%16
	switch i & 3 {
	case 0, 1:
		s.d.Acquire(b, nil)
		s.share(b, node)
		s.d.Release(b)
	case 2:
		s.d.Acquire(b, nil)
		s.w.b, s.w.node = b, (node+7)%16
		s.d.Acquire(b, &s.w)
		s.share(b, node)
		s.d.Release(b) // runs the queued upgrade
		s.d.Release(b)
	case 3:
		s.d.Acquire(b, nil)
		e := s.d.Entry(b)
		e.State = Uncached
		e.ClearSharers()
		s.d.Release(b)
	}
}

// BenchmarkDirectoryTransaction measures one home-node transaction on
// a directory whose entries all exist. Steady state must report
// 0 allocs/op.
func BenchmarkDirectoryTransaction(b *testing.B) {
	s := newDirBench()
	for i := 0; i < 4*dirBlocks; i++ {
		s.step(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.step(i)
	}
}

// TestDirectoryTransactionAllocatesNothing guards the 0 allocs/op of
// BenchmarkDirectoryTransaction: once the directory is warm, no
// transaction kind allocates.
func TestDirectoryTransactionAllocatesNothing(t *testing.T) {
	s := newDirBench()
	for i := 0; i < 4*dirBlocks; i++ {
		s.step(i)
	}
	i := 0
	if a := testing.AllocsPerRun(4*dirBlocks, func() { s.step(i); i++ }); a != 0 {
		t.Fatalf("a directory transaction allocated %.2f times, want 0", a)
	}
	if s.inval == 0 {
		t.Fatal("no write upgrade invalidated a sharer")
	}
}
