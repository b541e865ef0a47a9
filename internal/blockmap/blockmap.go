// Package blockmap provides two maps keyed by cache-block numbers that
// replace map[mem.Block]V on the simulator's per-reference fast path.
// Table, a two-level page table, holds per-block state that lives as
// long as the run (directory entries, SLC tags, miss history) and keeps
// on the host the locality the simulated applications have: they lay
// data out densely (mem.Space) and walk it sequentially or with small
// strides. Small, a flat open-addressed hash (small.go), holds state
// that only a few blocks have at a time (in-flight transactions,
// queued directory waiters).
//
// A leaf covers one page, mem.BlocksPerPage blocks: an occupancy
// bitmap and the values inline. An insert-only, open-addressed page
// index maps a page number to its leaf, behind a one-entry cache of the
// last leaf used. Leaves are carved from chunks of up to maxChunk
// leaves and never move, so a pointer from Ptr or Ref stays valid
// until Clear. The trade-off is the sparse worst case: a key space
// that touches one block per page pays for a whole leaf per page, and
// a leaf stays allocated after its last key is deleted.
//
// Table is not safe for concurrent use, not even for concurrent reads:
// lookups update the last-leaf cache. Each Machine owns its tables,
// matching the one-goroutine-per-simulation model of the experiment
// runner.
package blockmap

import (
	"math/bits"

	"prefetchsim/internal/mem"
)

const (
	// leafBits is log2(mem.BlocksPerPage): a block's page is b>>leafBits
	// and its offset in the page's leaf is b&leafMask.
	leafBits = mem.PageShift - mem.BlockShift
	leafMask = mem.BlocksPerPage - 1

	// minIndex is the smallest page index; it grows by doubling.
	minIndex = 16
	// maxChunk caps how many leaves one allocation carves out.
	maxChunk = 64
)

// leaf holds the values of one page's blocks. A value slot whose
// occupancy bit is clear always holds the zero value.
type leaf[V any] struct {
	occ  [mem.BlocksPerPage / 64]uint64
	next *leaf[V] // free-list link, set only while the leaf is free
	vals [mem.BlocksPerPage]V
}

// indexSlot is one page-index cell; a nil leaf marks it empty.
type indexSlot[V any] struct {
	page uint64
	leaf *leaf[V]
}

// Table maps mem.Block to V. The zero value is an empty table ready
// for use.
type Table[V any] struct {
	n     int // entries
	index []indexSlot[V]
	pages int  // occupied index slots
	shift uint // 64 - log2(len(index)), for multiply-shift hashing

	lastPage uint64
	last     *leaf[V] // leaf of lastPage, or nil

	chunk    []leaf[V] // leaves not yet handed out
	chunkLen int       // size of the newest chunk
	free     *leaf[V]  // leaves returned by Clear
}

// Len returns the number of entries.
func (t *Table[V]) Len() int { return t.n }

// Get returns the value stored for b.
func (t *Table[V]) Get(b mem.Block) (v V, ok bool) {
	if p := t.Ptr(b); p != nil {
		v, ok = *p, true
	}
	return v, ok
}

// Ptr returns a pointer to the value stored for b, or nil if absent.
// The pointer stays valid until Clear; after Delete(b) it reads the
// zero value, or b's value once b is inserted again.
func (t *Table[V]) Ptr(b mem.Block) *V {
	l, i := t.lookup(uint64(b)>>leafBits), uint(b)&leafMask
	if l == nil || l.occ[i>>6]&(1<<(i&63)) == 0 {
		return nil
	}
	return &l.vals[i]
}

// Put stores v for b, replacing any existing value.
func (t *Table[V]) Put(b mem.Block, v V) { *t.Ref(b) = v }

// Ref returns a pointer to the value stored for b, inserting a zero
// value first if b is absent. The pointer stays valid until Clear.
func (t *Table[V]) Ref(b mem.Block) *V {
	p, i := uint64(b)>>leafBits, uint(b)&leafMask
	l := t.lookup(p)
	if l == nil {
		l = t.insert(p)
	}
	if l.occ[i>>6]&(1<<(i&63)) == 0 {
		l.occ[i>>6] |= 1 << (i & 63)
		t.n++
	}
	return &l.vals[i]
}

// Delete removes b, returning the value it held. The leaf of b's page
// stays in the table.
func (t *Table[V]) Delete(b mem.Block) (V, bool) {
	var zero V
	v := t.Ptr(b)
	if v == nil {
		return zero, false
	}
	old := *v
	*v = zero
	i := uint(b) & leafMask
	t.last.occ[i>>6] &^= 1 << (i & 63) // Ptr left b's leaf in the cache
	t.n--
	return old, true
}

// Clear removes every entry. Its leaves are zeroed onto the free list
// and the page index keeps its size, so a table that is periodically
// reset (the Markov prefetcher's correlation table models finite
// hardware storage this way) refills without allocating.
func (t *Table[V]) Clear() {
	for i := range t.index {
		s := &t.index[i]
		if l := s.leaf; l != nil {
			*l = leaf[V]{}
			l.next = t.free
			t.free = l
			*s = indexSlot[V]{}
		}
	}
	t.n, t.pages, t.last = 0, 0, nil
}

// home returns the preferred index slot of page p: the top
// log2(len(index)) bits of its Fibonacci hash.
func (t *Table[V]) home(p uint64) int {
	return int((p * 0x9E3779B97F4A7C15) >> t.shift)
}

// lookup returns the leaf of page p, or nil if the page has none.
func (t *Table[V]) lookup(p uint64) *leaf[V] {
	if t.last != nil && t.lastPage == p {
		return t.last
	}
	return t.probe(p)
}

// probe searches the page index for p and caches a hit.
func (t *Table[V]) probe(p uint64) *leaf[V] {
	if t.pages == 0 {
		return nil
	}
	mask := len(t.index) - 1
	for i := t.home(p); ; i = (i + 1) & mask {
		s := &t.index[i]
		if s.leaf == nil {
			return nil
		}
		if s.page == p {
			t.lastPage, t.last = p, s.leaf
			return s.leaf
		}
	}
}

// insert gives page p, which has no leaf, a zeroed one.
func (t *Table[V]) insert(p uint64) *leaf[V] {
	if t.pages >= len(t.index)*3/4 { // covers the empty index: 0 >= 0
		t.grow()
	}
	l := t.newLeaf()
	t.place(p, l)
	t.pages++
	t.lastPage, t.last = p, l
	return l
}

// place stores p -> l in the first empty slot of p's probe chain.
func (t *Table[V]) place(p uint64, l *leaf[V]) {
	mask := len(t.index) - 1
	i := t.home(p)
	for t.index[i].leaf != nil {
		i = (i + 1) & mask
	}
	t.index[i] = indexSlot[V]{page: p, leaf: l}
}

// grow doubles the page index and re-places every page; leaves stay put.
func (t *Table[V]) grow() {
	old := t.index
	size := max(2*len(old), minIndex)
	t.index = make([]indexSlot[V], size)
	t.shift = uint(65 - bits.Len(uint(size))) // 64 - log2(size)
	for _, s := range old {
		if s.leaf != nil {
			t.place(s.page, s.leaf)
		}
	}
}

// newLeaf takes a zeroed leaf from the free list, or from the current
// chunk, allocating a chunk twice the previous one's size (up to
// maxChunk leaves) when that is used up.
func (t *Table[V]) newLeaf() *leaf[V] {
	if l := t.free; l != nil {
		t.free, l.next = l.next, nil
		return l
	}
	if len(t.chunk) == 0 {
		t.chunkLen = min(max(2*t.chunkLen, 1), maxChunk)
		t.chunk = make([]leaf[V], t.chunkLen)
	}
	l := &t.chunk[0]
	t.chunk = t.chunk[1:]
	return l
}
