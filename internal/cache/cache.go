// Package cache implements the two cache levels of a processing node
// (paper §2 and Figure 1):
//
//   - FLC: a 4 KB direct-mapped, write-through, no-write-allocate
//     first-level data cache that blocks on read misses and has an
//     external block-invalidation pin (inclusion is maintained by the
//     SLC).
//   - SLC: a write-back second-level cache, lockup-free via the SLWB.
//     Two tag stores are provided: an infinite one (the paper's default,
//     isolating cold and coherence misses) and a finite direct-mapped
//     one (§5.3). Each SLC line carries the 1-bit "prefetched" tag used
//     by the shared prefetching phase (§3.3–3.4).
//
// The package also provides WriteBuffer, the analytic FIFO occupancy
// model used for the 8-entry FLWB.
package cache

import (
	"prefetchsim/internal/blockmap"
	"prefetchsim/internal/mem"
	"prefetchsim/internal/sim"
)

// State is an SLC line's coherence state (MSI; the directory is the
// write-invalidate full-map protocol of Censier and Feautrier).
type State uint8

const (
	// Invalid: not present.
	Invalid State = iota
	// Shared: clean, possibly cached elsewhere.
	Shared
	// Modified: dirty, exclusive owner.
	Modified
)

func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Modified:
		return "M"
	}
	return "?"
}

// FLC is the first-level cache tag store: direct-mapped, write-through,
// no allocation on write misses. Only presence is tracked (write-through
// means FLC lines are never dirty).
type FLC struct {
	tags  []mem.Block
	valid []bool
	mask  uint64
}

// NewFLC returns an FLC of size bytes (must be a power-of-two multiple
// of the block size; the paper uses 4 KB).
func NewFLC(size int) *FLC {
	sets := size / mem.BlockBytes
	if sets <= 0 || sets&(sets-1) != 0 {
		panic("cache: FLC size must be a power-of-two number of blocks")
	}
	return &FLC{
		tags:  make([]mem.Block, sets),
		valid: make([]bool, sets),
		mask:  uint64(sets - 1),
	}
}

func (c *FLC) set(b mem.Block) int { return int(uint64(b) & c.mask) }

// Lookup reports whether block b is present.
func (c *FLC) Lookup(b mem.Block) bool {
	s := c.set(b)
	return c.valid[s] && c.tags[s] == b
}

// Fill installs block b (after a read miss completes), replacing any
// block in its set. The FLC is write-through so the victim is dropped
// silently.
func (c *FLC) Fill(b mem.Block) {
	s := c.set(b)
	c.tags[s] = b
	c.valid[s] = true
}

// Invalidate removes block b if present (the block-invalidation pin,
// driven by the SLC to maintain inclusion).
func (c *FLC) Invalidate(b mem.Block) {
	s := c.set(b)
	if c.valid[s] && c.tags[s] == b {
		c.valid[s] = false
	}
}

// Line is an SLC line's bookkeeping.
type Line struct {
	State State
	// Prefetched is the 1-bit tag of the prefetching phase: set when a
	// block arrives due to a prefetch, cleared when the processor first
	// references it (which triggers the next prefetch in the sequence).
	Prefetched bool
}

// Victim describes a line evicted by an insertion into a finite SLC.
type Victim struct {
	Block mem.Block
	Line  Line
	Valid bool
}

// Store is the SLC tag store. Implementations are the infinite store
// (paper default) and a finite direct-mapped store (§5.3).
type Store interface {
	// Lookup returns the line for b and whether it is present (present
	// means state != Invalid).
	Lookup(b mem.Block) (Line, bool)
	// Insert installs b with the given state, returning the victim it
	// displaced, if any. Inserting over an existing line updates it in
	// place (no victim).
	Insert(b mem.Block, s State, prefetched bool) Victim
	// SetState updates the state of a present line; it is a no-op if b
	// is absent (the line may have been victimized meanwhile).
	SetState(b mem.Block, s State)
	// ClearPrefetched clears the prefetched tag, reporting whether it
	// was set (a "useful prefetch" event).
	ClearPrefetched(b mem.Block) bool
	// Invalidate removes b, returning the line it held.
	Invalidate(b mem.Block) (Line, bool)
	// PrefetchedCount returns how many resident lines still carry the
	// prefetched tag (prefetches never consumed; counted as useless at
	// the end of a run).
	PrefetchedCount() int
}

// InfiniteStore is an SLC with unbounded capacity: no replacement
// misses, so all remaining misses are cold or coherence misses (§5.1).
// Lines live in a page-granular block table, not a Go map: the SLC
// tag lookup is on the path of every FLC miss.
type InfiniteStore struct {
	lines      blockmap.Table[Line]
	prefetched int
}

// NewInfiniteStore returns an empty infinite SLC store.
func NewInfiniteStore() *InfiniteStore {
	return &InfiniteStore{}
}

// Lookup implements Store.
func (c *InfiniteStore) Lookup(b mem.Block) (Line, bool) {
	return c.lines.Get(b)
}

// Insert implements Store; an infinite store never evicts.
func (c *InfiniteStore) Insert(b mem.Block, s State, prefetched bool) Victim {
	l := c.lines.Ref(b)
	if l.Prefetched {
		c.prefetched--
	}
	*l = Line{State: s, Prefetched: prefetched}
	if prefetched {
		c.prefetched++
	}
	return Victim{}
}

// SetState implements Store.
func (c *InfiniteStore) SetState(b mem.Block, s State) {
	if l := c.lines.Ptr(b); l != nil {
		l.State = s
	}
}

// ClearPrefetched implements Store.
func (c *InfiniteStore) ClearPrefetched(b mem.Block) bool {
	l := c.lines.Ptr(b)
	if l == nil || !l.Prefetched {
		return false
	}
	l.Prefetched = false
	c.prefetched--
	return true
}

// Invalidate implements Store.
func (c *InfiniteStore) Invalidate(b mem.Block) (Line, bool) {
	l, ok := c.lines.Delete(b)
	if ok && l.Prefetched {
		c.prefetched--
	}
	return l, ok
}

// PrefetchedCount implements Store.
func (c *InfiniteStore) PrefetchedCount() int { return c.prefetched }

// DirectStore is a finite direct-mapped SLC (16 KB in §5.3), the
// configuration under which replacement misses appear.
type DirectStore struct {
	tags       []mem.Block
	lines      []Line
	mask       uint64
	prefetched int
}

// NewDirectStore returns a direct-mapped SLC of size bytes (a
// power-of-two multiple of the block size).
func NewDirectStore(size int) *DirectStore {
	sets := size / mem.BlockBytes
	if sets <= 0 || sets&(sets-1) != 0 {
		panic("cache: SLC size must be a power-of-two number of blocks")
	}
	return &DirectStore{
		tags:  make([]mem.Block, sets),
		lines: make([]Line, sets),
		mask:  uint64(sets - 1),
	}
}

func (c *DirectStore) set(b mem.Block) int { return int(uint64(b) & c.mask) }

// Lookup implements Store.
func (c *DirectStore) Lookup(b mem.Block) (Line, bool) {
	s := c.set(b)
	if c.lines[s].State != Invalid && c.tags[s] == b {
		return c.lines[s], true
	}
	return Line{}, false
}

// Insert implements Store.
func (c *DirectStore) Insert(b mem.Block, st State, prefetched bool) Victim {
	s := c.set(b)
	var v Victim
	if c.lines[s].State != Invalid && c.tags[s] != b {
		v = Victim{Block: c.tags[s], Line: c.lines[s], Valid: true}
		if c.lines[s].Prefetched {
			c.prefetched--
		}
	} else if c.lines[s].State != Invalid && c.lines[s].Prefetched {
		c.prefetched--
	}
	c.tags[s] = b
	c.lines[s] = Line{State: st, Prefetched: prefetched}
	if prefetched {
		c.prefetched++
	}
	return v
}

// SetState implements Store.
func (c *DirectStore) SetState(b mem.Block, st State) {
	s := c.set(b)
	if c.lines[s].State != Invalid && c.tags[s] == b {
		c.lines[s].State = st
	}
}

// ClearPrefetched implements Store.
func (c *DirectStore) ClearPrefetched(b mem.Block) bool {
	s := c.set(b)
	if c.lines[s].State != Invalid && c.tags[s] == b && c.lines[s].Prefetched {
		c.lines[s].Prefetched = false
		c.prefetched--
		return true
	}
	return false
}

// Invalidate implements Store.
func (c *DirectStore) Invalidate(b mem.Block) (Line, bool) {
	s := c.set(b)
	if c.lines[s].State == Invalid || c.tags[s] != b {
		return Line{}, false
	}
	l := c.lines[s]
	if l.Prefetched {
		c.prefetched--
	}
	c.lines[s] = Line{}
	return l, true
}

// PrefetchedCount implements Store.
func (c *DirectStore) PrefetchedCount() int { return c.prefetched }

// WriteBuffer is an analytic model of a bounded FIFO write buffer (the
// 8-entry FLWB). The machine computes when each entry finishes draining
// into the SLC; the buffer tracks occupancy from those completion times
// so that a full buffer stalls the processor and FIFO ordering delays a
// read miss behind buffered writes (paper §2).
type WriteBuffer struct {
	capacity    int
	completions []sim.Time // ring, ordered
	head        int
	count       int
	tail        sim.Time // completion time of the most recent entry
}

// NewWriteBuffer returns a buffer of the given capacity.
func NewWriteBuffer(capacity int) *WriteBuffer {
	if capacity <= 0 {
		panic("cache: write buffer capacity must be positive")
	}
	return &WriteBuffer{capacity: capacity, completions: make([]sim.Time, capacity)}
}

// AdmitAt returns the earliest time at or after t at which a new entry
// can be admitted: t itself if a slot is free, otherwise the completion
// time of the oldest entry. Entries completed by t are retired first.
func (w *WriteBuffer) AdmitAt(t sim.Time) sim.Time {
	w.retire(t)
	if w.count < w.capacity {
		return t
	}
	return w.completions[w.head]
}

// Add records an admitted entry that will finish draining at completion.
// The caller must have used AdmitAt to find an admission time first.
func (w *WriteBuffer) Add(completion sim.Time) {
	if w.count == w.capacity {
		// Admission contract violated; drop the oldest to stay sane.
		w.head = (w.head + 1) % w.capacity
		w.count--
	}
	idx := (w.head + w.count) % w.capacity
	w.completions[idx] = completion
	w.count++
	if completion > w.tail {
		w.tail = completion
	}
}

// Tail returns the completion time of the newest buffered entry; a read
// miss entering the FIFO behind writes cannot reach the SLC before this.
func (w *WriteBuffer) Tail() sim.Time { return w.tail }

// Occupancy returns the number of entries still buffered at time t.
func (w *WriteBuffer) Occupancy(t sim.Time) int {
	w.retire(t)
	return w.count
}

func (w *WriteBuffer) retire(t sim.Time) {
	for w.count > 0 && w.completions[w.head] <= t {
		w.head = (w.head + 1) % w.capacity
		w.count--
	}
}
