// Package coherence implements the full-map directory state of the
// write-invalidate protocol (after Censier and Feautrier, paper §4).
// Each memory block's home node keeps a presence bit per processing
// node plus a dirty indication. The machine drives the protocol; this
// package owns the state, the presence bookkeeping, and the per-block
// transaction serialization queue that stands in for a real protocol's
// transient states (see DESIGN.md).
package coherence

import (
	"prefetchsim/internal/blockmap"
	"prefetchsim/internal/mem"
)

// EntryState is the directory's view of a block.
type EntryState uint8

const (
	// Uncached: memory holds the only copy.
	Uncached EntryState = iota
	// SharedClean: memory is valid; one or more caches hold copies.
	SharedClean
	// Dirty: exactly one cache holds a modified copy; memory is stale.
	Dirty
)

func (s EntryState) String() string {
	switch s {
	case Uncached:
		return "Uncached"
	case SharedClean:
		return "Shared"
	case Dirty:
		return "Dirty"
	}
	return "?"
}

// Waiter is a queued transaction continuation. The machine passes
// pooled event objects, so queueing a waiter allocates nothing once the
// directory's queues have grown to the run's peak contention.
type Waiter interface {
	Run()
}

// Entry is the directory record of one block: 16 bytes with no
// pointers, so a page of entries is 2 KB the garbage collector never
// scans. The FIFO of transactions waiting for a busy entry lives in the
// Directory, keyed by block, since few blocks are ever contended.
type Entry struct {
	sharers uint64 // presence bit vector (full map)
	State   EntryState
	Owner   int8 // valid when State == Dirty; New caps nodes at 64

	busy   bool // a transaction is in flight
	queued bool // transactions wait in Directory.waiters
}

// Directory holds entries for every block ever referenced. Blocks not
// present are Uncached; entries materialize on first use. Entries live
// inline in a page-granular block table, which never moves a value, so
// an *Entry stays valid for the directory's lifetime (in-flight events
// hold one across hops).
type Directory struct {
	nodes   int
	entries blockmap.Table[Entry]
	// waiters holds the FIFO of each block whose entry has transactions
	// queued behind the busy one; spare keeps emptied FIFOs' backing
	// arrays for the next contended block.
	waiters blockmap.Small[[]Waiter]
	spare   [][]Waiter
}

// New returns a directory for a machine of nodes processing nodes
// (nodes <= 64).
func New(nodes int) *Directory {
	if nodes <= 0 || nodes > 64 {
		panic("coherence: node count must be in 1..64")
	}
	return &Directory{nodes: nodes}
}

// Entry returns the directory entry for b, materializing an Uncached
// entry on first reference.
func (d *Directory) Entry(b mem.Block) *Entry { return d.entries.Ref(b) }

// Peek returns the entry for b without materializing one.
func (d *Directory) Peek(b mem.Block) (*Entry, bool) {
	e := d.entries.Ptr(b)
	return e, e != nil
}

// Acquire begins a transaction on b's entry. If the entry is free it is
// marked busy and Acquire reports true: the caller proceeds
// immediately. Otherwise w is queued behind b's earlier waiters and run
// (with the entry busy on its behalf) when the transactions ahead of it
// release.
func (d *Directory) Acquire(b mem.Block, w Waiter) bool {
	e := d.entries.Ref(b)
	if !e.busy {
		e.busy = true
		return true
	}
	q := d.waiters.Ref(b)
	if !e.queued {
		e.queued = true
		if k := len(d.spare); k > 0 {
			*q, d.spare = d.spare[k-1], d.spare[:k-1]
		}
	}
	*q = append(*q, w)
	return false
}

// Release ends the current transaction on b's entry. If transactions
// are queued the next one starts immediately (the entry stays busy and
// its continuation runs); otherwise the entry becomes free.
func (d *Directory) Release(b mem.Block) {
	e := d.entries.Ptr(b)
	if e == nil || !e.busy {
		panic("coherence: Release of a non-busy entry")
	}
	if !e.queued {
		e.busy = false
		return
	}
	q := d.waiters.Ptr(b)
	next := (*q)[0]
	if k := len(*q) - 1; k > 0 {
		copy(*q, (*q)[1:])
		(*q)[k] = nil
		*q = (*q)[:k]
	} else {
		(*q)[0] = nil
		d.spare = append(d.spare, (*q)[:0])
		d.waiters.Delete(b)
		e.queued = false
	}
	next.Run()
}

// AddSharer sets node n's presence bit.
func (e *Entry) AddSharer(n int) { e.sharers |= 1 << uint(n) }

// RemoveSharer clears node n's presence bit.
func (e *Entry) RemoveSharer(n int) { e.sharers &^= 1 << uint(n) }

// IsSharer reports whether node n's presence bit is set.
func (e *Entry) IsSharer(n int) bool { return e.sharers&(1<<uint(n)) != 0 }

// ClearSharers drops all presence bits.
func (e *Entry) ClearSharers() { e.sharers = 0 }

// Bits returns the raw presence bit vector; bit n is node n. Hot paths
// iterate this directly (ascending node order) instead of materializing
// the Sharers slice.
func (e *Entry) Bits() uint64 { return e.sharers }

// Sharers returns the nodes with presence bits set, in ascending order
// (deterministic iteration matters for reproducibility).
func (e *Entry) Sharers() []int {
	if e.sharers == 0 {
		return nil
	}
	out := make([]int, 0, 4)
	for v, n := e.sharers, 0; v != 0; v, n = v>>1, n+1 {
		if v&1 != 0 {
			out = append(out, n)
		}
	}
	return out
}

// SharerCount returns the number of presence bits set.
func (e *Entry) SharerCount() int {
	c := 0
	for v := e.sharers; v != 0; v &= v - 1 {
		c++
	}
	return c
}

// Busy reports whether a transaction is in flight for the entry.
func (e *Entry) Busy() bool { return e.busy }
