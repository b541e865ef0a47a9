package blockmap

import (
	"math/bits"

	"prefetchsim/internal/mem"
)

// minSmall is the slot count of a Small table's first allocation.
const minSmall = 32

// smallSlot is one cell of a Small table; used is false in an empty
// cell, whose key and value are then zero.
type smallSlot[V any] struct {
	key  mem.Block
	used bool
	val  V
}

// Small maps mem.Block to V for tables whose live population is small
// and transient: the per-node transaction and writeback tables, which
// model an SLWB of a few dozen entries, and the directory's waiter
// queues, which exist only while a block is contended. Where Table
// keeps a leaf for every page a key ever fell in, Small is one
// open-addressed slot array: linear probing from the same
// multiply-shift hash as Table's page index, and backward-shift
// deletion, which leaves no tombstones. Its size therefore follows the
// peak number of live entries, never the number of pages touched: 32
// slots on the first insert, doubling whenever an insert would fill
// half of them. The zero value is an empty table that has allocated
// nothing.
//
// Inserts and deletes move entries, so a pointer from Ptr or Ref is
// valid only until the next Put, Ref or Delete on the same table.
//
// Like Table, Small is not safe for concurrent use.
type Small[V any] struct {
	n     int
	slots []smallSlot[V]
	shift uint // 64 - log2(len(slots))
}

// Len returns the number of entries.
func (t *Small[V]) Len() int { return t.n }

// Get returns the value stored for b.
func (t *Small[V]) Get(b mem.Block) (v V, ok bool) {
	if p := t.Ptr(b); p != nil {
		v, ok = *p, true
	}
	return v, ok
}

// Ptr returns a pointer to the value stored for b, or nil if absent.
// The pointer is valid until the next Put, Ref or Delete.
func (t *Small[V]) Ptr(b mem.Block) *V {
	if i := t.find(b); i >= 0 {
		return &t.slots[i].val
	}
	return nil
}

// Put stores v for b, replacing any existing value.
func (t *Small[V]) Put(b mem.Block, v V) { *t.Ref(b) = v }

// Ref returns a pointer to the value stored for b, inserting a zero
// value first if b is absent. The pointer is valid until the next Put,
// Ref or Delete.
func (t *Small[V]) Ref(b mem.Block) *V {
	if i := t.find(b); i >= 0 {
		return &t.slots[i].val
	}
	if t.n >= len(t.slots)/2 { // covers the empty table: 0 >= 0
		t.grow()
	}
	s := &t.slots[t.place(b)]
	s.key, s.used = b, true
	t.n++
	return &s.val
}

// Delete removes b, returning the value it held. The entries after b
// in its probe chain shift back over the hole.
func (t *Small[V]) Delete(b mem.Block) (V, bool) {
	var zero V
	i := t.find(b)
	if i < 0 {
		return zero, false
	}
	old := t.slots[i].val
	mask := len(t.slots) - 1
	for j := (i + 1) & mask; t.slots[j].used; j = (j + 1) & mask {
		// The entry at j may fill the hole at i unless its home lies
		// cyclically in (i, j]: moving it there would put it before
		// its home, where a probe never looks.
		if (j-t.home(t.slots[j].key))&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = smallSlot[V]{}
	t.n--
	return old, true
}

// home returns the preferred slot of b: the top log2(len(slots)) bits
// of its Fibonacci hash.
func (t *Small[V]) home(b mem.Block) int {
	return int((uint64(b) * 0x9E3779B97F4A7C15) >> t.shift)
}

// find returns b's slot, or -1 if b is absent.
func (t *Small[V]) find(b mem.Block) int {
	if t.n == 0 {
		return -1
	}
	mask := len(t.slots) - 1
	for i := t.home(b); t.slots[i].used; i = (i + 1) & mask {
		if t.slots[i].key == b {
			return i
		}
	}
	return -1
}

// place returns the first empty slot of b's probe chain.
func (t *Small[V]) place(b mem.Block) int {
	mask := len(t.slots) - 1
	i := t.home(b)
	for t.slots[i].used {
		i = (i + 1) & mask
	}
	return i
}

// grow doubles the slot array and re-places every entry.
func (t *Small[V]) grow() {
	old := t.slots
	size := max(2*len(old), minSmall)
	t.slots = make([]smallSlot[V], size)
	t.shift = uint(65 - bits.Len(uint(size)))
	for _, s := range old {
		if s.used {
			t.slots[t.place(s.key)] = s
		}
	}
}
