package blockmap

import (
	"testing"

	"prefetchsim/internal/mem"
	"prefetchsim/internal/sim"
)

// smallKeys holds 256 keys for the Small tests and fuzz target:
//   - 0..63: blocks whose hash has top bits 11111, so at every table
//     size their home lies in the last 1/32 of the slots and their
//     probe chains wrap past the end;
//   - 64..127: blocks whose hash has top bits 00000, homed in the first
//     1/32 of the slots, where the wrapped chains land;
//   - 128..253: a dense run of blocks from 1<<20;
//   - 254, 255: block 0 and the largest block.
var smallKeys = func() (k [256]mem.Block) {
	tail, head := 0, 64
	for b := mem.Block(1); tail < 64 || head < 128; b++ {
		switch top := (uint64(b) * 0x9E3779B97F4A7C15) >> 59; {
		case top == 31 && tail < 64:
			k[tail] = b
			tail++
		case top == 0 && head < 128:
			k[head] = b
			head++
		}
	}
	for i := 128; i < 254; i++ {
		k[i] = mem.Block(1<<20 + i - 128)
	}
	k[254], k[255] = 0, ^mem.Block(0)
	return k
}()

// checkSmall verifies the table's structure: Len counts the used slots,
// no more than half the slots are used, and every entry is reachable
// from its home without crossing an empty slot (what backward-shift
// deletion must preserve).
func checkSmall[V any](t *testing.T, tab *Small[V]) {
	t.Helper()
	used := 0
	mask := len(tab.slots) - 1
	for j, s := range tab.slots {
		if !s.used {
			continue
		}
		used++
		for i := tab.home(s.key); i != j; i = (i + 1) & mask {
			if !tab.slots[i].used {
				t.Fatalf("key %#x in slot %d is cut off from its home %d by empty slot %d",
					s.key, j, tab.home(s.key), i)
			}
		}
	}
	if used != tab.n {
		t.Fatalf("Len() = %d, %d slots used", tab.n, used)
	}
	if 2*tab.n > len(tab.slots) {
		t.Fatalf("%d entries in %d slots, over half load", tab.n, len(tab.slots))
	}
}

func TestSmallBasicOps(t *testing.T) {
	var tab Small[int]
	if _, ok := tab.Get(5); ok || tab.Ptr(5) != nil || tab.slots != nil {
		t.Fatal("empty table reported a hit or allocated")
	}
	if _, ok := tab.Delete(5); ok {
		t.Fatal("Delete on an empty table reported success")
	}
	tab.Put(5, 50)
	tab.Put(0, 1) // block 0 is a valid key, not a sentinel
	if len(tab.slots) != minSmall {
		t.Fatalf("first insert allocated %d slots, want %d", len(tab.slots), minSmall)
	}
	if v, ok := tab.Get(0); !ok || v != 1 {
		t.Fatalf("Get(0) = %d,%v want 1,true", v, ok)
	}
	tab.Put(5, 51)
	*tab.Ref(5) += 1
	*tab.Ref(9) += 3 // inserts a zero first
	if v, _ := tab.Get(5); v != 52 || tab.Len() != 3 {
		t.Fatalf("overwrite: got %d len %d, want 52 len 3", v, tab.Len())
	}
	if p := tab.Ptr(9); p == nil || *p != 3 {
		t.Fatal("Ptr missed a key inserted by Ref")
	}
	if old, ok := tab.Delete(5); !ok || old != 52 {
		t.Fatalf("Delete(5) = %d,%v want 52,true", old, ok)
	}
	if _, ok := tab.Get(5); ok || tab.Len() != 2 {
		t.Fatal("deleted key still present")
	}
	if _, ok := tab.Delete(5); ok {
		t.Fatal("double delete reported success")
	}
	checkSmall(t, &tab)
}

// TestSmallWrapAndShiftBack builds probe chains that wrap past the last
// slot, deletes at the head and in the middle of a chain, and checks
// where backward shifting moves the survivors.
func TestSmallWrapAndShiftBack(t *testing.T) {
	var tab Small[mem.Block]
	tail := smallKeys[0:4]   // all homed in slot 31 of 32
	head := smallKeys[64:66] // homed in slot 0
	for _, b := range tail {
		tab.Put(b, b)
	}
	tab.Put(head[0], head[0])
	tab.Put(0, 0) // block 0 hashes to slot 0 as well
	tab.Put(head[1], head[1])
	for i, b := range tail {
		if tab.home(b) != 31 {
			t.Fatalf("tail key %d home = %d, want 31", i, tab.home(b))
		}
	}
	// Slots 31, 0, 1, 2 hold the tail keys, 3..5 the head keys.
	want := map[int]mem.Block{31: tail[0], 0: tail[1], 1: tail[2], 2: tail[3], 3: head[0], 4: 0, 5: head[1]}
	for i, b := range want {
		if s := tab.slots[i]; !s.used || s.key != b {
			t.Fatalf("slot %d holds %#x (used %v), want %#x", i, s.key, s.used, b)
		}
	}
	checkSmall(t, &tab)

	// Deleting the chain's first entry shifts every later entry back by
	// one, across the wrap.
	tab.Delete(tail[0])
	for i, b := range []mem.Block{tail[1], tail[2], tail[3], head[0], 0, head[1]} {
		slot := (31 + i) & 31
		if s := tab.slots[slot]; s.key != b {
			t.Fatalf("after head delete, slot %d holds %#x, want %#x", slot, s.key, b)
		}
	}
	if tab.slots[5].used {
		t.Fatal("slot 5 still used after the shift")
	}
	checkSmall(t, &tab)

	// Deleting inside the chain: tail[2] sits in slot 0; tail[3] (home
	// 31) moves into it, and each head key moves back one slot.
	tab.Delete(tail[2])
	checkSmall(t, &tab)
	for _, b := range []mem.Block{tail[1], tail[3], head[0], 0, head[1]} {
		if v, ok := tab.Get(b); !ok || v != b {
			t.Fatalf("Get(%#x) = %#x,%v after mid-chain delete", b, v, ok)
		}
	}
	if _, ok := tab.Get(tail[2]); ok || tab.Len() != 5 {
		t.Fatal("mid-chain delete left the key or miscounted")
	}
}

// TestSmallSizeTracksLiveEntries checks growth at half load and that
// churn through many distinct blocks, with few live at once, never grows
// the table: its size follows the live population, not the keys seen.
func TestSmallSizeTracksLiveEntries(t *testing.T) {
	var tab Small[int]
	for i := 0; i < 1000; i++ {
		tab.Put(mem.Block(i*mem.BlocksPerPage), i)
		if want := max(minSmall, 2*ceilPow2(tab.Len())); len(tab.slots) != want {
			t.Fatalf("%d entries in %d slots, want %d", tab.Len(), len(tab.slots), want)
		}
	}
	checkSmall(t, &tab)
	for i := 0; i < 1000; i++ {
		if v, ok := tab.Get(mem.Block(i * mem.BlocksPerPage)); !ok || v != i {
			t.Fatalf("Get after growth = %d,%v want %d", v, ok, i)
		}
	}

	var churn Small[int]
	for i := 0; i < 100_000; i++ {
		churn.Put(mem.Block(i*mem.BlocksPerPage+i%7), i)
		if i >= 12 {
			j := i - 12
			if _, ok := churn.Delete(mem.Block(j*mem.BlocksPerPage + j%7)); !ok {
				t.Fatalf("churn: key %d missing", j)
			}
		}
	}
	checkSmall(t, &churn)
	if churn.Len() != 12 || len(churn.slots) != minSmall {
		t.Fatalf("churn left %d entries in %d slots, want 12 in %d", churn.Len(), len(churn.slots), minSmall)
	}
}

func ceilPow2(n int) int {
	p := 1
	for p < n {
		p *= 2
	}
	return p
}

// TestSmallCrossCheckStdlibMap drives a Small table and a stdlib map
// with the same random operations over the smallKeys set (wrapping and
// colliding chains, block 0, the top block) and over random keys of the
// full 64-bit width.
func TestSmallCrossCheckStdlibMap(t *testing.T) {
	rng := sim.NewRand(0x5a11)
	var wide [256]mem.Block
	for i := range wide {
		wide[i] = mem.Block(rng.Uint64())
	}
	for _, keys := range [][256]mem.Block{smallKeys, wide} {
		var tab Small[uint64]
		ref := map[mem.Block]uint64{}
		for op := 0; op < 50_000; op++ {
			b := keys[rng.Intn(len(keys))]
			switch rng.Intn(5) {
			case 0, 1:
				v := rng.Uint64()
				tab.Put(b, v)
				ref[b] = v
			case 2, 3:
				gv, gok := tab.Delete(b)
				wv, wok := ref[b]
				delete(ref, b)
				if gok != wok || (gok && gv != wv) {
					t.Fatalf("op %d: Delete(%#x) = %d,%v want %d,%v", op, b, gv, gok, wv, wok)
				}
			default:
				gv, gok := tab.Get(b)
				wv, wok := ref[b]
				if gok != wok || (gok && gv != wv) {
					t.Fatalf("op %d: Get(%#x) = %d,%v want %d,%v", op, b, gv, gok, wv, wok)
				}
			}
			if tab.Len() != len(ref) {
				t.Fatalf("op %d: Len = %d, map has %d", op, tab.Len(), len(ref))
			}
			if op%997 == 0 {
				checkSmall(t, &tab)
			}
		}
		checkSmall(t, &tab)
		for b, wv := range ref {
			if gv, ok := tab.Get(b); !ok || gv != wv {
				t.Fatalf("final Get(%#x) = %d,%v want %d,true", b, gv, ok, wv)
			}
		}
	}
}

// TestSmallSteadyStateAllocatesNothing: once a Small table has grown to
// its working size, a Put/Get/Delete cycle allocates nothing. The
// machine's transaction tables run this cycle on every miss.
func TestSmallSteadyStateAllocatesNothing(t *testing.T) {
	var tab Small[*int]
	x := new(int)
	for i := 0; i < 10; i++ {
		tab.Put(mem.Block(i), x)
	}
	i := 0
	a := testing.AllocsPerRun(1000, func() {
		b := mem.Block(100 + i*mem.BlocksPerPage)
		i++
		tab.Put(b, x)
		if p, ok := tab.Get(b); !ok || p != x {
			t.Fatal("Get missed a fresh key")
		}
		tab.Delete(b)
	})
	if a != 0 {
		t.Fatalf("Put/Get/Delete cycle allocated %.1f times, want 0", a)
	}
}

// BenchmarkSmallCycle is the per-miss cost of a transaction table: one
// insert, two lookups and one delete with a handful of live entries.
func BenchmarkSmallCycle(b *testing.B) {
	var tab Small[*int]
	x := new(int)
	for i := 0; i < 8; i++ {
		tab.Put(mem.Block(i*977), x)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := mem.Block(1<<20 + i)
		tab.Put(k, x)
		tab.Get(k)
		tab.Get(k + 1)
		tab.Delete(k)
	}
}
