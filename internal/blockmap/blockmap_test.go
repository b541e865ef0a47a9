package blockmap

import (
	"testing"

	"prefetchsim/internal/mem"
	"prefetchsim/internal/sim"
)

func TestBasicOps(t *testing.T) {
	var tb Table[int]
	if _, ok := tb.Get(5); ok {
		t.Fatal("empty table reported a hit")
	}
	tb.Put(5, 50)
	tb.Put(0, 1) // block 0 is a valid key, not a sentinel
	if v, ok := tb.Get(5); !ok || v != 50 {
		t.Fatalf("Get(5) = %d,%v want 50,true", v, ok)
	}
	if v, ok := tb.Get(0); !ok || v != 1 {
		t.Fatalf("Get(0) = %d,%v want 1,true", v, ok)
	}
	tb.Put(5, 51)
	if v, _ := tb.Get(5); v != 51 || tb.Len() != 2 {
		t.Fatalf("overwrite: got %d len %d, want 51 len 2", v, tb.Len())
	}
	if old, ok := tb.Delete(5); !ok || old != 51 {
		t.Fatalf("Delete(5) = %d,%v want 51,true", old, ok)
	}
	if _, ok := tb.Get(5); ok || tb.Len() != 1 {
		t.Fatal("deleted key still present")
	}
	if _, ok := tb.Delete(5); ok {
		t.Fatal("double delete reported success")
	}
}

func TestRefInsertsZero(t *testing.T) {
	var tb Table[uint8]
	*tb.Ref(9) |= 2
	*tb.Ref(9) |= 4
	if v, ok := tb.Get(9); !ok || v != 6 {
		t.Fatalf("Ref read-modify-write: got %d,%v want 6,true", v, ok)
	}
	if p := tb.Ptr(10); p != nil {
		t.Fatal("Ptr materialized an absent key")
	}
	if p := tb.Ptr(9); p == nil || *p != 6 {
		t.Fatal("Ptr missed a present key")
	}
}

// TestCrossCheckStdlibMap drives a Table and a stdlib map with the same
// randomized operation sequence — inserts, overwrites, deletes,
// re-inserts after deletion — over key ranges both narrow (one or a
// few leaves, constant reuse) and full-width (a large, sparse page index),
// and asserts every lookup and final state agree.
func TestCrossCheckStdlibMap(t *testing.T) {
	rng := sim.NewRand(0xb10c)
	keyRanges := []uint64{8, 64, 1 << 20, 1 << 62}
	for _, kr := range keyRanges {
		var tb Table[uint64]
		ref := make(map[mem.Block]uint64)
		for op := 0; op < 60_000; op++ {
			var b mem.Block
			if kr > 1<<32 {
				// Spread across the full key width, including huge
				// values, to catch hash/shift overflow bugs.
				b = mem.Block(rng.Uint64() % kr)
			} else {
				b = mem.Block(rng.Uint64() % kr)
			}
			switch rng.Intn(4) {
			case 0, 1: // insert / overwrite
				v := rng.Uint64()
				tb.Put(b, v)
				ref[b] = v
			case 2: // delete
				gv, gok := tb.Delete(b)
				wv, wok := ref[b]
				delete(ref, b)
				if gok != wok || (gok && gv != wv) {
					t.Fatalf("range %d op %d: Delete(%d) = %d,%v want %d,%v", kr, op, b, gv, gok, wv, wok)
				}
			case 3: // lookup
				gv, gok := tb.Get(b)
				wv, wok := ref[b]
				if gok != wok || (gok && gv != wv) {
					t.Fatalf("range %d op %d: Get(%d) = %d,%v want %d,%v", kr, op, b, gv, gok, wv, wok)
				}
			}
			if tb.Len() != len(ref) {
				t.Fatalf("range %d op %d: Len = %d, map has %d", kr, op, tb.Len(), len(ref))
			}
		}
		// Full final-state sweep: every reference key present with the
		// right value, and no probe chain broken by deletions.
		for b, wv := range ref {
			if gv, ok := tb.Get(b); !ok || gv != wv {
				t.Fatalf("range %d final: Get(%d) = %d,%v want %d,true", kr, b, gv, ok, wv)
			}
		}
	}
}

// TestLeafBoundariesAndHugeKeys places keys on both sides of leaf
// boundaries, in page 0 and in the last page of the key space, and
// checks each reads back and deletes independently of its neighbours.
func TestLeafBoundariesAndHugeKeys(t *testing.T) {
	top := ^mem.Block(0)
	keys := []mem.Block{
		0, 1, 63, 64, 127, 128, 129, 255, 256,
		1<<40 - 1, 1 << 40,
		top - 128, top - 127, top - 64, top - 1, top,
	}
	var tb Table[int]
	for i, b := range keys {
		tb.Put(b, i+1)
	}
	if tb.Len() != len(keys) {
		t.Fatalf("Len = %d, want %d", tb.Len(), len(keys))
	}
	for i, b := range keys {
		if v, ok := tb.Get(b); !ok || v != i+1 {
			t.Fatalf("Get(%#x) = %d,%v want %d,true", b, v, ok, i+1)
		}
	}
	for _, b := range []mem.Block{2, 62, 65, 126, 130, top - 2, top - 126} {
		if _, ok := tb.Get(b); ok {
			t.Fatalf("Get(%#x) hit a key never inserted", b)
		}
	}
	// Deleting every other key leaves its leaf neighbours intact.
	for i := 0; i < len(keys); i += 2 {
		if v, ok := tb.Delete(keys[i]); !ok || v != i+1 {
			t.Fatalf("Delete(%#x) = %d,%v want %d,true", keys[i], v, ok, i+1)
		}
	}
	for i, b := range keys {
		v, ok := tb.Get(b)
		if want := i%2 == 1; ok != want || (ok && v != i+1) {
			t.Fatalf("after deletes Get(%#x) = %d,%v", b, v, ok)
		}
	}
}

// TestPointersStableAcrossIndexGrowth keeps a pointer per key while
// thousands of pages are inserted around it, forcing the page index to
// double many times, and checks every pointer still aliases its entry.
func TestPointersStableAcrossIndexGrowth(t *testing.T) {
	var tb Table[uint64]
	const pages = 5000
	ptrs := make([]*uint64, pages)
	for p := 0; p < pages; p++ {
		b := mem.Block(p*7919) * mem.BlocksPerPage
		ptrs[p] = tb.Ref(b + mem.Block(p%mem.BlocksPerPage))
		*ptrs[p] = uint64(p)
	}
	for p := 0; p < pages; p++ {
		b := mem.Block(p*7919)*mem.BlocksPerPage + mem.Block(p%mem.BlocksPerPage)
		if got := tb.Ptr(b); got != ptrs[p] {
			t.Fatalf("page %d: Ptr moved from %p to %p", p, ptrs[p], got)
		}
		if *ptrs[p] != uint64(p) {
			t.Fatalf("page %d: kept pointer reads %d", p, *ptrs[p])
		}
	}
}

// TestDenseRunLeafCount checks the memory claim behind the design: a
// dense run of N blocks starting on a page boundary uses exactly
// ceil(N/128) leaves.
func TestDenseRunLeafCount(t *testing.T) {
	for _, n := range []int{1, 127, 128, 129, 1000, 1 << 14} {
		var tb Table[uint8]
		base := mem.Block(12345) * mem.BlocksPerPage
		for i := 0; i < n; i++ {
			*tb.Ref(base + mem.Block(i)) |= 1
		}
		want := (n + mem.BlocksPerPage - 1) / mem.BlocksPerPage
		if tb.pages != want || tb.Len() != n {
			t.Fatalf("N=%d: %d leaves, %d entries; want %d leaves, %d entries", n, tb.pages, tb.Len(), want, n)
		}
	}
}

// TestClearRefillAllocatesNothing clears a populated table and refills
// the same pages: the leaves come back from the free list and the
// page index keeps its size, so a steady clear/refill cycle allocates
// nothing.
func TestClearRefillAllocatesNothing(t *testing.T) {
	var tb Table[uint64]
	fill := func() {
		for p := 0; p < 300; p++ {
			for i := 0; i < 3; i++ {
				tb.Put(mem.Block(p*1000+i*40), uint64(p))
			}
		}
	}
	fill()
	allocs := testing.AllocsPerRun(20, func() {
		tb.Clear()
		if tb.Len() != 0 {
			t.Fatal("Clear left entries behind")
		}
		fill()
	})
	if allocs != 0 {
		t.Fatalf("Clear+refill allocated %.1f times per run, want 0", allocs)
	}
	if v, ok := tb.Get(mem.Block(299*1000 + 80)); !ok || v != 299 {
		t.Fatalf("after refill Get = %d,%v want 299,true", v, ok)
	}
}

// benchTableOps drives the steady-state mixed workload the simulator
// generates — lookups dominating, insert/delete churn from
// transactions retiring — over the given key range (a small range
// makes lookups mostly hit, as the directory and history tables do; a
// large one makes them mostly miss, as the pending tables do).
func benchTableOps(b *testing.B, keyRange uint64) {
	var tb Table[uint64]
	rng := sim.NewRand(1)
	const live = 1 << 14
	for i := 0; i < live; i++ {
		tb.Put(mem.Block(rng.Uint64()%keyRange), uint64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := mem.Block(rng.Uint64() % keyRange)
		switch i & 7 {
		case 0:
			tb.Put(k, uint64(i))
		case 1:
			tb.Delete(k)
		default:
			tb.Get(k)
		}
	}
}

// BenchmarkBlockTable's steady state must report 0 allocs/op.
func BenchmarkBlockTable(b *testing.B)     { benchTableOps(b, 1<<20) }
func BenchmarkBlockTableHits(b *testing.B) { benchTableOps(b, 1<<14) }

// benchMapOps is the same workload on map[mem.Block]uint64, for the
// bench trajectory.
func benchMapOps(b *testing.B, keyRange uint64) {
	m := make(map[mem.Block]uint64)
	rng := sim.NewRand(1)
	const live = 1 << 14
	for i := 0; i < live; i++ {
		m[mem.Block(rng.Uint64()%keyRange)] = uint64(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := mem.Block(rng.Uint64() % keyRange)
		switch i & 7 {
		case 0:
			m[k] = uint64(i)
		case 1:
			delete(m, k)
		default:
			_ = m[k]
		}
	}
}

// BenchmarkBlockTableDense uses the simulator's key pattern: keys in
// a dense region of pages (as mem.Space lays data out), walked with unit
// and small strides, with insert/delete churn like transactions
// retiring. Its steady state must report 0 allocs/op.
func BenchmarkBlockTableDense(b *testing.B) {
	const region = 1 << 16 // blocks: 512 pages, 2 MB of simulated data
	var tb Table[uint64]
	for i := 0; i < region; i += 2 {
		tb.Put(mem.Block(i), uint64(i))
	}
	strides := [...]mem.Block{1, 1, 1, 2, 3, 4, 8, 16}
	rng := sim.NewRand(1)
	var cur, stride mem.Block
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i&63 == 0 { // a new walk: random start, unit or small stride
			cur = mem.Block(rng.Uint64() % region)
			stride = strides[rng.Intn(len(strides))]
		}
		cur = (cur + stride) % region
		switch i & 7 {
		case 0:
			tb.Put(cur, uint64(i))
		case 1:
			tb.Delete(cur)
		default:
			tb.Get(cur)
		}
	}
}

func BenchmarkStdlibMap(b *testing.B)     { benchMapOps(b, 1<<20) }
func BenchmarkStdlibMapHits(b *testing.B) { benchMapOps(b, 1<<14) }
