package blockmap

import (
	"testing"

	"prefetchsim/internal/mem"
)

// fuzzOffsets are the in-leaf offsets a fuzzed key can take: both
// sides of each occupancy-word boundary and of the leaf's ends.
var fuzzOffsets = [8]mem.Block{0, 1, 62, 63, 64, 65, 126, 127}

// fuzzPages is the page spread a fuzzed key can take: page 0, the last
// page of the key space, neighbours and powers of two in between. There
// are more than fit a minimum-size page index, so sequences grow it and
// wrap its probe chains.
var fuzzPages = [32]mem.Block{
	0, 1, 2, 3, 4, 5, 16, 17,
	127, 128, 1000, 4095, 4096, 65535, 65536, 1 << 20,
	1<<32 - 1, 1 << 32, 1 << 40, 1 << 48, 1<<56 - 1, 1 << 56, 3 << 55, 1 << 57,
	maxPage - 7, maxPage - 6, maxPage - 5, maxPage - 4, maxPage - 3, maxPage - 2, maxPage - 1, maxPage,
}

const maxPage = ^mem.Block(0) >> leafBits

// fuzzKey decodes one key byte: the low 3 bits pick the offset within
// a leaf, the high 5 the page.
func fuzzKey(k byte) mem.Block {
	return fuzzPages[k>>3]<<leafBits | fuzzOffsets[k&7]
}

// FuzzTableVsMapOracle drives an arbitrary operation sequence through
// Table and a plain map side by side. The table's page index (growth,
// probe chains that wrap its end), its leaf boundaries and the
// clear-then-refill free list are exactly the corner cases fuzzing
// finds, and any divergence from map semantics would silently corrupt
// every prefetch scheme built on it. A pointer kept from Ref must keep
// reading the oracle's value for its key until the next Clear.
func FuzzTableVsMapOracle(f *testing.F) {
	f.Add([]byte{0, 1, 1, 1, 2, 1, 0, 2, 3, 0})
	f.Add([]byte{0, 255, 1, 255, 2, 255, 4, 0, 0, 255, 2, 255})
	f.Add([]byte{4, 0, 0, 7, 1, 7, 3, 7})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var tab Table[uint16]
		oracle := map[mem.Block]uint16{}
		var kept *uint16
		var keptKey mem.Block

		// Each pair of bytes is one operation: the low bits of the first
		// pick the op, the second picks the block.
		for i := 0; i+1 < len(ops); i += 2 {
			op, b := ops[i]&15, fuzzKey(ops[i+1])
			val := uint16(ops[i]) ^ uint16(ops[i+1])<<3
			switch op {
			case 0, 1, 2, 3: // Put
				tab.Put(b, val)
				oracle[b] = val
			case 4, 5: // Delete
				got, ok := tab.Delete(b)
				want, wok := oracle[b]
				if ok != wok || (ok && got != want) {
					t.Fatalf("Delete(%#x) = %d,%v; oracle %d,%v", b, got, ok, want, wok)
				}
				delete(oracle, b)
			case 6: // Ref (insert-or-update through the pointer)
				*tab.Ref(b) = val
				oracle[b] = val
			case 7: // Clear
				tab.Clear()
				oracle = map[mem.Block]uint16{}
				kept = nil
			case 8: // keep a pointer across the operations that follow
				kept, keptKey = tab.Ref(b), b
				*kept = val
				oracle[b] = val
			default: // Get
				got, ok := tab.Get(b)
				want, wok := oracle[b]
				if ok != wok || (ok && got != want) {
					t.Fatalf("Get(%#x) = %d,%v; oracle %d,%v", b, got, ok, want, wok)
				}
			}
			if tab.Len() != len(oracle) {
				t.Fatalf("Len() = %d, oracle has %d entries", tab.Len(), len(oracle))
			}
			// A deleted key's pointer reads zero until it is reinserted.
			if kept != nil && *kept != oracle[keptKey] {
				t.Fatalf("kept pointer for %#x reads %d; oracle %d", keptKey, *kept, oracle[keptKey])
			}
		}

		// Full sweep: every oracle entry must be present with the right
		// value, and every other decodable key must miss.
		for k := 0; k < 256; k++ {
			b := fuzzKey(byte(k))
			got, ok := tab.Get(b)
			want, wok := oracle[b]
			if ok != wok || (ok && got != want) {
				t.Fatalf("final Get(%#x) = %d,%v; oracle %d,%v", b, got, ok, want, wok)
			}
		}
		if _, ok := tab.Get(mem.Block(1<<40) + 7); ok {
			t.Fatal("Get of a never-inserted block reported present")
		}
	})
}
