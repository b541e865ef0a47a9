package blockmap

import (
	"testing"

	"prefetchsim/internal/mem"
)

// FuzzSmallVsMapOracle drives an arbitrary operation sequence through
// Small and a plain map side by side. Keys come from smallKeys, so
// sequences build probe chains that wrap past the last slot and
// collide at every table size, delete inside them, grow the table, and
// use block 0. After every step the table's structure must hold
// (checkSmall) and its contents must match the map.
func FuzzSmallVsMapOracle(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 64, 4, 0, 9, 1, 9, 64})
	f.Add([]byte{0, 254, 1, 255, 6, 254, 4, 254, 9, 254})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var tab Small[uint16]
		oracle := map[mem.Block]uint16{}

		// Each pair of bytes is one operation: the low bits of the first
		// pick the op, the second picks the key.
		for i := 0; i+1 < len(ops); i += 2 {
			op, b := ops[i]&7, smallKeys[ops[i+1]]
			val := uint16(ops[i]) ^ uint16(ops[i+1])<<3
			switch op {
			case 0, 1, 2: // Put
				tab.Put(b, val)
				oracle[b] = val
			case 3, 4: // Delete
				got, ok := tab.Delete(b)
				want, wok := oracle[b]
				if ok != wok || (ok && got != want) {
					t.Fatalf("Delete(%#x) = %d,%v; oracle %d,%v", b, got, ok, want, wok)
				}
				delete(oracle, b)
			case 5: // Ref (insert-or-update through the pointer)
				*tab.Ref(b) = val
				oracle[b] = val
			case 6: // Ptr (update in place if present)
				p := tab.Ptr(b)
				if _, wok := oracle[b]; (p != nil) != wok {
					t.Fatalf("Ptr(%#x) present = %v; oracle %v", b, p != nil, wok)
				}
				if p != nil {
					*p = val
					oracle[b] = val
				}
			default: // Get
				got, ok := tab.Get(b)
				want, wok := oracle[b]
				if ok != wok || (ok && got != want) {
					t.Fatalf("Get(%#x) = %d,%v; oracle %d,%v", b, got, ok, want, wok)
				}
			}
			checkSmall(t, &tab)
			if tab.Len() != len(oracle) {
				t.Fatalf("Len() = %d, oracle has %d entries", tab.Len(), len(oracle))
			}
		}

		// Full sweep: every oracle entry must be present with the right
		// value, and every other key must miss.
		for _, b := range smallKeys {
			got, ok := tab.Get(b)
			want, wok := oracle[b]
			if ok != wok || (ok && got != want) {
				t.Fatalf("final Get(%#x) = %d,%v; oracle %d,%v", b, got, ok, want, wok)
			}
		}
	})
}
