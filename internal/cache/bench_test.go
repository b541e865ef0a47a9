package cache

import (
	"testing"

	"prefetchsim/internal/mem"
	"prefetchsim/internal/sim"
)

// slcRefs is a fixed reference stream for a 16 KB (512-block) SLC: three
// in four references fall in a 384-block hot region, the rest step
// through a sequential run of other blocks, so both hits and conflict
// evictions occur. A miss at every eighth reference fills as a
// prefetch, so the tag is set and cleared.
var slcRefs = func() [4096]mem.Block {
	var r [4096]mem.Block
	rng := sim.NewRand(3)
	walk := mem.Block(1 << 20)
	for i := range r {
		if rng.Intn(4) != 0 {
			r[i] = mem.Block(rng.Intn(384))
		} else {
			walk++
			r[i] = walk
		}
	}
	return r
}()

// lookupFill is one SLC read: a hit consumes the prefetched tag, a miss
// fills the block and drops the victim.
func lookupFill(s Store, i int) {
	b := slcRefs[i%len(slcRefs)]
	if l, ok := s.Lookup(b); ok {
		if l.Prefetched {
			s.ClearPrefetched(b)
		}
		return
	}
	s.Insert(b, Shared, i%8 == 0)
}

var slcStores = []struct {
	name string
	new  func() Store
}{
	{"direct", func() Store { return NewDirectStore(16 << 10) }},
	{"assoc4", func() Store { return NewAssocStore(16<<10, 4) }},
}

// BenchmarkSLCLookupFill measures one SLC lookup, plus the fill on a
// miss, for the finite direct-mapped SLC of §5.3 and a 4-way
// set-associative one of the same size. Steady state must report
// 0 allocs/op.
func BenchmarkSLCLookupFill(b *testing.B) {
	for _, st := range slcStores {
		b.Run(st.name, func(b *testing.B) {
			s := st.new()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				lookupFill(s, i)
			}
		})
	}
}

// TestSLCLookupFillAllocatesNothing guards the 0 allocs/op of
// BenchmarkSLCLookupFill.
func TestSLCLookupFillAllocatesNothing(t *testing.T) {
	for _, st := range slcStores {
		s, i := st.new(), 0
		if a := testing.AllocsPerRun(len(slcRefs), func() { lookupFill(s, i); i++ }); a != 0 {
			t.Errorf("%s: an SLC lookup and fill allocated %.2f times, want 0", st.name, a)
		}
	}
}
