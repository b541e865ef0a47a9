package prefetch

import (
	"testing"

	"prefetchsim/internal/mem"
	"prefetchsim/internal/sim"
	"prefetchsim/internal/trace"
)

// onReadStream is the fixed read stream every scheme observes. Half of
// the reads come from four load PCs that walk arrays at strides of 1,
// 2, 9 and 33 blocks, a quarter from a sequential sweep and a quarter
// from random blocks; one read in four hits, and half of those consume
// a prefetched tag.
var onReadStream = func() [4096]Request {
	var s [4096]Request
	rng := sim.NewRand(5)
	strides := [4]mem.Addr{1, 2, 9, 33}
	var pos [4]mem.Addr
	seq := mem.Addr(1 << 30)
	for i := range s {
		var r Request
		switch k := rng.Intn(8); {
		case k < 4:
			pos[k]++
			r.PC = trace.PC(0x100 + 4*k)
			r.Addr = mem.Addr(k+1)<<24 + pos[k]*strides[k]*mem.BlockBytes
		case k < 6:
			seq += mem.BlockBytes
			r.PC, r.Addr = 0x200, seq
		default:
			r.PC, r.Addr = 0x300, mem.Addr(rng.Intn(1<<16))*mem.BlockBytes
		}
		r.Block = mem.BlockOf(r.Addr)
		r.Hit = rng.Intn(4) == 0
		r.TagConsumed = r.Hit && rng.Intn(2) == 0
		s[i] = r
	}
	return s
}()

var onReadSchemes = []func() Prefetcher{
	func() Prefetcher { return NewIDetection(256, 1) },
	func() Prefetcher { return NewDefaultDDetection(1) },
	func() Prefetcher { return NewSequential(1) },
	func() Prefetcher { return NewMarkov(1) },
	func() Prefetcher { return NewPerceptron(1) },
	func() Prefetcher { return NewBestOffset(1) },
}

var emitted int

func countEmit(mem.Block) { emitted++ }

// BenchmarkPrefetcherOnRead measures one OnRead call per scheme, at
// degree 1, the cost the machine pays on every SLC read.
func BenchmarkPrefetcherOnRead(b *testing.B) {
	for _, mk := range onReadSchemes {
		p := mk()
		b.Run(p.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p.OnRead(onReadStream[i%len(onReadStream)], countEmit)
			}
		})
	}
}

// TestOnReadAllocatesNothing guards the 0 allocs/op of
// BenchmarkPrefetcherOnRead: once a scheme has seen the stream, its
// tables are sized and no further read allocates.
func TestOnReadAllocatesNothing(t *testing.T) {
	for _, mk := range onReadSchemes {
		p, i := mk(), 0
		read := func() { p.OnRead(onReadStream[i%len(onReadStream)], countEmit); i++ }
		for range onReadStream {
			read()
		}
		if a := testing.AllocsPerRun(len(onReadStream), read); a != 0 {
			t.Errorf("%s: OnRead allocated %.2f times per call, want 0", p.Name(), a)
		}
	}
}
