// Package apptest holds the stream checks the application test suites
// share: op-for-op agreement with a reference program, seamless
// resumption when Next and NextBatch are mixed, and an allocation-free
// steady state for the batched refill cycle.
package apptest

import (
	"testing"

	"prefetchsim/internal/trace"
)

// SameOps drains got and want stream by stream through Next and fails
// at the first op where they differ. Both programs are stopped.
func SameOps(t testing.TB, got, want *trace.Program) {
	t.Helper()
	defer got.Stop()
	defer want.Stop()
	if len(got.Streams) != len(want.Streams) {
		t.Fatalf("%d streams, want %d", len(got.Streams), len(want.Streams))
	}
	for p := range want.Streams {
		for n := 0; ; n++ {
			op, w := got.Streams[p].Next(), want.Streams[p].Next()
			if op != w {
				t.Fatalf("stream %d op %d: got %+v, want %+v", p, n, op, w)
			}
			if op.Kind == trace.End {
				break
			}
		}
	}
}

// SeamlessResumption builds the program twice with mk and drains one
// copy per op through Next, the other by alternating whole NextBatch
// pulls (recycled once consumed) with single Next calls, so the
// generator suspends and resumes under both interfaces. The two
// sequences must agree op for op.
func SeamlessResumption(t testing.TB, mk func() *trace.Program) {
	t.Helper()
	perOp, mixed := mk(), mk()
	defer perOp.Stop()
	defer mixed.Stop()
	for p := range perOp.Streams {
		s := mixed.Streams[p]
		bs := s.(trace.BatchStream)
		var batch []trace.Op
		bi, pulls := 0, 0
		for n := 0; ; n++ {
			want := perOp.Streams[p].Next()
			var op trace.Op
			if bi < len(batch) {
				op = batch[bi]
				bi++
			} else {
				if batch != nil {
					bs.Recycle(batch)
					batch = nil
				}
				if pulls++; pulls%3 == 0 {
					op = s.Next()
				} else if batch, bi = bs.NextBatch(), 0; batch == nil {
					op = trace.Op{Kind: trace.End}
				} else {
					op = batch[0]
					bi = 1
				}
			}
			if op != want {
				t.Fatalf("stream %d op %d: got %+v, want %+v", p, n, op, want)
			}
			if want.Kind == trace.End {
				break
			}
		}
	}
}

// ZeroAllocRefill warms every stream of prog with a few NextBatch and
// Recycle cycles, then fails unless a further cycle allocates nothing:
// the generator's state and the stream's op buffers are all reused.
func ZeroAllocRefill(t *testing.T, prog *trace.Program) {
	t.Helper()
	defer prog.Stop()
	for p, s := range prog.Streams {
		bs, ok := s.(trace.BatchStream)
		if !ok {
			t.Fatalf("stream %d is a %T, not a BatchStream", p, s)
		}
		cycle := func() {
			if b := bs.NextBatch(); b != nil {
				bs.Recycle(b)
			}
		}
		for i := 0; i < 4; i++ {
			cycle()
		}
		if a := testing.AllocsPerRun(20, cycle); a != 0 {
			t.Fatalf("stream %d: NextBatch+Recycle allocated %.1f times per cycle, want 0", p, a)
		}
	}
}

// Must returns the program a constructor built and panics on its
// error, for test inputs known to be valid.
func Must(p *trace.Program, err error) *trace.Program {
	if err != nil {
		panic(err)
	}
	return p
}
