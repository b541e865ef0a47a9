package lu

import (
	"testing"

	"prefetchsim/internal/apps/apptest"
	"prefetchsim/internal/apps/workload"
	"prefetchsim/internal/mem"
	"prefetchsim/internal/trace"
)

func TestDefaultConfigPaperInput(t *testing.T) {
	c := DefaultConfig(workload.Params{})
	if c.N != 200 {
		t.Fatalf("N = %d, want the paper's 200", c.N)
	}
	if c.Procs != 16 {
		t.Fatalf("Procs = %d, want 16", c.Procs)
	}
}

func TestDefaultConfigScales(t *testing.T) {
	small := DefaultConfig(workload.Params{Scale: 1})
	large := DefaultConfig(workload.Params{Scale: 2})
	if large.N <= small.N {
		t.Fatalf("scale 2 did not grow the matrix: %d vs %d", large.N, small.N)
	}
}

func TestNewPanicsOnTinyMatrix(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("N=2 did not panic")
		}
	}()
	New(Config{Params: workload.Params{Procs: 2}, N: 2})
}

func TestStreamsBeginWithBarrier(t *testing.T) {
	p := New(Config{Params: workload.Params{Procs: 2}, N: 8})
	defer p.Stop()
	for i, s := range p.Streams {
		if op := s.Next(); op.Kind != trace.Barrier {
			t.Fatalf("stream %d starts with %v, want Barrier (iteration fence)", i, op.Kind)
		}
	}
}

// TestMatchesGoroutineOracle pins the state-machine port: the resumable
// generator must emit, op for op, the sequence the straight-line
// goroutine body produced before it (kept here as the oracle).
func TestMatchesGoroutineOracle(t *testing.T) {
	c := Config{Params: workload.Params{Procs: 3}, N: 24}
	c.Params = c.Params.Norm()
	P, N := c.Procs, c.N

	got := New(c)

	space := mem.NewSpace()
	rowBytes := N * workload.WordBytes
	a := mem.NewArray(space, N, rowBytes, rowBytes)
	at := func(i, j int) mem.Addr { return a.At(i, j*workload.WordBytes) }
	oracle := workload.Build("LU-oracle", P, func(p int, g *workload.Gen) {
		for k := 0; k < N; k++ {
			g.Barrier()
			if k%P == p {
				g.Read(pcPivotRead, at(k, k), 4)
				for j := k + 1; j < N; j++ {
					g.Read(pcPivotRead, at(k, j), 1)
					g.Write(pcPivotWrite, at(k, j), 3)
				}
			}
			g.Barrier()
			for i := k + 1; i < N; i++ {
				if i%P != p {
					continue
				}
				g.Read(pcLRead, at(i, k), 2)
				g.Write(pcLWrite, at(i, k), 4)
				for j := k + 1; j < N; j++ {
					g.Read(pcSrcRead, at(k, j), 2)
					g.Read(pcDstRead, at(i, j), 2)
					g.Write(pcDstWrite, at(i, j), 4)
				}
			}
		}
		g.Barrier()
	})
	apptest.SameOps(t, got, oracle)
}

func TestOnlyPivotOwnerDividesRow(t *testing.T) {
	p := New(Config{Params: workload.Params{Procs: 2}, N: 8})
	defer p.Stop()
	// After the first barrier, only processor 0 (owner of row 0) should
	// issue non-barrier work before the second barrier.
	working := 0
	for i, s := range p.Streams {
		s.Next() // barrier 0
		if op := s.Next(); op.Kind == trace.Read || op.Kind == trace.Write {
			working++
			_ = i
		}
	}
	if working != 1 {
		t.Fatalf("%d processors worked in the divide phase, want 1", working)
	}
}
