package ocean

import (
	"math"
	"testing"

	"prefetchsim/internal/apps/apptest"
	"prefetchsim/internal/apps/workload"
	"prefetchsim/internal/mem"
	"prefetchsim/internal/trace"
)

func TestRowPitchIsSixtyFiveBlocks(t *testing.T) {
	if RowBlocks != 65 {
		t.Fatal("the paper's dominant Ocean stride is 65 blocks")
	}
	if rowBytes != 2080 {
		t.Fatalf("rowBytes = %d, want 2080", rowBytes)
	}
}

func TestDefaultConfigPaperInput(t *testing.T) {
	c := DefaultConfig(workload.Params{})
	if c.N != 128 {
		t.Fatalf("N = %d, want the paper's 128", c.N)
	}
	if DefaultConfig(workload.Params{Scale: 2}).N <= 128 {
		t.Fatal("scale 2 did not grow the grid")
	}
}

func TestNewValidatesGeometry(t *testing.T) {
	cases := map[string]Config{
		"non-square procs": {Params: workload.Params{Procs: 6}, N: 12, Iters: 1},
		"indivisible grid": {Params: workload.Params{Procs: 4}, N: 9, Iters: 1},
		"grid too wide":    {Params: workload.Params{Procs: 4}, N: 400, Iters: 1},
	}
	for name, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: New returned no error", name)
		}
	}
}

func TestGhostColumnReadsStrideOneRow(t *testing.T) {
	// Drain processor 1's stream (subgrid column 1 of a 2x2 split) and
	// check its west-ghost reads stride by exactly one padded row.
	p := apptest.Must(New(Config{Params: workload.Params{Procs: 4}, N: 16, Iters: 1}))
	defer p.Stop()
	s := p.Streams[1]
	var west []uint64
	for {
		op := s.Next()
		if op.Kind == trace.End {
			break
		}
		if op.Kind == trace.Read && op.PC == pcGhostW {
			west = append(west, op.Addr)
		}
	}
	if len(west) != 8 { // one iteration, 8-row subgrid
		t.Fatalf("west ghost reads = %d, want 8", len(west))
	}
	for i := 1; i < len(west); i++ {
		if west[i]-west[i-1] != rowBytes {
			t.Fatalf("ghost column stride = %d bytes, want %d", west[i]-west[i-1], rowBytes)
		}
	}
}

func TestBarrierCountMatchesIterations(t *testing.T) {
	const iters = 3
	p := apptest.Must(New(Config{Params: workload.Params{Procs: 4}, N: 16, Iters: iters}))
	defer p.Stop()
	barriers := 0
	for {
		op := p.Streams[0].Next()
		if op.Kind == trace.End {
			break
		}
		if op.Kind == trace.Barrier {
			barriers++
		}
	}
	if barriers != iters+1 { // init barrier + one per sweep
		t.Fatalf("barriers = %d, want %d", barriers, iters+1)
	}
}

// oracle is Ocean's generator as it ran before the resumable port: a
// straight-line body in a producer goroutine per processor.
func oracle(c Config) *trace.Program {
	c.Params = c.Params.Norm()
	P, N := c.Procs, c.N
	side := int(math.Sqrt(float64(P)))
	sub := N / side
	space := mem.NewSpace()
	grids := [2]mem.Array{
		mem.NewArray(space, N+2, rowBytes, rowBytes),
		mem.NewArray(space, N+2, rowBytes, rowBytes),
	}
	at := func(gr, i, j int) mem.Addr { return grids[gr].At(i, j*workload.WordBytes) }

	return workload.Build("Ocean-oracle", P, func(p int, g *workload.Gen) {
		pr, pc := p/side, p%side
		i0, j0 := 1+pr*sub, 1+pc*sub
		i1, j1 := i0+sub-1, j0+sub-1
		for gr := 0; gr < 2; gr++ {
			for i := i0; i <= i1; i++ {
				for j := j0; j <= j1; j++ {
					g.Write(pcStore, at(gr, i, j), 1)
				}
			}
		}
		g.Barrier()
		src, dst := 0, 1
		for it := 0; it < c.Iters; it++ {
			for j := j0; j <= j1; j++ {
				g.Read(pcGhostN, at(src, i0-1, j), 2)
			}
			for j := j0; j <= j1; j++ {
				g.Read(pcGhostS, at(src, i1+1, j), 2)
			}
			for i := i0; i <= i1; i++ {
				g.Read(pcGhostW, at(src, i, j0-1), 6)
			}
			for i := i0; i <= i1; i++ {
				g.Read(pcGhostE, at(src, i, j1+1), 6)
			}
			for i := i0; i <= i1; i++ {
				for j := j0; j <= j1; j++ {
					if i > i0 {
						g.Read(pcNorth, at(src, i-1, j), 1)
					}
					if i < i1 {
						g.Read(pcSouth, at(src, i+1, j), 1)
					}
					if j > j0 {
						g.Read(pcWest, at(src, i, j-1), 1)
					}
					if j < j1 {
						g.Read(pcEast, at(src, i, j+1), 1)
					}
					g.Read(pcCenter, at(src, i, j), 1)
					g.Write(pcStore, at(dst, i, j), 4)
				}
			}
			src, dst = dst, src
			g.Barrier()
		}
	})
}

// TestMatchesGoroutineOracle pins the resumable port to the goroutine
// body it replaced, op for op on every stream, at the paper's
// configuration (16 processors, scale 1) and at scale 2 (Table 4).
func TestMatchesGoroutineOracle(t *testing.T) {
	for _, p := range []workload.Params{
		{Procs: 16, Scale: 1},
		{Procs: 16, Scale: 2},
		{Procs: 4, Scale: 1},
	} {
		c := DefaultConfig(p)
		apptest.SameOps(t, apptest.Must(New(c)), oracle(c))
	}
}

func TestResumptionIsSeamless(t *testing.T) {
	c := DefaultConfig(workload.Params{Procs: 4})
	c.Iters = 3
	apptest.SeamlessResumption(t, func() *trace.Program { return apptest.Must(New(c)) })
}

func TestRefillAllocatesNothing(t *testing.T) {
	apptest.ZeroAllocRefill(t, apptest.Must(New(DefaultConfig(workload.Params{Procs: 16}))))
}
