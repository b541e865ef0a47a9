package mp3d

import (
	"testing"

	"prefetchsim/internal/apps/apptest"
	"prefetchsim/internal/apps/workload"
	"prefetchsim/internal/mem"
	"prefetchsim/internal/sim"
	"prefetchsim/internal/trace"
)

func TestRecordSizeFragmentsBlocks(t *testing.T) {
	// The unpadded 40-byte record is what produces the paper's short
	// fragmented stride-1 runs (avg 5.2) on sequential particle walks.
	if particleBytes == 0 || particleBytes%mem.BlockBytes == 0 {
		t.Fatalf("particle record (%d bytes) must not be block-aligned", particleBytes)
	}
}

func TestDefaultConfigPaperInput(t *testing.T) {
	c := DefaultConfig(workload.Params{})
	if c.Particles != 10000 || c.Steps != 10 {
		t.Fatalf("config = %d particles, %d steps; paper uses 10K, 10", c.Particles, c.Steps)
	}
}

func TestNewPanicsOnTooFewParticles(t *testing.T) {
	if _, err := New(Config{Params: workload.Params{Procs: 16}, Particles: 3, Steps: 1}); err == nil {
		t.Error("New returned no error")
	}
}

func TestParticlesStayInTunnel(t *testing.T) {
	// Drain one processor's stream: every cell access must land inside
	// the allocated cell lattice (reflection at the walls works).
	p := apptest.Must(New(Config{Params: workload.Params{Procs: 2, Seed: 9}, Particles: 400, Steps: 5}))
	defer p.Stop()
	var cellLo, cellHi uint64
	first := true
	for {
		op := p.Streams[0].Next()
		if op.Kind == trace.End {
			break
		}
		if op.PC == pcCellR {
			if first {
				cellLo, cellHi = op.Addr, op.Addr
				first = false
			}
			if op.Addr < cellLo {
				cellLo = op.Addr
			}
			if op.Addr > cellHi {
				cellHi = op.Addr
			}
		}
	}
	if first {
		t.Fatal("no cell accesses emitted")
	}
	if span := cellHi - cellLo; span >= uint64(nCells)*32 {
		t.Fatalf("cell accesses span %d bytes, exceeding the %d-cell lattice", span, nCells)
	}
}

func TestSeedChangesTrajectories(t *testing.T) {
	mk := func(seed uint64) []trace.Op {
		p := apptest.Must(New(Config{Params: workload.Params{Procs: 1, Seed: seed}, Particles: 50, Steps: 1}))
		defer p.Stop()
		var ops []trace.Op
		for {
			op := p.Streams[0].Next()
			if op.Kind == trace.End {
				break
			}
			ops = append(ops, op)
		}
		return ops
	}
	a, b := mk(1), mk(2)
	same := true
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same && len(a) == len(b) {
		t.Fatal("different seeds produced identical traces")
	}
}

// oracle is MP3D's generator as it ran before the resumable port: a
// straight-line body in a producer goroutine per processor.
func oracle(c Config) *trace.Program {
	c.Params = c.Params.Norm()
	P, N := c.Procs, c.Particles
	space := mem.NewSpace()
	particles := mem.NewArray(space, N, particleBytes, particleBytes)
	cells := mem.NewArray(space, nCells, 32, 32)
	chunk := (N + P - 1) / P
	cellChunk := (nCells + P - 1) / P

	return workload.Build("MP3D-oracle", P, func(p int, g *workload.Gen) {
		lo := p * chunk
		hi := lo + chunk
		if hi > N {
			hi = N
		}
		ps := make([]particle, hi-lo)
		rng := sim.NewRand(c.Seed*1461303245 + uint64(p) + 1)
		pos := func(lim int32) int32 { return int32(rng.Intn(int(lim) << fpShift)) }
		vel := func() int32 { return int32(rng.Intn(1<<14)) - 1<<13 }
		for i := range ps {
			ps[i] = particle{
				x: pos(cellsX), y: pos(cellsY), z: pos(cellsZ),
				vx: vel(), vy: vel(), vz: vel(),
			}
		}
		for step := 0; step < c.Steps; step++ {
			for i := range ps {
				pa := &ps[i]
				gi := lo + i
				g.Read(pcPosR, particles.At(gi, offX), 1)
				g.Read(pcPosR, particles.At(gi, offY), 1)
				g.Read(pcPosR, particles.At(gi, offZ), 1)
				g.Read(pcVelR, particles.At(gi, offVX), 1)
				g.Read(pcVelR, particles.At(gi, offVY), 1)
				pa.x, pa.vx = reflect(pa.x+pa.vx, pa.vx, cellsX)
				pa.y, pa.vy = reflect(pa.y+pa.vy, pa.vy, cellsY)
				pa.z, pa.vz = reflect(pa.z+pa.vz, pa.vz, cellsZ)
				g.Write(pcPosW, particles.At(gi, offX), 1)
				g.Write(pcPosW, particles.At(gi, offY), 1)
				g.Write(pcPosW, particles.At(gi, offZ), 1)
				cell := int(pa.x>>fpShift) +
					cellsX*int(pa.y>>fpShift) +
					cellsX*cellsY*int(pa.z>>fpShift)
				g.Read(pcCellR, cells.At(cell, 0), 2)
				g.Read(pcCollR, cells.At(cell, 8), 4)
				g.Write(pcCellW, cells.At(cell, 0), 2)
				if rng.Intn(4) == 0 {
					partner := rng.Intn(N)
					g.Read(pcPartnR, particles.At(partner, offX), 1)
					g.Read(pcPartnR, particles.At(partner, offY), 1)
					g.Read(pcPartnR, particles.At(partner, offZ), 1)
					g.Read(pcPartnR, particles.At(partner, offVX), 1)
					g.Write(pcPartnW, particles.At(partner, offVX), 2)
				}
			}
			g.Barrier()
		}
		cLo := p * cellChunk
		cHi := cLo + cellChunk
		if cHi > nCells {
			cHi = nCells
		}
		for cIdx := cLo; cIdx < cHi; cIdx++ {
			g.Read(pcStatR, cells.At(cIdx, 0), 3)
			g.Read(pcStatR, cells.At(cIdx, 16), 3)
			g.Write(pcStatW, cells.At(cIdx, 24), 3)
		}
	})
}

// TestMatchesGoroutineOracle pins the resumable port to the goroutine
// body it replaced, op for op on every stream, at the paper's
// configuration (16 processors, scale 1), at scale 2 (Table 4) and
// under several seeds.
func TestMatchesGoroutineOracle(t *testing.T) {
	for _, p := range []workload.Params{
		{Procs: 16, Scale: 1, Seed: 1},
		{Procs: 16, Scale: 1, Seed: 2},
		{Procs: 16, Scale: 2, Seed: 1},
		{Procs: 3, Scale: 1, Seed: 7},
	} {
		c := DefaultConfig(p)
		apptest.SameOps(t, apptest.Must(New(c)), oracle(c))
	}
}

func TestResumptionIsSeamless(t *testing.T) {
	c := DefaultConfig(workload.Params{Procs: 4, Seed: 3})
	c.Steps = 3
	apptest.SeamlessResumption(t, func() *trace.Program { return apptest.Must(New(c)) })
}

func TestRefillAllocatesNothing(t *testing.T) {
	apptest.ZeroAllocRefill(t, apptest.Must(New(DefaultConfig(workload.Params{Procs: 16, Seed: 1}))))
}
