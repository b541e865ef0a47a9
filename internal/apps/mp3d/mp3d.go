// Package mp3d re-implements the SPLASH MP3D benchmark used in the
// paper: a particle-in-cell rarefied-fluid-flow simulation run with 10K
// particles for 10 time steps (§4).
//
// Each processor owns a contiguous chunk of the particle array (40-byte
// unpadded records, so a sequential walk misses in fragmented 1-block-
// stride runs of four or five — Table 2's MP3D row: 9.2% of misses in
// stride sequences, average length 5.2, stride 1 dominant). Particles
// are positioned randomly in the wind tunnel, so the shared space-cell
// lattice is touched by every processor and cell accesses are scattered
// coherence misses with no stride. Collisions read and dirty a partner
// particle's record, which is why the Particles structure shows the
// "fairly high spatial locality" (two consecutive blocks per record)
// that lets sequential prefetching remove ~28% of MP3D's misses while
// stride prefetching manages ~5% (§5.2).
package mp3d

import (
	"fmt"

	"prefetchsim/internal/apps/workload"
	"prefetchsim/internal/mem"
	"prefetchsim/internal/sim"
	"prefetchsim/internal/trace"
)

// Space lattice dimensions (cells).
const (
	cellsX = 16
	cellsY = 16
	cellsZ = 8
	nCells = cellsX * cellsY * cellsZ
)

// particleBytes is the unpadded particle record size; real MP3D
// particles are 36 bytes, and the non-power-of-two size is what
// fragments sequential walks into the short stride-1 runs the paper
// reports.
const particleBytes = 40

// Record word offsets.
const (
	offX, offY, offZ = 0, 8, 16
	offVX, offVY     = 20, 28
)

// Fixed-point position scale: positions live in [0, dim<<fpShift).
const fpShift = 16

// Load-site PCs.
const (
	pcPosR trace.PC = iota + 1
	pcVelR
	pcPosW
	pcCellR
	pcCollR
	pcCellW
	pcPartnR
	pcPartnW
	pcStatR
	pcStatW
)

// Config parameterizes the workload.
type Config struct {
	workload.Params
	// Particles is the particle count (paper input: 10K).
	Particles int
	// Steps is the number of time steps (paper input: 10).
	Steps int
}

// DefaultConfig returns the paper's input scaled by p.Scale.
func DefaultConfig(p workload.Params) Config {
	p = p.Norm()
	return Config{Params: p, Particles: 10000 * p.Scale, Steps: 10}
}

// Check reports why New cannot build c, or nil if it can.
func (c Config) Check() error {
	if p := c.Params.Norm(); c.Particles < p.Procs {
		return fmt.Errorf("mp3d: %d particles too few for %d processors", c.Particles, p.Procs)
	}
	return nil
}

// New builds the MP3D program. The generator is a resumable state
// machine (workload.BuildFunc): its suspension state is the step and
// particle indices plus the particle slice and RNG, which are created
// on the first Fill so building the program stays cheap.
func New(c Config) (*trace.Program, error) {
	if err := c.Check(); err != nil {
		return nil, err
	}
	c.Params = c.Params.Norm()
	P, N := c.Procs, c.Particles

	space := mem.NewSpace()
	particles := mem.NewArray(space, N, particleBytes, particleBytes)
	cells := mem.NewArray(space, nCells, 32, 32) // 1 block each
	chunk := (N + P - 1) / P
	cellChunk := (nCells + P - 1) / P

	return workload.BuildFunc(fmt.Sprintf("MP3D-%d", N), P, func(p int) workload.Filler {
		lo := p * chunk
		hi := lo + chunk
		if hi > N {
			hi = N
		}
		cLo := p * cellChunk
		cHi := cLo + cellChunk
		if cHi > nCells {
			cHi = nCells
		}
		return &gen{c: c, particles: particles, cells: cells, p: p,
			lo: lo, hi: hi, cIdx: cLo, cHi: cHi}
	}), nil
}

// particle is one particle's simulated state, in fixed point.
type particle struct{ x, y, z, vx, vy, vz int32 }

// maxParticleOps bounds the ops one particle's advance emits: five
// record reads, three writes, three cell accesses and a five-op
// collision.
const maxParticleOps = 16

// gen is one processor's generator.
type gen struct {
	c                Config
	particles, cells mem.Array
	p                int
	lo, hi           int // my particle range
	// ps and rng are created by the first Fill.
	ps   []particle
	rng  sim.Rand
	step int // time step
	i    int // next particle of the step, relative to lo
	cIdx int // next cell of the final statistics pass
	cHi  int
}

// start positions my particles uniformly over the whole tunnel, as in
// the original's initialized flow field.
func (s *gen) start() {
	s.rng = *sim.NewRand(s.c.Seed*1461303245 + uint64(s.p) + 1)
	pos := func(lim int32) int32 { return int32(s.rng.Intn(int(lim) << fpShift)) }
	vel := func() int32 { return int32(s.rng.Intn(1<<14)) - 1<<13 }
	s.ps = make([]particle, s.hi-s.lo)
	for i := range s.ps {
		s.ps[i] = particle{
			x: pos(cellsX), y: pos(cellsY), z: pos(cellsZ),
			vx: vel(), vy: vel(), vz: vel(),
		}
	}
}

func reflect(v, vl int32, lim int32) (int32, int32) {
	if v < 0 {
		return -v, -vl
	}
	if v >= lim<<fpShift {
		return 2*(lim<<fpShift) - v - 1, -vl
	}
	return v, vl
}

// Fill emits, per time step, every particle's advance followed by a
// barrier, then the statistics pass over my slice of the cell lattice.
// A particle's ops and random draws happen together, after its Room
// check, so a yield never replays a draw.
func (s *gen) Fill(g *workload.FuncGen) bool {
	if s.ps == nil {
		s.start()
	}
	for ; s.step < s.c.Steps; s.step++ {
		for ; s.i < len(s.ps); s.i++ {
			if !g.Room(maxParticleOps) {
				return false
			}
			s.advance(g, &s.ps[s.i], s.lo+s.i)
		}
		if !g.Room(1) {
			return false
		}
		g.Barrier()
		s.i = 0
	}
	for ; s.cIdx < s.cHi; s.cIdx++ {
		if !g.Room(3) {
			return false
		}
		g.Read(pcStatR, s.cells.At(s.cIdx, 0), 3)
		g.Read(pcStatR, s.cells.At(s.cIdx, 16), 3)
		g.Write(pcStatW, s.cells.At(s.cIdx, 24), 3)
	}
	return true
}

// advance moves particle pa (global index gi) one step and emits its
// references.
func (s *gen) advance(g *workload.FuncGen, pa *particle, gi int) {
	particles, cells := s.particles, s.cells
	// Advance my particle (record blocks become private unless a
	// collision partner dirtied them).
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

	// Scatter into the shared space cell.
	cell := int(pa.x>>fpShift) +
		cellsX*int(pa.y>>fpShift) +
		cellsX*cellsY*int(pa.z>>fpShift)
	g.Read(pcCellR, cells.At(cell, 0), 2)
	g.Read(pcCollR, cells.At(cell, 8), 4) // collision-probability state
	g.Write(pcCellW, cells.At(cell, 0), 2)

	// Collide with the cell's previous visitor: read the partner's
	// record and dirty its velocity.
	if s.rng.Intn(4) == 0 {
		partner := s.rng.Intn(s.c.Particles)
		g.Read(pcPartnR, particles.At(partner, offX), 1)
		g.Read(pcPartnR, particles.At(partner, offY), 1)
		g.Read(pcPartnR, particles.At(partner, offZ), 1)
		g.Read(pcPartnR, particles.At(partner, offVX), 1)
		g.Write(pcPartnW, particles.At(partner, offVX), 2)
	}
}

// StrideHints returns the compile-time-known strides of MP3D's
// particle-array walks, for the §6 hybrid scheme. Cell and collision
// accesses are data-dependent and carry no hint.
func StrideHints() map[trace.PC]int64 {
	return map[trace.PC]int64{
		pcPosR:  particleBytes,
		pcVelR:  particleBytes,
		pcStatR: 32,
	}
}
