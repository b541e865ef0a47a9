// Package ocean re-implements the Stanford Ocean benchmark used in the
// paper: an iterative 5-point-stencil grid solver on a 128×128 ocean
// basin (§4), partitioned into square subgrids (one per processor).
//
// The grid rows are padded to 260 doubles = 2080 bytes = 65 blocks, so
// a vertical neighbour access strides 65 blocks — reproducing Ocean's
// signature bimodal stride mix from Table 2 (dominant strides 65 and
// 1). Each iteration a processor refreshes its ghost zone from its
// neighbours' freshly-written boundaries, as the real code's dedicated
// boundary routines do: north/south ghost rows give short 1-block-
// stride runs, east/west ghost columns give long 65-block-stride runs
// whose blocks carry only one useful word. Those column misses are why
// Ocean is the one application where stride prefetching beats
// sequential prefetching (§5.2).
package ocean

import (
	"fmt"
	"math"

	"prefetchsim/internal/apps/workload"
	"prefetchsim/internal/mem"
	"prefetchsim/internal/trace"
)

// RowBlocks is the padded row pitch in blocks; the paper reports 65 as
// Ocean's dominant stride.
const RowBlocks = 65

const rowBytes = RowBlocks * mem.BlockBytes // 2080 B = 260 doubles

// Load-site PCs. The ghost-zone exchange has its own sites (separate
// routines in the real code); the interior sweep has the stencil sites.
const (
	pcGhostN trace.PC = iota + 1
	pcGhostS
	pcGhostW
	pcGhostE
	pcNorth
	pcSouth
	pcWest
	pcEast
	pcCenter
	pcStore
)

// Config parameterizes the workload.
type Config struct {
	workload.Params
	// N is the interior grid dimension (paper input: 128×128).
	N int
	// Iters is the number of solver sweeps (the paper iterates to a
	// 1e-7 tolerance; we fix the sweep count).
	Iters int
}

// DefaultConfig returns the paper's input scaled by p.Scale.
func DefaultConfig(p workload.Params) Config {
	p = p.Norm()
	n := 128
	if p.Scale > 1 {
		n = 128 + 64*(p.Scale-1)
	}
	return Config{Params: p, N: n, Iters: 18}
}

// Check reports why New cannot build c, or nil if it can.
func (c Config) Check() error {
	P, N, side := c.Params.Norm().Procs, c.N, c.side()
	switch {
	case (N+2)*workload.WordBytes > rowBytes:
		return fmt.Errorf("ocean: interior %d exceeds the 260-double padded row", N)
	case side*side != P:
		return fmt.Errorf("ocean: processor count %d is not a perfect square", P)
	case N%side != 0:
		return fmt.Errorf("ocean: grid %d not divisible into %dx%d subgrids", N, side, side)
	}
	return nil
}

// side is the processor grid's edge: the square root of the processor
// count, rounded down.
func (c Config) side() int {
	return int(math.Sqrt(float64(c.Params.Norm().Procs)))
}

// New builds the Ocean program. The generator is a resumable state
// machine (workload.BuildFunc): a first-touch phase, then per iteration
// a ghost-zone refresh, the interior sweep and a barrier, suspended on
// the phase tag plus the loop indices.
func New(c Config) (*trace.Program, error) {
	if err := c.Check(); err != nil {
		return nil, err
	}
	c.Params = c.Params.Norm()
	P, N, side := c.Procs, c.N, c.side()
	sub := N / side

	space := mem.NewSpace()
	grids := [2]mem.Array{
		mem.NewArray(space, N+2, rowBytes, rowBytes),
		mem.NewArray(space, N+2, rowBytes, rowBytes),
	}
	return workload.BuildFunc(fmt.Sprintf("Ocean-%dx%d", N, N), P, func(p int) workload.Filler {
		pr, pc := p/side, p%side
		i0, j0 := 1+pr*sub, 1+pc*sub // interior coordinates are 1-based
		return &gen{grids: grids, iters: c.Iters, i0: i0, j0: j0,
			i1: i0 + sub - 1, j1: j0 + sub - 1, i: i0, j: j0}
	}), nil
}

// Phases of the program.
const (
	phTouch   uint8 = iota // first touch of my subgrid in both grids
	phTouched              // barrier after the first touch
	phGhost                // ghost-zone refresh of iteration it
	phSweep                // interior stencil sweep
	phIterEnd              // barrier closing iteration it
)

// gen is one processor's generator over the subgrid [i0,i1]×[j0,j1].
type gen struct {
	grids          [2]mem.Array
	iters          int
	i0, j0, i1, j1 int
	phase          uint8
	it             int // solver iteration
	src            int // grid read this iteration; 1-src is written
	gr             int // first-touch grid
	ghost          int // ghost side: north, south, west, east
	i, j, k        int
}

func (s *gen) at(gr, i, j int) mem.Addr { return s.grids[gr].At(i, j*workload.WordBytes) }

// ghostRead returns the k-th read of ghost side side: the neighbours'
// boundary cells, rewritten by them every iteration, copied privately.
func (s *gen) ghostRead(side, k int) (trace.PC, mem.Addr, uint32) {
	switch side {
	case 0:
		return pcGhostN, s.at(s.src, s.i0-1, s.j0+k), 2
	case 1:
		return pcGhostS, s.at(s.src, s.i1+1, s.j0+k), 2
	case 2:
		return pcGhostW, s.at(s.src, s.i0+k, s.j0-1), 6
	}
	return pcGhostE, s.at(s.src, s.i0+k, s.j1+1), 6
}

// Fill resumes exactly where the previous buffer filled up.
func (s *gen) Fill(g *workload.FuncGen) bool {
	i0, j0, i1, j1 := s.i0, s.j0, s.i1, s.j1
	for {
		switch s.phase {
		case phTouch:
			for ; s.gr < 2; s.gr++ {
				for ; s.i <= i1; s.i++ {
					for ; s.j <= j1; s.j++ {
						if !g.Room(1) {
							return false
						}
						g.Write(pcStore, s.at(s.gr, s.i, s.j), 1)
					}
					s.j = j0
				}
				s.i = i0
			}
			s.phase = phTouched
		case phTouched:
			if !g.Room(1) {
				return false
			}
			g.Barrier()
			s.phase = phGhost
		case phGhost:
			if s.it >= s.iters {
				return true
			}
			for ; s.ghost < 4; s.ghost++ {
				for ; s.k <= i1-i0; s.k++ {
					if !g.Room(1) {
						return false
					}
					g.Read(s.ghostRead(s.ghost, s.k))
				}
				s.k = 0
			}
			s.ghost = 0
			s.i, s.j = i0, j0
			s.phase = phSweep
		case phSweep:
			// Interior stencil sweep; edge points use the private ghost
			// copies, so only own-subgrid cells are referenced.
			src, dst := s.src, 1-s.src
			for ; s.i <= i1; s.i++ {
				for ; s.j <= j1; s.j++ {
					if !g.Room(6) {
						return false
					}
					i, j := s.i, s.j
					if i > i0 {
						g.Read(pcNorth, s.at(src, i-1, j), 1)
					}
					if i < i1 {
						g.Read(pcSouth, s.at(src, i+1, j), 1)
					}
					if j > j0 {
						g.Read(pcWest, s.at(src, i, j-1), 1)
					}
					if j < j1 {
						g.Read(pcEast, s.at(src, i, j+1), 1)
					}
					g.Read(pcCenter, s.at(src, i, j), 1)
					g.Write(pcStore, s.at(dst, i, j), 4) // stencil arithmetic
				}
				s.j = j0
			}
			s.phase = phIterEnd
		case phIterEnd:
			if !g.Room(1) {
				return false
			}
			g.Barrier()
			s.src = 1 - s.src
			s.it++
			s.phase = phGhost
		}
	}
}

// StrideHints returns the compile-time-known strides of Ocean's
// ghost-exchange and sweep loops, for the §6 hybrid scheme: ghost rows
// stream by one element, ghost columns by one padded grid row.
func StrideHints() map[trace.PC]int64 {
	return map[trace.PC]int64{
		pcGhostN: workload.WordBytes,
		pcGhostS: workload.WordBytes,
		pcGhostW: rowBytes,
		pcGhostE: rowBytes,
	}
}
