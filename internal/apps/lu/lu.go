// Package lu re-implements the Stanford LU benchmark used in the paper:
// dense LU factorization of a 200×200 matrix (§4). The matrix is stored
// row-major with rows distributed round-robin across processors; each
// outer iteration k divides the pivot row and then lets every processor
// eliminate its own rows against it.
//
// Memory behaviour (the reason the paper picked LU): at iteration k all
// processors stream through pivot row k — freshly written by its owner —
// producing long sequential (1-block-stride) read-miss runs from a
// single load site. Table 2 reports 93% of LU's misses inside stride
// sequences with stride 1 dominant; both stride and sequential
// prefetching remove almost all of them.
package lu

import (
	"fmt"

	"prefetchsim/internal/apps/workload"
	"prefetchsim/internal/mem"
	"prefetchsim/internal/trace"
)

// Load-site PCs.
const (
	pcPivotRead trace.PC = iota + 1
	pcPivotWrite
	pcLRead
	pcLWrite
	pcSrcRead // streaming read of pivot row during elimination
	pcDstRead
	pcDstWrite
)

// Config parameterizes the workload.
type Config struct {
	workload.Params
	// N is the matrix dimension (paper input: 200×200).
	N int
}

// DefaultConfig returns the paper's input scaled by p.Scale.
func DefaultConfig(p workload.Params) Config {
	p = p.Norm()
	// Scale grows the dimension sub-linearly so larger data sets stay
	// simulable; scale 2 roughly triples the reference count.
	return Config{Params: p, N: 200 + 80*(p.Scale-1)}
}

// Check reports why New cannot build c, or nil if it can.
func (c Config) Check() error {
	if c.N < 4 {
		return fmt.Errorf("lu: dimension %d too small", c.N)
	}
	return nil
}

// New builds the LU program. The generator is a resumable state machine
// (workload.BuildFunc): each outer iteration k is a fixed phase sequence
// — barrier, pivot divide (owner only), barrier, elimination — whose
// suspension state is the phase tag plus the loop indices, so no
// producer goroutine or channel transfer is involved.
func New(c Config) (*trace.Program, error) {
	if err := c.Check(); err != nil {
		return nil, err
	}
	c.Params = c.Params.Norm()
	P, N := c.Procs, c.N

	space := mem.NewSpace()
	rowBytes := N * workload.WordBytes
	a := mem.NewArray(space, N, rowBytes, rowBytes) // row-major matrix

	return workload.BuildFunc(fmt.Sprintf("LU-%dx%d", N, N), P,
		func(p int) workload.Filler {
			return &gen{c: c, a: a, p: p}
		}), nil
}

// Phases of one outer iteration k.
const (
	phBarrier1  uint8 = iota // pre-divide barrier
	phPivotLead              // owner's read of the pivot element
	phPivotDiv               // owner's divide loop over row k
	phBarrier2               // post-divide barrier
	phEliminate              // elimination sweep over my rows
	phFinal                  // final barrier after the last iteration
)

// gen is one processor's generator.
type gen struct {
	c     Config
	a     mem.Array
	p     int
	k     int   // outer iteration
	phase uint8 // position within iteration k
	i     int   // elimination row
	j     int   // pivot-divide / elimination column
	// inRow records that row i's leading L-column read/write pair has
	// been emitted and the j loop is in progress or complete.
	inRow bool
}

func (s *gen) at(i, j int) mem.Addr { return s.a.At(i, j*workload.WordBytes) }

// Fill emits the same program order workload.Build produced before the
// port; each case resumes exactly where the previous buffer filled up.
func (s *gen) Fill(g *workload.FuncGen) bool {
	P, N := s.c.Procs, s.c.N
	for {
		switch s.phase {
		case phBarrier1:
			if s.k >= N {
				s.phase = phFinal
				continue
			}
			if !g.Room(1) {
				return false
			}
			g.Barrier()
			if s.k%P == s.p {
				s.phase = phPivotLead
			} else {
				s.phase = phBarrier2
			}
		case phPivotLead:
			// Divide the pivot row by the pivot element.
			if !g.Room(1) {
				return false
			}
			g.Read(pcPivotRead, s.at(s.k, s.k), 4)
			s.j = s.k + 1
			s.phase = phPivotDiv
		case phPivotDiv:
			for ; s.j < N; s.j++ {
				if !g.Room(2) {
					return false
				}
				g.Read(pcPivotRead, s.at(s.k, s.j), 1)
				g.Write(pcPivotWrite, s.at(s.k, s.j), 3) // division latency
			}
			s.phase = phBarrier2
		case phBarrier2:
			if !g.Room(1) {
				return false
			}
			g.Barrier()
			s.i = s.k + 1
			s.phase = phEliminate
		case phEliminate:
			// Eliminate my rows below the pivot.
			for ; s.i < N; s.i++ {
				if s.i%P != s.p {
					continue
				}
				if !s.inRow {
					if !g.Room(2) {
						return false
					}
					g.Read(pcLRead, s.at(s.i, s.k), 2)
					g.Write(pcLWrite, s.at(s.i, s.k), 4)
					s.inRow = true
					s.j = s.k + 1
				}
				// ~12 instructions per element (two loads, multiply,
				// add, store, index arithmetic), as the compiled inner
				// loop of the original would execute.
				for ; s.j < N; s.j++ {
					if !g.Room(3) {
						return false
					}
					g.Read(pcSrcRead, s.at(s.k, s.j), 2)
					g.Read(pcDstRead, s.at(s.i, s.j), 2)
					g.Write(pcDstWrite, s.at(s.i, s.j), 4)
				}
				s.inRow = false
			}
			s.k++
			s.phase = phBarrier1
		case phFinal:
			if !g.Room(1) {
				return false
			}
			g.Barrier()
			return true
		}
	}
}

// StrideHints returns the compile-time-known strides of LU's streaming
// load sites, for the software-assisted hybrid prefetching scheme the
// paper discusses in §6 (Bianchini and LeBlanc [2]).
func StrideHints() map[trace.PC]int64 {
	return map[trace.PC]int64{
		pcPivotRead: workload.WordBytes,
		pcSrcRead:   workload.WordBytes,
		pcDstRead:   workload.WordBytes,
	}
}
