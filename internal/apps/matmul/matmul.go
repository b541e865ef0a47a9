// Package matmul implements the paper's own motivating example: the
// matrix multiplication of §3.1 Figure 2, C = A·B with A and B
// allocated row-wise. In the inner loop the reads of A form a
// one-element stride sequence while the reads of B stride by a whole
// row — the two access shapes whose interplay the paper's terminology
// section is built around. It is registered as a seventh workload so
// the stride-vs-sequential comparison can be run on the textbook case.
package matmul

import (
	"fmt"

	"prefetchsim/internal/apps/workload"
	"prefetchsim/internal/mem"
	"prefetchsim/internal/trace"
)

// Load-site PCs: the three references of the inner-loop statement.
const (
	pcA trace.PC = iota + 1 // A[i,k]: one-element stride
	pcB                     // B[k,j]: one-row stride
	pcCR
	pcCW
)

// Config parameterizes the workload: C[L,M] = A[L,N] · B[N,M].
type Config struct {
	workload.Params
	L, M, N int
}

// DefaultConfig returns a multiply sized so B's row stride (M doubles)
// is well beyond a block, scaled by p.Scale.
func DefaultConfig(p workload.Params) Config {
	p = p.Norm()
	n := 96 * p.Scale
	return Config{Params: p, L: n, M: n, N: n}
}

// Check reports why New cannot build c, or nil if it can.
func (c Config) Check() error {
	if p := c.Params.Norm(); c.L < p.Procs || c.M < 4 || c.N < 4 {
		return fmt.Errorf("matmul: dimensions %dx%dx%d too small for %d processors",
			c.L, c.M, c.N, p.Procs)
	}
	return nil
}

// New builds the matmul program. Rows of C are distributed round-robin.
// The generator is a resumable state machine (workload.BuildFunc): the
// triple loop nest suspends and resumes on its three indices, so no
// producer goroutine or channel transfer is involved.
func New(c Config) (*trace.Program, error) {
	if err := c.Check(); err != nil {
		return nil, err
	}
	c.Params = c.Params.Norm()
	w := workload.WordBytes
	space := mem.NewSpace()
	a := mem.NewArray(space, c.L, c.N*w, c.N*w)
	b := mem.NewArray(space, c.N, c.M*w, c.M*w)
	cm := mem.NewArray(space, c.L, c.M*w, c.M*w)

	return workload.BuildFunc(fmt.Sprintf("Matmul-%dx%dx%d", c.L, c.M, c.N), c.Procs,
		func(p int) workload.Filler {
			return &gen{c: c, a: a, b: b, cm: cm, i: p}
		}), nil
}

// gen is one processor's generator; the loop indices of the triple nest
// are its complete suspension state.
type gen struct {
	c        Config
	a, b, cm mem.Array
	i, j, k  int
	// inRow records that row (i,j)'s leading C read has been emitted
	// and the k loop is in progress or complete.
	inRow bool
}

// Fill emits, per element (i,j) of this processor's C rows:
// Read C[i,j]; for each k, Read A[i,k], Read B[k,j]; Write C[i,j] —
// the same program order workload.Build produced before the port.
func (s *gen) Fill(g *workload.FuncGen) bool {
	w := workload.WordBytes
	for ; s.i < s.c.L; s.i += s.c.Procs {
		for ; s.j < s.c.M; s.j++ {
			if !s.inRow {
				if !g.Room(1) {
					return false
				}
				g.Read(pcCR, s.cm.At(s.i, s.j*w), 2)
				s.inRow, s.k = true, 0
			}
			for ; s.k < s.c.N; s.k++ {
				if !g.Room(2) {
					return false
				}
				g.Read(pcA, s.a.At(s.i, s.k*w), 2)
				g.Read(pcB, s.b.At(s.k, s.j*w), 2)
			}
			if !g.Room(1) {
				return false
			}
			g.Write(pcCW, s.cm.At(s.i, s.j*w), 4)
			s.inRow = false
		}
		s.j = 0
	}
	return true
}

// StrideHints returns the strides the §3.1 discussion derives by
// inspection: A strides one element, B one row.
func StrideHints(m int) map[trace.PC]int64 {
	return map[trace.PC]int64{
		pcA: workload.WordBytes,
		pcB: int64(m) * workload.WordBytes,
	}
}
