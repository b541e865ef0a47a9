// Package cholesky re-implements the SPLASH Cholesky benchmark used in
// the paper: supernodal sparse Cholesky factorization (§4). The paper
// runs the bcsstk14 stiffness matrix; that input is not distributable
// with this reproduction, so the factorization runs on a synthetic
// banded matrix with a similar supernode profile (see DESIGN.md §4):
// supernodes of 8 columns whose heights shrink toward the right edge,
// each updating a pseudo-random set of later supernodes over
// pseudo-random row ranges.
//
// The memory behaviour the paper measures survives the substitution:
// updates stream through the source supernode's freshly-factored panel
// in short dense runs, so ~80% of misses fall in stride sequences with
// stride 1 dominant (Table 2), and both prefetching styles work well
// (Figure 6).
package cholesky

import (
	"fmt"

	"prefetchsim/internal/apps/workload"
	"prefetchsim/internal/mem"
	"prefetchsim/internal/sim"
	"prefetchsim/internal/trace"
)

// Load-site PCs.
const (
	pcFacR trace.PC = iota + 1
	pcFacW
	pcSrcR // streaming read of the source panel during an update
	pcTgtR
	pcTgtW
)

// Config parameterizes the workload.
type Config struct {
	workload.Params
	// Supernodes is the number of supernodal panels.
	Supernodes int
	// Width is the supernode width in columns.
	Width int
	// Reach is how many later supernodes each panel may update.
	Reach int
}

// DefaultConfig returns an input with bcsstk14-like structure, scaled
// by p.Scale.
func DefaultConfig(p workload.Params) Config {
	p = p.Norm()
	return Config{Params: p, Supernodes: 110 * p.Scale, Width: 8, Reach: 14}
}

// Check reports why New cannot build c, or nil if it can.
func (c Config) Check() error {
	if p := c.Params.Norm(); c.Supernodes < p.Procs {
		return fmt.Errorf("cholesky: %d supernodes too few for %d processors", c.Supernodes, p.Procs)
	}
	return nil
}

// New builds the Cholesky program. The generator is a resumable state
// machine (workload.BuildFunc): each supernode s is a fixed phase
// sequence — factor (owner only), barrier, updates, barrier — whose
// suspension state is the phase tag plus the loop indices.
func New(c Config) (*trace.Program, error) {
	if err := c.Check(); err != nil {
		return nil, err
	}
	c.Params = c.Params.Norm()
	P, S := c.Procs, c.Supernodes
	l := newLayout(c)
	return workload.BuildFunc(fmt.Sprintf("Cholesky-%ds", S), P, func(p int) workload.Filler {
		return &gen{l: l, procs: P, p: p}
	}), nil
}

// layout is the factor's panel placement and update structure, shared
// read-only by every processor's generator.
type layout struct {
	supernodes, reach, scale int
	panels                   []mem.Addr
	panelBytes               []int
}

func newLayout(c Config) *layout {
	S := c.Supernodes
	l := &layout{supernodes: S, reach: c.Reach, scale: c.Scale,
		panels: make([]mem.Addr, S), panelBytes: make([]int, S)}
	// Panel heights shrink linearly toward the right edge, like a banded
	// factor; heights are in doubles per column and grow with the data
	// set (a larger matrix has taller subcolumns, which is why the
	// paper expects longer sequences in Table 4).
	height := func(s int) int {
		h := (220 - 180*s/S) * c.Scale
		if h < 28 {
			h = 28
		}
		return h
	}
	space := mem.NewSpace()
	for s := 0; s < S; s++ {
		l.panelBytes[s] = height(s) * c.Width * workload.WordBytes
		l.panels[s] = space.Alloc(l.panelBytes[s], mem.BlockBytes)
	}
	return l
}

// rangeFor returns the deterministic row range (in bytes) of source
// panel s read while updating target t. Short dense sub-column runs
// reproduce Table 2's ~7-reference average sequence length.
func (l *layout) rangeFor(s, t int) (off, length int) {
	r := sim.NewRand(uint64(s)*2654435761 + uint64(t)*40503 + 7)
	blocks := l.panelBytes[s] / mem.BlockBytes
	runBlocks := 3 + r.Intn(12*l.scale)
	if runBlocks > blocks {
		runBlocks = blocks
	}
	maxOff := blocks - runBlocks
	offBlocks := 0
	if maxOff > 0 {
		offBlocks = r.Intn(maxOff + 1)
	}
	return offBlocks * mem.BlockBytes, runBlocks * mem.BlockBytes
}

// updates appends to out the targets panel s modifies.
func (l *layout) updates(s int, out []int) []int {
	r := sim.NewRand(uint64(s)*97531 + 13)
	for t := s + 1; t < l.supernodes && t <= s+l.reach; t++ {
		if r.Intn(3) != 0 { // ~2/3 of the candidates in reach
			out = append(out, t)
		}
	}
	return out
}

// Phases of one supernode s.
const (
	phFactor   uint8 = iota // owner streams its panel
	phBarrier1              // post-factor barrier
	phUpdate                // apply panel s to the later panels I own
	phBarrier2              // post-update barrier
)

// gen is one processor's generator.
type gen struct {
	l        *layout
	procs, p int
	s        int   // supernode
	phase    uint8 // position within supernode s
	off      int   // factor offset; update element offset
	targets  []int // panels s updates, reused across supernodes
	u        int   // next entry of targets
	// inUpdate records that targets[u]'s ranges are set and its element
	// loop is in progress.
	inUpdate     bool
	src, tgt     mem.Addr // first source and target bytes of the update
	length, tLen int
}

// Fill resumes exactly where the previous buffer filled up.
func (s *gen) Fill(g *workload.FuncGen) bool {
	l, P := s.l, s.procs
	for ; s.s < l.supernodes; s.s++ {
		switch s.phase {
		case phFactor:
			if s.s%P == s.p {
				// Factor my panel: stream every column (read + write).
				base := l.panels[s.s]
				for ; s.off < l.panelBytes[s.s]; s.off += workload.WordBytes {
					if !g.Room(2) {
						return false
					}
					g.Read(pcFacR, base+mem.Addr(s.off), 1)
					g.Write(pcFacW, base+mem.Addr(s.off), 2)
				}
				s.off = 0
			}
			s.phase = phBarrier1
			fallthrough
		case phBarrier1:
			if !g.Room(1) {
				return false
			}
			g.Barrier()
			if s.targets == nil {
				s.targets = make([]int, 0, l.reach)
			}
			s.targets, s.u = l.updates(s.s, s.targets[:0]), 0
			s.phase = phUpdate
			fallthrough
		case phUpdate:
			for ; s.u < len(s.targets); s.u++ {
				t := s.targets[s.u]
				if t%P != s.p {
					continue
				}
				if !s.inUpdate {
					// The update is a daxpy-like sweep: each element
					// reads the source panel and read-modify-writes the
					// target panel, with the multiply-add arithmetic in
					// between.
					off, length := l.rangeFor(s.s, t)
					tOff, tLen := l.rangeFor(t, s.s)
					if tOff+tLen > l.panelBytes[t] {
						tOff, tLen = 0, l.panelBytes[t]
					}
					s.src, s.tgt = l.panels[s.s]+mem.Addr(off), l.panels[t]+mem.Addr(tOff)
					s.length, s.tLen = length, tLen
					s.off, s.inUpdate = 0, true
				}
				for ; s.off < s.length; s.off += workload.WordBytes {
					if !g.Room(3) {
						return false
					}
					g.Read(pcSrcR, s.src+mem.Addr(s.off), 2)
					to := s.tgt + mem.Addr(s.off%s.tLen)
					g.Read(pcTgtR, to, 2)
					g.Write(pcTgtW, to, 4)
				}
				s.off, s.inUpdate = 0, false
			}
			s.phase = phBarrier2
			fallthrough
		case phBarrier2:
			if !g.Room(1) {
				return false
			}
			g.Barrier()
			s.phase = phFactor
		}
	}
	return true
}

// StrideHints returns the compile-time-known strides of the
// factorization's streaming sites, for the §6 hybrid scheme.
func StrideHints() map[trace.PC]int64 {
	return map[trace.PC]int64{
		pcFacR: workload.WordBytes,
		pcSrcR: workload.WordBytes,
		pcTgtR: workload.WordBytes,
	}
}
