// Package water re-implements the SPLASH Water benchmark used in the
// paper: an O(N²) molecular-dynamics simulation of 288 water molecules
// for 4 time steps (§4).
//
// Each molecule is a 672-byte record — 21 cache blocks, which is
// exactly the dominant stride Table 2 reports for Water (21 blocks,
// 99%). The inter-molecular force loop walks the half-shell of partner
// molecules j = i+1 .. i+N/2, reading the partner's nine
// position/orientation doubles through nine distinct load sites (the
// compiled structure-member accesses of the original), each of which
// therefore strides by 21 blocks, and read-modify-writing the partner's
// force block under its per-molecule lock.
//
// The nine position words span three consecutive blocks of the record
// and the force word sits in the fourth, so although every stride
// sequence is 21 blocks long, a miss on the record's first block is
// followed by reads of its neighbours — the "high spatial locality of
// accesses belonging to different stride sequences" that lets
// sequential prefetching perform as well as stride prefetching on
// Water despite the large stride (§5.2).
package water

import (
	"fmt"

	"prefetchsim/internal/apps/workload"
	"prefetchsim/internal/mem"
	"prefetchsim/internal/trace"
)

// MoleculeBlocks is the padded molecule record size in blocks; the
// paper's dominant Water stride.
const MoleculeBlocks = 21

const molBytes = MoleculeBlocks * mem.BlockBytes // 672 B = 84 doubles

// Record layout: blocks 0-2 hold the nine position/orientation doubles
// (three per block, as the original's 3×3 predictor-order matrix lays
// out), block 3 the center-of-mass terms — read by every pair
// computation and rewritten by the owner each step — block 4 the
// accumulated forces, and blocks 5+ the velocities and higher-order
// predictor state touched only by the owner.
func offPos(w int) int { return (w/3)*mem.BlockBytes + (w%3)*workload.WordBytes }
func offVm(w int) int  { return 3*mem.BlockBytes + w*workload.WordBytes }
func offFrc(w int) int { return 4*mem.BlockBytes + w*workload.WordBytes }

const (
	offVel = 5 * mem.BlockBytes
	offDer = 6 * mem.BlockBytes
)

// Load-site PC bases; the position read uses nine consecutive PCs, one
// per structure member, like the original's unrolled member loads.
const (
	pcPosJ trace.PC = 10 + iota*16 // +w, w in 0..8
	pcVmJ                          // +w, w in 0..2
	pcFrcJ
	pcFrcJW
	pcPosI
	pcPred
	pcPredW
	pcCorr
	pcCorrW
)

// Config parameterizes the workload.
type Config struct {
	workload.Params
	// Molecules is the molecule count (paper input: 288).
	Molecules int
	// Steps is the number of time steps (paper input: 4).
	Steps int
}

// DefaultConfig returns the paper's input scaled by p.Scale.
func DefaultConfig(p workload.Params) Config {
	p = p.Norm()
	return Config{Params: p, Molecules: 288 * p.Scale, Steps: 4}
}

// New builds the Water program. The generator is a resumable state
// machine (workload.BuildFunc): each time step is a fixed phase
// sequence — predict, barrier, forces, merge tail, barrier, correct,
// barrier — suspended on the phase tag plus the loop indices.
func New(c Config) *trace.Program {
	c.Params = c.Params.Norm()
	P, N := c.Procs, c.Molecules
	if N < 2*P {
		panic(fmt.Sprintf("water: %d molecules too few for %d processors", N, P))
	}

	space := mem.NewSpace()
	mol := mem.NewArray(space, N, molBytes, molBytes)
	lockVars := mem.NewArray(space, N, mem.BlockBytes, mem.BlockBytes)

	chunk := (N + P - 1) / P
	return workload.BuildFunc(fmt.Sprintf("Water-%d", N), P, func(p int) workload.Filler {
		lo := p * chunk
		hi := lo + chunk
		if hi > N {
			hi = N
		}
		return &gen{mol: mol, lockVars: lockVars, n: N, steps: c.Steps,
			lo: lo, hi: hi, i: lo}
	})
}

// Phases of one time step.
const (
	phPredict   uint8 = iota // integrate my molecules' predictor state
	phPredicted              // barrier after predict
	phForces                 // half-shell pair loop with eager merges
	phTail                   // merges of the molecules still pending
	phForced                 // barrier after the force phase
	phCorrect                // update my molecules from the forces
	phCorrected              // barrier closing the step
)

// Indivisible emission runs, in ops.
const (
	predictOps = 6 + 9 + 3 // predictor reads, position and center-of-mass writes
	ownPosOps  = 9         // my molecule's position reads
	pairOps    = 9 + 3     // a partner's position and center-of-mass reads
	mergeOps   = 1 + 6 + 1 // lock, force read-modify-writes, unlock
	correctOps = 3 * 3     // force read, velocity and derivative writes
)

// gen is one processor's generator over molecules [lo, hi).
type gen struct {
	mol, lockVars mem.Array
	n, steps      int
	lo, hi        int
	step          int
	phase         uint8
	i             int // molecule of the predict, force or correct loop
	d             int // pair distance; 0 = my position reads not yet emitted
	k             int // merge-tail entry
}

// Fill resumes exactly where the previous buffer filled up.
func (s *gen) Fill(g *workload.FuncGen) bool {
	mol, N := s.mol, s.n
	for s.step < s.steps {
		switch s.phase {
		case phPredict:
			// Integrate and publish new positions (private except for
			// the position blocks other processors read).
			for ; s.i < s.hi; s.i++ {
				if !g.Room(predictOps) {
					return false
				}
				i := s.i
				for w := 0; w < 3; w++ {
					g.Read(pcPred, mol.At(i, offVel+w*workload.WordBytes), 2)
					g.Read(pcPred, mol.At(i, offDer+w*workload.WordBytes), 2)
				}
				for w := 0; w < 9; w++ {
					g.Write(pcPredW, mol.At(i, offPos(w)), 2)
				}
				// The center-of-mass terms move with the molecule.
				for w := 0; w < 3; w++ {
					g.Write(pcPredW, mol.At(i, offVm(w)), 2)
				}
			}
			s.phase = phPredicted
		case phPredicted:
			if !g.Room(1) {
				return false
			}
			g.Barrier()
			s.i, s.d = s.lo, 0
			s.phase = phForces
		case phForces:
			// Inter-molecular forces over the half shell. Forces
			// accumulate into private partial arrays; a molecule's
			// global force block is updated (under its lock) as soon as
			// my last contribution to it is computed, as the original
			// does.
			for ; s.i < s.hi; s.i++ {
				if s.d == 0 {
					if !g.Room(ownPosOps) {
						return false
					}
					for w := 0; w < 9; w++ {
						g.Read(pcPosI+trace.PC(w), mol.At(s.i, offPos(w)), 1)
					}
					s.d = 1
				}
				for ; s.d <= N/2; s.d++ {
					if !g.Room(pairOps) {
						return false
					}
					j := (s.i + s.d) % N
					// Nine member loads spanning record blocks 0-2 and
					// the center-of-mass terms in block 3, with the
					// pair-potential arithmetic interleaved.
					for w := 0; w < 9; w++ {
						g.Read(pcPosJ+trace.PC(w), mol.At(j, offPos(w)), 3)
					}
					for w := 0; w < 3; w++ {
						g.Read(pcVmJ+trace.PC(w), mol.At(j, offVm(w)), 3)
					}
				}
				// My contributions to molecule i+1 are now complete.
				if s.i+1 < s.hi {
					if !g.Room(mergeOps) {
						return false
					}
					s.merge(g, s.i+1)
				}
				s.d = 0
			}
			s.k = 0
			s.phase = phTail
		case phTail:
			// Molecules whose last contribution came from my final
			// outer iteration, plus my own first molecule.
			for ; s.k <= N/2; s.k++ {
				if !g.Room(mergeOps) {
					return false
				}
				if s.k == 0 {
					s.merge(g, s.lo)
				} else {
					s.merge(g, (s.hi+s.k-1)%N)
				}
			}
			s.phase = phForced
		case phForced:
			if !g.Room(1) {
				return false
			}
			g.Barrier()
			s.i = s.lo
			s.phase = phCorrect
		case phCorrect:
			for ; s.i < s.hi; s.i++ {
				if !g.Room(correctOps) {
					return false
				}
				for w := 0; w < 3; w++ {
					g.Read(pcCorr, mol.At(s.i, offFrc(w)), 2)
					g.Write(pcCorrW, mol.At(s.i, offVel+w*workload.WordBytes), 2)
					g.Write(pcCorrW, mol.At(s.i, offDer+w*workload.WordBytes), 2)
				}
			}
			s.phase = phCorrected
		case phCorrected:
			if !g.Room(1) {
				return false
			}
			g.Barrier()
			s.i = s.lo
			s.step++
			s.phase = phPredict
		}
	}
	return true
}

// merge adds my partial forces into molecule j's global force block
// under its lock.
func (s *gen) merge(g *workload.FuncGen, j int) {
	g.Lock(s.lockVars.Elem(j))
	for w := 0; w < 3; w++ {
		g.Read(pcFrcJ+trace.PC(w), s.mol.At(j, offFrc(w)), 2)
		g.Write(pcFrcJW+trace.PC(w), s.mol.At(j, offFrc(w)), 2)
	}
	g.Unlock(s.lockVars.Elem(j))
}

// StrideHints returns the compile-time-known strides of Water's pair
// loop: every partner-molecule load site strides by one molecule
// record. Used by the §6 hybrid (software-assisted) scheme.
func StrideHints() map[trace.PC]int64 {
	hints := make(map[trace.PC]int64)
	for w := 0; w < 9; w++ {
		hints[pcPosJ+trace.PC(w)] = molBytes
	}
	for w := 0; w < 3; w++ {
		hints[pcVmJ+trace.PC(w)] = molBytes
		hints[pcFrcJ+trace.PC(w)] = molBytes
	}
	return hints
}
