// Package pthor re-implements the SPLASH PTHOR benchmark used in the
// paper: a parallel logic-level circuit simulator (§4). The paper runs
// the RISC circuit for 1000 time steps; that netlist is not available,
// so the simulator runs a synthetic random circuit of two-input
// XOR/NAND gates (see DESIGN.md §4). As in the paper's PTHOR runs, the
// step count is reduced relative to the original "because of time
// limitations for simulations".
//
// Gate records are 96 bytes (3 blocks) and a gate's evaluation chases
// pointers to its two input gates' output words — scattered accesses
// with low spatial locality and almost no strides (Table 2: 4.1% of
// misses in stride sequences, average run 3.4). Neither stride nor
// sequential prefetching helps much here, which makes PTHOR the paper's
// control case.
//
// Gate activity depends on simulated values, so the boolean circuit is
// evaluated once, deterministically, at program-construction time; each
// processor then replays its own gates' activations.
package pthor

import (
	"fmt"

	"prefetchsim/internal/apps/workload"
	"prefetchsim/internal/mem"
	"prefetchsim/internal/sim"
	"prefetchsim/internal/trace"
)

// Gate record layout: 96 bytes = 3 blocks. Block 0 holds the output
// value and bookkeeping, block 1 the input pointers, block 2 the
// scheduling state written by predecessors.
const gateBytes = 96

const (
	offOut   = 0
	offState = 8
	offIn    = mem.BlockBytes
	offSched = 2 * mem.BlockBytes
)

// Load-site PCs.
const (
	pcSelf trace.PC = iota + 1
	pcStateR
	pcPtr
	pcIn
	pcOutW
	pcSchedR
	pcSchedW
)

// Config parameterizes the workload.
type Config struct {
	workload.Params
	// Gates is the synthetic circuit size.
	Gates int
	// Steps is the number of simulated clock steps.
	Steps int
}

// DefaultConfig returns the synthetic stand-in for the RISC circuit,
// scaled by p.Scale.
func DefaultConfig(p workload.Params) Config {
	p = p.Norm()
	return Config{Params: p, Gates: 3000 * p.Scale, Steps: 220}
}

// Check reports why New cannot build c, or nil if it can.
func (c Config) Check() error {
	if p := c.Params.Norm(); c.Gates < 4*p.Procs {
		return fmt.Errorf("pthor: %d gates too few for %d processors", c.Gates, p.Procs)
	}
	return nil
}

// New builds the PTHOR program. The generator is a resumable state
// machine (workload.BuildFunc): per step it collects and shuffles its
// active gates, replays them, and closes with a barrier, suspended on
// the step and task indices. The task list and the shuffle RNG are
// created on the first Fill so building the program stays cheap.
func New(c Config) (*trace.Program, error) {
	if err := c.Check(); err != nil {
		return nil, err
	}
	c.Params = c.Params.Norm()
	P, G := c.Procs, c.Gates
	ck := newCircuit(c)
	space := mem.NewSpace()
	gates := mem.NewArray(space, G, gateBytes, gateBytes)
	chunk := (G + P - 1) / P

	return workload.BuildFunc(fmt.Sprintf("PTHOR-%dg", G), P, func(p int) workload.Filler {
		lo, hi := int32(p*chunk), int32((p+1)*chunk)
		if hi > int32(G) {
			hi = int32(G)
		}
		return &gen{ck: ck, gates: gates, seed: c.Seed, p: p, lo: lo, hi: hi}
	}), nil
}

// circuit is the synthetic netlist and its precomputed activity,
// shared read-only by every processor's generator.
type circuit struct {
	in1, in2 []int32
	fanout   [][]int32
	active   [][]int32 // per step, ascending gate ids
	changed  [][]bool  // parallel to active: did the output flip?
}

func newCircuit(c Config) *circuit {
	G := c.Gates
	rng := sim.NewRand(c.Seed*6364136223846793005 + 1442695040888963407)
	ck := &circuit{
		in1:     make([]int32, G),
		in2:     make([]int32, G),
		fanout:  make([][]int32, G),
		active:  make([][]int32, c.Steps),
		changed: make([][]bool, c.Steps),
	}
	isXor := make([]bool, G)
	for gi := 0; gi < G; gi++ {
		a, b := int32(rng.Intn(G)), int32(rng.Intn(G))
		ck.in1[gi], ck.in2[gi] = a, b
		isXor[gi] = rng.Intn(2) == 0
		ck.fanout[a] = append(ck.fanout[a], int32(gi))
		ck.fanout[b] = append(ck.fanout[b], int32(gi))
	}

	// Evaluate the circuit synchronously to derive the per-step active
	// sets (a gate is active when an input changed last step).
	out := make([]bool, G)
	for gi := range out {
		out[gi] = rng.Intn(2) == 0
	}
	cur := make([]bool, G) // active this step
	next := make([]bool, G)
	for gi := range cur {
		cur[gi] = rng.Intn(4) == 0 // ~25% initially stimulated
	}
	newOut := make([]bool, G)
	for step := 0; step < c.Steps; step++ {
		copy(newOut, out)
		for gi := 0; gi < G; gi++ {
			if !cur[gi] {
				continue
			}
			ck.active[step] = append(ck.active[step], int32(gi))
			a, b := out[ck.in1[gi]], out[ck.in2[gi]]
			var v bool
			if isXor[gi] {
				v = a != b
			} else {
				v = !(a && b)
			}
			flip := v != out[gi]
			ck.changed[step] = append(ck.changed[step], flip)
			if flip {
				newOut[gi] = v
				for _, succ := range ck.fanout[gi] {
					next[succ] = true
				}
			}
		}
		copy(out, newOut)
		cur, next = next, cur
		for gi := range next {
			next[gi] = false
		}
	}
	return ck
}

// task is one activation of one of my gates.
type task struct {
	gi   int32
	flip bool
}

// maxTaskOps bounds one activation's ops: seven reads, the output write
// and at most four successor-scheduling writes.
const maxTaskOps = 7 + 1 + 4

// gen is one processor's generator over gates [lo, hi).
type gen struct {
	ck     *circuit
	gates  mem.Array
	seed   uint64
	p      int
	lo, hi int32
	// mine and order are created by the first Fill.
	mine      []task
	order     sim.Rand
	step      int
	collected bool // mine holds this step's shuffled tasks
	t         int  // next entry of mine
}

// Fill resumes where the previous buffer filled up. Each step's
// shuffle draws happen once, when its tasks are collected, so a yield
// never replays them.
func (s *gen) Fill(g *workload.FuncGen) bool {
	if s.mine == nil {
		s.order = *sim.NewRand(s.seed*31 + uint64(s.p)*7919 + 3)
		// A gate activates at most once per step; the last
		// processors' ranges may be empty (lo > hi).
		s.mine = make([]task, 0, max(int(s.hi-s.lo), 0))
	}
	ck, gates := s.ck, s.gates
	for ; s.step < len(ck.active); s.step++ {
		if !s.collected {
			// Collect my active gates, then process them in event-queue
			// order (the original's pending-event list is not sorted by
			// gate id; an ascending walk would fabricate strides).
			s.mine = s.mine[:0]
			for ai, gi := range ck.active[s.step] {
				if gi >= s.lo && gi < s.hi {
					s.mine = append(s.mine, task{gi: gi, flip: ck.changed[s.step][ai]})
				}
			}
			for i := len(s.mine) - 1; i > 0; i-- {
				j := s.order.Intn(i + 1)
				s.mine[i], s.mine[j] = s.mine[j], s.mine[i]
			}
			s.collected, s.t = true, 0
		}
		for ; s.t < len(s.mine); s.t++ {
			if !g.Room(maxTaskOps) {
				return false
			}
			tk := s.mine[s.t]
			gid := int(tk.gi)
			// Dequeue: read scheduling state (written by the
			// predecessor that activated us), then our own record.
			g.Read(pcSchedR, gates.At(gid, offSched), 2)
			g.Read(pcSelf, gates.At(gid, offOut), 2)
			g.Read(pcStateR, gates.At(gid, offState), 1)
			g.Read(pcPtr, gates.At(gid, offIn), 1)
			g.Read(pcPtr, gates.At(gid, offIn+8), 1)
			// Chase the input pointers: scattered reads.
			g.Read(pcIn, gates.At(int(ck.in1[gid]), offOut), 4)
			g.Read(pcIn, gates.At(int(ck.in2[gid]), offOut), 4)
			// Evaluate; publish and schedule successors only when the
			// output flipped (bounded fanout walk).
			if tk.flip {
				g.Write(pcOutW, gates.At(gid, offOut), 3)
				for fi, succ := range ck.fanout[gid] {
					if fi == 4 {
						break
					}
					g.Write(pcSchedW, gates.At(int(succ), offSched), 2)
				}
			}
		}
		if !g.Room(1) {
			return false
		}
		g.Barrier()
		s.collected = false
	}
	return true
}

// StrideHints returns an empty table: PTHOR's accesses are
// pointer-chasing and carry no compile-time stride information, which
// is precisely why it is the paper's control application.
func StrideHints() map[trace.PC]int64 { return nil }
