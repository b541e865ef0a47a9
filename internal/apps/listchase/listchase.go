// Package listchase implements a linked-list traversal kernel, the
// canonical pointer-chasing workload the paper's stride and sequential
// schemes cannot help (§7 names "pointer-based codes" as the class
// their detectors miss). Each processor owns a private list of
// block-sized nodes threaded through its node pool in pseudo-random
// order and walks it repeatedly: the miss stream has arbitrary deltas —
// no stride detector can learn it — but the *order* of blocks repeats
// every round, exactly the structure a correlation (Markov) prefetcher
// exploits.
package listchase

import (
	"fmt"

	"prefetchsim/internal/apps/workload"
	"prefetchsim/internal/mem"
	"prefetchsim/internal/sim"
	"prefetchsim/internal/trace"
)

// Load-site PCs.
const (
	pcNode trace.PC = iota + 1 // node payload: the pointer chase itself
	pcAcc                      // per-round accumulator write
)

// Config parameterizes the kernel.
type Config struct {
	workload.Params
	// Nodes is the list length per processor; each node occupies one
	// cache block, so every step of the walk touches a distinct block.
	Nodes int
	// Rounds is the number of full traversals. The first round trains a
	// correlation prefetcher; later rounds are where it pays off.
	Rounds int
}

// DefaultConfig sizes the per-processor list well past the SLC's reach
// for Scale 1 and walks it four times.
func DefaultConfig(p workload.Params) Config {
	p = p.Norm()
	return Config{Params: p, Nodes: 2048 * p.Scale, Rounds: 4}
}

// Check reports why New cannot build c, or nil if it can.
func (c Config) Check() error {
	if c.Nodes < 2 || c.Rounds < 1 {
		return fmt.Errorf("listchase: need >= 2 nodes and >= 1 round, got %d/%d",
			c.Nodes, c.Rounds)
	}
	return nil
}

// New builds the list-chase program. Each processor's traversal order
// is a random cyclic permutation of its node pool (one cycle, so every
// node is visited exactly once per round), derived deterministically
// from the seed.
func New(c Config) (*trace.Program, error) {
	if err := c.Check(); err != nil {
		return nil, err
	}
	c.Params = c.Params.Norm()
	space := mem.NewSpace()
	procs := make([]gen, c.Procs)
	for p := range procs {
		pool := mem.NewArray(space, c.Nodes, workload.WordBytes, mem.BlockBytes)
		acc := mem.NewArray(space, 1, workload.WordBytes, mem.BlockBytes)
		procs[p] = gen{c: c, pool: pool, acc: acc, order: chaseOrder(c, p)}
	}
	return workload.BuildFunc(fmt.Sprintf("ListChase-%dx%d", c.Nodes, c.Rounds), c.Procs,
		func(p int) workload.Filler { g := procs[p]; return &g }), nil
}

// chaseOrder returns processor p's traversal order: a Sattolo cyclic
// permutation of [0, Nodes), so next(i) is a pure function of i and the
// walk forms a single cycle.
func chaseOrder(c Config, p int) []int {
	rng := sim.NewRand(c.Seed + uint64(p)*0x9e3779b9 + 1)
	next := make([]int, c.Nodes)
	for i := range next {
		next[i] = i
	}
	for i := c.Nodes - 1; i > 0; i-- {
		j := rng.Intn(i)
		next[i], next[j] = next[j], next[i]
	}
	order := make([]int, c.Nodes)
	at := 0
	for i := range order {
		order[i] = at
		at = next[at]
	}
	return order
}

// gen is one processor's resumable generator; (round, position) is its
// complete suspension state.
type gen struct {
	c     Config
	pool  mem.Array
	acc   mem.Array
	order []int

	round, pos int
}

// Fill walks the list Rounds times, one node read per step, with an
// accumulator write and a barrier closing each round.
func (s *gen) Fill(g *workload.FuncGen) bool {
	for ; s.round < s.c.Rounds; s.round++ {
		for ; s.pos < len(s.order); s.pos++ {
			if !g.Room(1) {
				return false
			}
			g.Read(pcNode, s.pool.Elem(s.order[s.pos]), 2)
		}
		if !g.Room(2) {
			return false
		}
		g.Write(pcAcc, s.acc.Elem(0), 4)
		g.Barrier()
		s.pos = 0
	}
	return true
}

// StrideHints returns the compile-time stride table: empty, because the
// traversal order is data-dependent — precisely why this kernel exists.
func StrideHints() map[trace.PC]int64 { return map[trace.PC]int64{} }
