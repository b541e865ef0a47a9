// Package hashjoin implements the probe phase of a chained-bucket hash
// join, a pointer-heavy database kernel. Each probe hashes a key to a
// bucket (a near-random read into the bucket-head array), then chases
// the bucket's overflow chain node by node — short pointer chases whose
// fan-out exercises a correlation prefetcher's multi-successor slots —
// and finally appends a match record to the processor's output run,
// the one well-strided reference a stride detector can still win.
package hashjoin

import (
	"fmt"

	"prefetchsim/internal/apps/workload"
	"prefetchsim/internal/mem"
	"prefetchsim/internal/sim"
	"prefetchsim/internal/trace"
)

// Load-site PCs.
const (
	pcBucket trace.PC = iota + 1 // bucket head: hash-indexed, near-random
	pcChain                      // overflow-chain node: pointer chase
	pcOut                        // output append: unit stride
)

// Config parameterizes the kernel.
type Config struct {
	workload.Params
	// Buckets is the hash-table size; Probes is the number of lookups
	// each processor performs per round; MaxChain bounds the overflow
	// chain length; Rounds repeats the same probe sequence, so chain
	// correlations recur.
	Buckets  int
	Probes   int
	MaxChain int
	Rounds   int
}

// DefaultConfig sizes the table so bucket heads far exceed the SLC and
// chains average two nodes.
func DefaultConfig(p workload.Params) Config {
	p = p.Norm()
	return Config{
		Params:   p,
		Buckets:  4096 * p.Scale,
		Probes:   2048 * p.Scale,
		MaxChain: 4,
		Rounds:   3,
	}
}

// Check reports why New cannot build c, or nil if it can.
func (c Config) Check() error {
	if c.Buckets < 1 || c.Probes < 1 || c.MaxChain < 1 || c.Rounds < 1 {
		return fmt.Errorf("hashjoin: bad config %+v", c)
	}
	return nil
}

// New builds the hash-join probe program. The table layout (chain
// lengths, node placement) and each processor's probe sequence are
// derived deterministically from the seed.
func New(c Config) (*trace.Program, error) {
	if err := c.Check(); err != nil {
		return nil, err
	}
	c.Params = c.Params.Norm()
	rng := sim.NewRand(c.Seed + 0x4a5b)
	space := mem.NewSpace()
	heads := mem.NewArray(space, c.Buckets, workload.WordBytes, workload.WordBytes)

	// Chain nodes live in one pool, block-sized so each chase step is a
	// distinct block; buckets draw their chains from a shuffled order so
	// chain layout is uncorrelated with bucket index.
	chainLen := make([]int, c.Buckets)
	total := 0
	for b := range chainLen {
		chainLen[b] = 1 + rng.Intn(c.MaxChain)
		total += chainLen[b]
	}
	pool := mem.NewArray(space, total, workload.WordBytes, mem.BlockBytes)
	perm := make([]int, total)
	for i := range perm {
		perm[i] = i
	}
	for i := total - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	chains := make([][]int, c.Buckets)
	at := 0
	for b := range chains {
		chains[b] = perm[at : at+chainLen[b]]
		at += chainLen[b]
	}

	procs := make([]gen, c.Procs)
	for p := range procs {
		prng := sim.NewRand(c.Seed + uint64(p)*0x85eb + 7)
		probes := make([]int, c.Probes)
		for i := range probes {
			probes[i] = prng.Intn(c.Buckets)
		}
		out := mem.NewArray(space, c.Probes, workload.WordBytes, workload.WordBytes)
		procs[p] = gen{c: c, heads: heads, pool: pool, chains: chains, probes: probes, out: out}
	}
	return workload.BuildFunc(fmt.Sprintf("HashJoin-%dx%dx%d", c.Buckets, c.Probes, c.Rounds),
		c.Procs, func(p int) workload.Filler { g := procs[p]; return &g }), nil
}

// gen is one processor's resumable generator; (round, probe index) is
// its suspension state — one probe is an indivisible emission run.
type gen struct {
	c      Config
	heads  mem.Array
	pool   mem.Array
	chains [][]int
	probes []int
	out    mem.Array

	round, pos int
}

// Fill emits, per probe: Read head[bucket]; Read each chain node;
// Write out[i] — with a barrier closing each round.
func (s *gen) Fill(g *workload.FuncGen) bool {
	for ; s.round < s.c.Rounds; s.round++ {
		for ; s.pos < len(s.probes); s.pos++ {
			bkt := s.probes[s.pos]
			if !g.Room(2 + len(s.chains[bkt])) {
				return false
			}
			g.Read(pcBucket, s.heads.Elem(bkt), 2)
			for _, n := range s.chains[bkt] {
				g.Read(pcChain, s.pool.Elem(n), 2)
			}
			g.Write(pcOut, s.out.Elem(s.pos), 4)
		}
		if !g.Room(1) {
			return false
		}
		g.Barrier()
		s.pos = 0
	}
	return true
}

// StrideHints returns the compile-time stride table: only the output
// append is statically strided; the probe and chase sites are
// data-dependent.
func StrideHints() map[trace.PC]int64 {
	return map[trace.PC]int64{pcOut: workload.WordBytes}
}
