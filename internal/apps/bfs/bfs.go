// Package bfs implements a level-synchronized breadth-first search over
// a random directed graph in CSR form, the graph-analytics face of
// pointer chasing. Each frontier vertex costs a near-random read of the
// vertex record, two sequential reads of its CSR offsets, a short
// sequential scan of its edge list, and a near-random read of each
// neighbour's visited flag — a mix of the stream every scheme in the
// zoo wants (the edge scan) with the irregular reads none of the stride
// schemes can touch. The traversal is precomputed at build time (traces
// are generated before simulation), and repeats Rounds times, modelling
// iterative graph algorithms that re-walk the same structure.
package bfs

import (
	"fmt"

	"prefetchsim/internal/apps/workload"
	"prefetchsim/internal/mem"
	"prefetchsim/internal/sim"
	"prefetchsim/internal/trace"
)

// Load-site PCs.
const (
	pcVert  trace.PC = iota + 1 // vertex record: frontier-ordered, irregular
	pcOff                       // CSR offset pair: two consecutive words
	pcEdge                      // edge-list scan: unit stride
	pcVisit                     // neighbour visited flag: near-random
)

// Config parameterizes the kernel.
type Config struct {
	workload.Params
	// Vertices and Degree (mean out-degree) size the random graph;
	// Rounds repeats the identical BFS.
	Vertices int
	Degree   int
	Rounds   int
}

// DefaultConfig sizes the graph so the visited array and vertex records
// far exceed the SLC.
func DefaultConfig(p workload.Params) Config {
	p = p.Norm()
	return Config{Params: p, Vertices: 4096 * p.Scale, Degree: 4, Rounds: 2}
}

// Check reports why New cannot build c, or nil if it can.
func (c Config) Check() error {
	if c.Vertices < 2 || c.Degree < 1 || c.Rounds < 1 {
		return fmt.Errorf("bfs: bad config %+v", c)
	}
	return nil
}

// New builds the BFS program: the graph, the BFS tree and the
// per-level frontiers are all computed here, deterministically from the
// seed, and each processor's stream walks its round-robin share of
// every frontier with a barrier per level.
func New(c Config) (*trace.Program, error) {
	if err := c.Check(); err != nil {
		return nil, err
	}
	c.Params = c.Params.Norm()
	rng := sim.NewRand(c.Seed + 0xbf5)

	// Random directed graph in CSR form. Out-degrees are 1..2*Degree-1
	// (mean Degree), so a giant component reachable from vertex 0 exists
	// and the BFS tree has logarithmic depth.
	offs := make([]int, c.Vertices+1)
	var edges []int
	for v := 0; v < c.Vertices; v++ {
		offs[v] = len(edges)
		deg := 1 + rng.Intn(2*c.Degree-1)
		for k := 0; k < deg; k++ {
			edges = append(edges, rng.Intn(c.Vertices))
		}
	}
	offs[c.Vertices] = len(edges)

	// BFS from vertex 0: levels[l] is the sorted frontier of level l.
	levels := bfsLevels(offs, edges)

	space := mem.NewSpace()
	vrec := mem.NewArray(space, c.Vertices, workload.WordBytes, mem.BlockBytes)
	offA := mem.NewArray(space, c.Vertices+1, workload.WordBytes, workload.WordBytes)
	edgeA := mem.NewArray(space, len(edges), workload.WordBytes, workload.WordBytes)
	visit := mem.NewArray(space, c.Vertices, workload.WordBytes, workload.WordBytes)

	return workload.BuildFunc(fmt.Sprintf("BFS-%dx%d", c.Vertices, c.Degree), c.Procs,
		func(p int) workload.Filler {
			return &gen{c: c, offs: offs, edges: edges, levels: levels,
				vrec: vrec, offA: offA, edgeA: edgeA, visit: visit, proc: p, pos: p}
		}), nil
}

// bfsLevels computes the frontier of every BFS level from vertex 0.
func bfsLevels(offs, edges []int) [][]int {
	seen := make([]bool, len(offs)-1)
	seen[0] = true
	frontier := []int{0}
	var levels [][]int
	for len(frontier) > 0 {
		levels = append(levels, frontier)
		var next []int
		for _, v := range frontier {
			for _, u := range edges[offs[v]:offs[v+1]] {
				if !seen[u] {
					seen[u] = true
					next = append(next, u)
				}
			}
		}
		frontier = next
	}
	return levels
}

// gen is one processor's resumable generator; (round, level, index
// within the level's owned share) is its suspension state — one vertex
// expansion is an indivisible emission run.
type gen struct {
	c            Config
	offs, edges  []int
	levels       [][]int
	vrec         mem.Array
	offA, edgeA  mem.Array
	visit        mem.Array
	proc         int
	round, level int
	pos          int
}

// Fill expands this processor's share (round-robin by frontier index)
// of each level: Read vrec[v]; Read offs[v], offs[v+1]; Read each edge
// word; Read visited[u] for each target — then a barrier per level.
func (s *gen) Fill(g *workload.FuncGen) bool {
	for ; s.round < s.c.Rounds; s.round++ {
		for ; s.level < len(s.levels); s.level++ {
			fr := s.levels[s.level]
			for ; s.pos < len(fr); s.pos += s.c.Procs {
				v := fr[s.pos]
				deg := s.offs[v+1] - s.offs[v]
				if !g.Room(3 + 2*deg) {
					return false
				}
				g.Read(pcVert, s.vrec.Elem(v), 2)
				g.Read(pcOff, s.offA.Elem(v), 2)
				g.Read(pcOff, s.offA.Elem(v+1), 2)
				for e := s.offs[v]; e < s.offs[v+1]; e++ {
					g.Read(pcEdge, s.edgeA.Elem(e), 2)
					g.Read(pcVisit, s.visit.Elem(s.edges[e]), 2)
				}
			}
			if !g.Room(1) {
				return false
			}
			g.Barrier()
			s.pos = s.proc
		}
		s.level = 0
	}
	return true
}

// StrideHints returns the compile-time stride table: the edge-list scan
// is the only statically strided site (the "compiler" cannot know
// frontier or neighbour order).
func StrideHints() map[trace.PC]int64 {
	return map[trace.PC]int64{pcEdge: workload.WordBytes}
}
