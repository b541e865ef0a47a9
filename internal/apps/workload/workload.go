// Package workload provides the scaffolding shared by the
// re-implemented applications: structured emission of shared-data
// references (per 8-byte word, so the simulated FLC filters intra-block
// locality exactly as a real one would), auto-numbered barriers, and a
// program validator used by the application test suites.
//
// Every built-in application is a resumable generator (Filler, run by
// BuildFunc): its stream is produced on the simulating goroutine,
// straight into the op buffer the machine just recycled. Build and Gen
// run a straight-line body in a producer goroutine (trace.ChanStream)
// instead; they back only the public prefetchsim.NewProgram, whose
// bodies are arbitrary user code, and serve the application tests as
// the oracle each port is checked against.
package workload

import (
	"fmt"

	"prefetchsim/internal/mem"
	"prefetchsim/internal/trace"
)

// WordBytes is the access granularity: applications issue 8-byte loads
// and stores, like the double-precision codes the paper studies.
const WordBytes = 8

// DefaultProcs and DefaultScale are the paper's machine size and data
// sets: the defaults of every front end.
const DefaultProcs, DefaultScale = 16, 1

// Params are the knobs every application shares.
type Params struct {
	Procs int
	// Scale multiplies the data-set size; 1 reproduces the paper's
	// inputs, 2 is used for the larger-data-set study (Table 4).
	Scale int
	Seed  uint64
}

// Norm clamps Params into a usable range.
func (p Params) Norm() Params {
	if p.Procs <= 0 {
		p.Procs = DefaultProcs
	}
	if p.Scale <= 0 {
		p.Scale = DefaultScale
	}
	return p
}

// Gen wraps a trace.Emitter with structured-access helpers. One Gen
// exists per simulated processor, inside its producer goroutine.
type Gen struct {
	E       *trace.Emitter
	barrier uint64
}

// Read emits one 8-byte load.
func (g *Gen) Read(pc trace.PC, a mem.Addr, gap uint32) { g.E.Read(pc, uint64(a), gap) }

// Write emits one 8-byte store.
func (g *Gen) Write(pc trace.PC, a mem.Addr, gap uint32) { g.E.Write(pc, uint64(a), gap) }

// ReadRange reads words [base, base+bytes) in ascending order.
func (g *Gen) ReadRange(pc trace.PC, base mem.Addr, bytes int, gap uint32) {
	for off := 0; off < bytes; off += WordBytes {
		g.E.Read(pc, uint64(base)+uint64(off), gap)
	}
}

// WriteRange writes words [base, base+bytes) in ascending order.
func (g *Gen) WriteRange(pc trace.PC, base mem.Addr, bytes int, gap uint32) {
	for off := 0; off < bytes; off += WordBytes {
		g.E.Write(pc, uint64(base)+uint64(off), gap)
	}
}

// Barrier emits the next global barrier. Every processor must execute
// the same barrier sequence; episodes are auto-numbered.
func (g *Gen) Barrier() {
	g.E.Barrier(g.barrier)
	g.barrier++
}

// Lock emits an acquire of the lock variable at a.
func (g *Gen) Lock(a mem.Addr) { g.E.Acquire(uint64(a)) }

// Unlock emits the matching release.
func (g *Gen) Unlock(a mem.Addr) { g.E.Release(uint64(a)) }

// Build constructs a Program with procs streams, running body(p, gen)
// in a producer goroutine per processor. The goroutine hands the
// machine ops in recycled batches through one channel transfer per
// batch (trace.ChanStream), so a batch is usually written on another
// core than the one that simulates it. Built-in applications use BuildFunc;
// Build backs user-supplied bodies (prefetchsim.NewProgram) and the
// goroutine oracles of the application tests.
func Build(name string, procs int, body func(p int, g *Gen)) *trace.Program {
	prog := &trace.Program{Name: name}
	for p := 0; p < procs; p++ {
		p := p
		prog.Streams = append(prog.Streams, trace.NewChanStream(func(e *trace.Emitter) {
			body(p, &Gen{E: e})
		}))
	}
	return prog
}

// FuncGen mirrors Gen for goroutine-free generators: a resumable state
// machine (Filler) emits through it into the batch buffer handed down
// by trace.FuncStream, and yields — returns from Fill — whenever Room
// reports the buffer cannot take the next indivisible run of ops.
// Barrier numbering persists across resumptions, so the FuncGen
// outlives any single Fill call.
type FuncGen struct {
	buf     []trace.Op
	n       int
	barrier uint64
}

// Room reports whether the buffer can take k more ops. A Filler checks
// Room before each indivisible emission run and yields when it fails;
// the next Fill call resumes with a fresh buffer (always at least
// batch-sized, so any run that fits an empty buffer eventually emits).
func (g *FuncGen) Room(k int) bool { return g.n+k <= len(g.buf) }

// Read emits one 8-byte load.
func (g *FuncGen) Read(pc trace.PC, a mem.Addr, gap uint32) {
	g.buf[g.n] = trace.Op{Kind: trace.Read, PC: pc, Addr: uint64(a), Gap: gap}
	g.n++
}

// Write emits one 8-byte store.
func (g *FuncGen) Write(pc trace.PC, a mem.Addr, gap uint32) {
	g.buf[g.n] = trace.Op{Kind: trace.Write, PC: pc, Addr: uint64(a), Gap: gap}
	g.n++
}

// Barrier emits the next global barrier, auto-numbered like Gen's.
func (g *FuncGen) Barrier() {
	g.buf[g.n] = trace.Op{Kind: trace.Barrier, Addr: g.barrier}
	g.n++
	g.barrier++
}

// Lock emits an acquire of the lock variable at a.
func (g *FuncGen) Lock(a mem.Addr) {
	g.buf[g.n] = trace.Op{Kind: trace.Acquire, Addr: uint64(a)}
	g.n++
}

// Unlock emits the matching release.
func (g *FuncGen) Unlock(a mem.Addr) {
	g.buf[g.n] = trace.Op{Kind: trace.Release, Addr: uint64(a)}
	g.n++
}

// Filler is a resumable generator: Fill emits operations through g and
// returns true when the program is complete, or false to yield because
// the buffer is full. Fill must make progress — emit at least one op —
// on every call that returns false.
type Filler interface {
	Fill(g *FuncGen) bool
}

// BuildFunc constructs a Program whose streams drive resumable state
// machines directly: no producer goroutine and no channel transfer (see
// trace.FuncStream), with op buffers recycled by the consuming machine.
// mk returns processor p's generator.
func BuildFunc(name string, procs int, mk func(p int) Filler) *trace.Program {
	prog := &trace.Program{Name: name}
	for p := 0; p < procs; p++ {
		f := mk(p)
		g := &FuncGen{}
		done := false
		prog.Streams = append(prog.Streams, trace.NewFuncStream(func(buf []trace.Op) int {
			if done {
				return 0
			}
			g.buf, g.n = buf, 0
			done = f.Fill(g)
			return g.n
		}))
	}
	return prog
}

// Validate drains a program and checks the structural invariants the
// machine relies on: every stream terminates with End, all processors
// execute identical ascending barrier sequences, and each processor's
// lock operations are balanced (release only what is held). It returns
// the per-processor operation counts. Validate consumes the program;
// build a fresh one to simulate.
func Validate(p *trace.Program, procs int) ([]int, error) {
	if len(p.Streams) != procs {
		return nil, fmt.Errorf("%s: %d streams, want %d", p.Name, len(p.Streams), procs)
	}
	counts := make([]int, procs)
	var barriers [][]uint64
	for i, s := range p.Streams {
		held := make(map[uint64]bool)
		var seq []uint64
		for n := 0; ; n++ {
			if n > 1<<28 {
				return nil, fmt.Errorf("%s: stream %d exceeds 2^28 ops; missing End?", p.Name, i)
			}
			op := s.Next()
			if op.Kind == trace.End {
				counts[i] = n
				break
			}
			switch op.Kind {
			case trace.Barrier:
				seq = append(seq, op.Addr)
			case trace.Acquire:
				if held[op.Addr] {
					return nil, fmt.Errorf("%s: stream %d re-acquires held lock %#x", p.Name, i, op.Addr)
				}
				held[op.Addr] = true
			case trace.Release:
				if !held[op.Addr] {
					return nil, fmt.Errorf("%s: stream %d releases unheld lock %#x", p.Name, i, op.Addr)
				}
				delete(held, op.Addr)
			}
		}
		if len(held) != 0 {
			return nil, fmt.Errorf("%s: stream %d ends holding %d locks", p.Name, i, len(held))
		}
		for j, b := range seq {
			if b != uint64(j) {
				return nil, fmt.Errorf("%s: stream %d barrier %d has episode %d", p.Name, i, j, b)
			}
		}
		barriers = append(barriers, seq)
	}
	for i := 1; i < procs; i++ {
		if len(barriers[i]) != len(barriers[0]) {
			return nil, fmt.Errorf("%s: stream %d has %d barriers, stream 0 has %d",
				p.Name, i, len(barriers[i]), len(barriers[0]))
		}
	}
	return counts, nil
}
