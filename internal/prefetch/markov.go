package prefetch

import (
	"prefetchsim/internal/blockmap"
	"prefetchsim/internal/mem"
)

// Markov implements a pointer-chase prefetcher for linked data
// structures, after Srivastava and Navalakha (arXiv:1801.08088) and the
// classic Joseph–Grunwald Markov predictor it builds on. Linked-list,
// hash-chain and graph traversals produce miss streams whose deltas are
// arbitrary — no stride detector can learn them — but whose *order*
// repeats: the address of the next node is a pure function of the
// current one. The prefetcher therefore records first-order miss
// correlations (block B was followed by block C) in a correlation
// table and, on the next visit to B, chases the recorded successor
// chain ahead of the demand stream.
//
// The table is keyed by block number in a blockmap.Table; each entry
// keeps the last markovSuccessors distinct successors in MRU order
// (pointer chains are deterministic, so the MRU slot is almost always
// the right one, but hash-bucket fan-out benefits from a second). To
// model finite hardware storage — and bound memory on huge irregular
// runs — the table is cleared when it exceeds maxEntries correlations;
// clearing returns the table's leaves to its free list, so it stays
// bounded by its high-water leaf count and a steady-state run
// allocates nothing.
//
// Prefetching follows the shared tagged-block phase: a miss (or a
// consumed prefetch tag) at B emits the MRU successor chain of B up to
// the configured depth, so a learned list is streamed depth nodes ahead
// of the consumer.
type Markov struct {
	depth      int
	maxEntries int

	succs blockmap.Table[succSet]
	prev  mem.Block
	seen  bool
}

// succSet is one correlation entry: up to markovSuccessors successor
// blocks in MRU order.
type succSet struct {
	s [markovSuccessors]mem.Block
	n uint8
}

// markovSuccessors is the per-entry successor capacity.
const markovSuccessors = 2

// markovMaxEntries is the default correlation-table capacity.
const markovMaxEntries = 1 << 14

// NewMarkov returns a pointer-chase prefetcher that chases recorded
// successor chains depth blocks ahead (depth >= 1, typically the
// prefetch degree d).
func NewMarkov(depth int) *Markov {
	if depth < 1 {
		panic("prefetch: Markov depth must be >= 1")
	}
	return &Markov{depth: depth, maxEntries: markovMaxEntries}
}

// Name implements Prefetcher.
func (p *Markov) Name() string { return "Markov" }

// CrossesPages implements PageCrosser: recorded successors are
// previously demand-referenced addresses, so their translations are
// known and the §2 page filter does not apply.
func (p *Markov) CrossesPages() bool { return true }

// TableLen exposes the correlation-table occupancy, for tests.
func (p *Markov) TableLen() int { return p.succs.Len() }

// OnRead implements Prefetcher. Misses and consumed prefetch tags both
// advance the observed traversal; plain hits are invisible, exactly as
// the stride detectors treat them.
func (p *Markov) OnRead(r Request, emit func(mem.Block)) {
	if r.Hit && !r.TagConsumed {
		return
	}
	b := r.Block

	// Learn: the previous traversal step is followed by b.
	if p.seen && p.prev != b {
		p.record(p.prev, b)
	}
	p.prev, p.seen = b, true

	// Chase: stream the MRU successor chain ahead of the consumer.
	cur := b
	for k := 0; k < p.depth; k++ {
		e, ok := p.succs.Get(cur)
		if !ok || e.n == 0 {
			return
		}
		next := e.s[0]
		emit(next)
		if k == 0 && e.n > 1 && p.depth > 1 {
			// One step of fan-out for forked structures (hash buckets,
			// tree nodes): the second-most-recent successor.
			emit(e.s[1])
		}
		cur = next
	}
}

// record inserts the correlation from -> to, MRU-first.
func (p *Markov) record(from, to mem.Block) {
	if p.succs.Len() >= p.maxEntries {
		// Finite correlation storage: drop the learned state and relearn,
		// like a hardware table being recycled. The cleared leaves are
		// reused by the refill.
		p.succs.Clear()
	}
	e := p.succs.Ref(from)
	if e.n > 0 && e.s[0] == to {
		return
	}
	for i := 1; i < int(e.n); i++ {
		if e.s[i] == to {
			// Move to front.
			copy(e.s[1:i+1], e.s[:i])
			e.s[0] = to
			return
		}
	}
	if e.n < markovSuccessors {
		e.n++
	}
	copy(e.s[1:], e.s[:markovSuccessors-1])
	e.s[0] = to
}
