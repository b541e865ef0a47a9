// Package sim provides a deterministic discrete-event simulation engine.
//
// Time is measured in pclocks (1 pclock = 10 ns, a 100 MHz processor
// clock, per Table 1 of the paper). Events are totally ordered by
// (time, insertion sequence) so that simulations are reproducible
// run-to-run regardless of map iteration order or scheduling.
//
// The queue is a timing wheel of wheelSize one-pclock buckets plus an
// overflow heap. An event due less than wheelSize pclocks ahead goes
// into the bucket for its time; each bucket is a FIFO of slots linked
// through one pooled slot array, and an occupancy bitmap finds the
// next non-empty bucket with one TrailingZeros64 per 64 buckets. The
// rare event due further ahead goes into a hand-rolled 4-ary min-heap
// (no container/heap, no interface{} boxing). Since every wheel event
// lies in [now, now+wheelSize), a bucket only ever holds one timestamp,
// and FIFO order within it is insertion order. An overflow event due
// at T was scheduled before every wheel event due at T, so pop takes
// the overflow root first on a tie, and dispatch follows exactly the
// (time, seq) total order.
//
// Queue entries hold no pointers, so moving them costs no GC write
// barrier. A wheel slot is 8 bytes: a HandlerID and a link; its time
// is its bucket's. A Handler is registered once (Register) and then
// scheduled by id (Schedule). The closures of the cold-path At live in
// a free-listed side table under negative ids, cleared when they fire,
// so nothing retains a dead callback.
package sim

import (
	"math/bits"

	"prefetchsim/internal/obs"
)

// Time is a point in simulated time, in pclocks.
type Time int64

// EngineMetrics are the engine's observability instruments (see
// internal/obs): attached with SetMetrics, updated with plain integer
// arithmetic on every dispatch, and read only after the run (or from
// the simulation's own goroutine).
type EngineMetrics struct {
	// Events counts dispatched events.
	Events int64
	// Queue tracks the pending-event queue depth (wheel plus
	// overflow), sampled at each dispatch; its high-water mark bounds
	// the queue's working set.
	Queue obs.Gauge
}

// Handler is a pre-allocated event callback. Fire runs when the
// event's time arrives, with t the (now current) scheduled time.
// Components that schedule at high frequency implement Handler on
// pooled objects, register each object once and schedule it by id, so
// the common schedule/fire cycle moves only integers.
type Handler interface {
	Fire(t Time)
}

// HandlerID names a registered Handler (>= 0) or, internally, a
// pending At closure (< 0).
type HandlerID int32

// slot is one wheel slot: the event's handler and the index of the
// next slot in its bucket, or of the next free slot (0 ends a list).
// Its time is its bucket's.
type slot struct {
	id   HandlerID
	next int32
}

// overEvent is one overflow-heap entry. seq orders overflow events due
// at the same time; wheel events need none (see pop).
type overEvent struct {
	at  Time
	seq uint64
	id  HandlerID
}

// before is the total order (time, insertion sequence); seq is unique,
// so two entries never compare equal.
func (a *overEvent) before(b *overEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// maxTime is the far-future sentinel Horizon returns for an empty
// queue: no pending event can bound a component's local progress.
const maxTime = Time(1<<63 - 1)

const (
	// wheelSize is the wheel's span in one-pclock buckets, a power of
	// two. Nearly every event of the paper's machine is due within 128
	// pclocks (a remote miss's hops, a bus or bank hold), so the
	// overflow heap sees a small fraction of a percent of events.
	wheelSize  = 256
	wheelMask  = wheelSize - 1
	wheelWords = wheelSize / 64
)

// bucket is the FIFO of one wheel time: head and tail index the slot
// pool. It is meaningful only while its occupancy bit is set.
type bucket struct{ head, tail int32 }

// Engine is a deterministic event-driven simulator. The zero value is
// ready to use.
type Engine struct {
	now Time
	// seq numbers overflow events in scheduling order.
	seq uint64
	// n counts pending events, wheel and overflow together.
	n int
	// horizon is the earliest pending time, maintained on every push
	// and pop, so the per-op causality check in the processor's fused
	// hot loop is a plain field read instead of a queue peek. Only
	// meaningful while n > 0.
	horizon Time

	wheel [wheelSize]bucket
	occ   [wheelWords]uint64 // bit i set: wheel[i] is non-empty
	// slots is the wheel's slot pool; slots[0] is never used, so index
	// 0 can end a list. free heads the list of vacated slots.
	slots []slot
	free  int32
	// over is the 4-ary min-heap of events due wheelSize or more
	// pclocks after the time they were scheduled.
	over []overEvent

	// handlers is the registry: HandlerID i fires handlers[i].
	handlers []Handler
	// fns holds pending At closures; HandlerID ^i names fns[i]. A
	// fired entry is cleared and its index pushed on fnFree.
	fns    []func()
	fnFree []int32

	// met, when non-nil, receives per-dispatch observability updates.
	met *EngineMetrics
}

// SetMetrics attaches the engine's observability instruments. The
// caller owns the struct (typically embedded in its machine, so it
// costs no allocation); nil detaches.
func (e *Engine) SetMetrics(m *EngineMetrics) { e.met = m }

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Register adds h to the engine's registry and returns the id that
// schedules it. Register each handler object once, when it is created;
// the id stays valid for the engine's lifetime.
func (e *Engine) Register(h Handler) HandlerID {
	e.handlers = append(e.handlers, h)
	return HandlerID(len(e.handlers) - 1)
}

// Schedule schedules the registered handler id to fire at absolute
// time t. It is the allocation-free counterpart of At. At and Schedule
// share one queue, so their events interleave in exact call order.
// Scheduling in the past is a programming error and panics: it would
// silently corrupt causality.
func (e *Engine) Schedule(t Time, id HandlerID) {
	if t < e.now {
		panic("sim: event scheduled in the past")
	}
	e.push(t, id)
}

// At schedules fn to run at absolute time t. It parks fn in a side
// table for the cold paths that need a closure; hot paths use
// Schedule.
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		panic("sim: event scheduled in the past")
	}
	var i int32
	if k := len(e.fnFree); k > 0 {
		i = e.fnFree[k-1]
		e.fnFree = e.fnFree[:k-1]
		e.fns[i] = fn
	} else {
		i = int32(len(e.fns))
		e.fns = append(e.fns, fn)
	}
	e.push(t, ^HandlerID(i))
}

// After schedules fn to run d pclocks from now.
func (e *Engine) After(d Time, fn func()) { e.At(e.now+d, fn) }

// push queues id at time t: at the tail of its wheel bucket when it is
// due within the wheel's span, in the overflow heap otherwise.
func (e *Engine) push(t Time, id HandlerID) {
	if e.n == 0 || t < e.horizon {
		e.horizon = t
	}
	e.n++
	if t-e.now >= wheelSize {
		e.seq++
		e.pushOverflow(overEvent{at: t, seq: e.seq, id: id})
		return
	}
	i := e.free
	if i != 0 {
		e.free = e.slots[i].next
		e.slots[i] = slot{id: id}
	} else {
		if len(e.slots) == 0 {
			e.slots = append(e.slots, slot{})
		}
		i = int32(len(e.slots))
		e.slots = append(e.slots, slot{id: id})
	}
	k := int(t) & wheelMask
	b := &e.wheel[k]
	if bit := uint64(1) << (k & 63); e.occ[k>>6]&bit == 0 {
		e.occ[k>>6] |= bit
		b.head = i
	} else {
		e.slots[b.tail].next = i
	}
	b.tail = i
}

// pop removes the earliest event, which is due at the horizon, and
// returns its id; the queue must not be empty. The bucket of the
// horizon time, when occupied, holds events at exactly that time
// (every wheel event lies in [now, now+wheelSize) and none precedes
// the horizon). An overflow event due at that time comes first: it
// was scheduled at some now <= t-wheelSize, and every wheel event due
// at t at some now > t-wheelSize, later since time never goes back.
func (e *Engine) pop() HandlerID {
	t := e.horizon
	e.n--
	var id HandlerID
	if len(e.over) > 0 && e.over[0].at == t {
		id = e.popOverflow()
	} else {
		k := int(t) & wheelMask
		b := &e.wheel[k]
		i := b.head
		s := &e.slots[i]
		id = s.id
		next := s.next
		s.next = e.free
		e.free = i
		if next != 0 {
			b.head = next
			return id // more events at t: the horizon stands
		}
		e.occ[k>>6] &^= uint64(1) << (k & 63)
	}
	e.horizon = maxTime
	if e.n > len(e.over) {
		e.horizon = e.nextWheel(t)
	}
	if len(e.over) > 0 && e.over[0].at < e.horizon {
		e.horizon = e.over[0].at
	}
	return id
}

// nextWheel returns the time of the earliest wheel event, which must
// exist and, like every wheel event, lie in [t, t+wheelSize): the first
// occupied bucket at or after t's, circularly.
func (e *Engine) nextWheel(t Time) Time {
	k := int(t) & wheelMask
	w := k >> 6
	if m := e.occ[w] >> (k & 63); m != 0 {
		return t + Time(bits.TrailingZeros64(m))
	}
	for j := 1; j <= wheelWords; j++ {
		w := (w + j) & (wheelWords - 1)
		if m := e.occ[w]; m != 0 {
			return t + Time((w<<6+bits.TrailingZeros64(m)-k)&wheelMask)
		}
	}
	panic("sim: wheel count and occupancy bitmap disagree")
}

// pushOverflow appends ev and sifts it up the 4-ary heap.
func (e *Engine) pushOverflow(ev overEvent) {
	q := append(e.over, ev)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !ev.before(&q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = ev
	e.over = q
}

// popOverflow removes the heap's minimum event and returns its id.
func (e *Engine) popOverflow() HandlerID {
	q := e.over
	id := q[0].id
	n := len(q) - 1
	last := q[n]
	q = q[:n]
	e.over = q

	// Sift last down from the root.
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		min := c
		for j := c + 1; j < end; j++ {
			if q[j].before(&q[min]) {
				min = j
			}
		}
		if !q[min].before(&last) {
			break
		}
		q[i] = q[min]
		i = min
	}
	if n > 0 {
		q[i] = last
	}
	return id
}

// Pending reports the number of queued events.
func (e *Engine) Pending() int { return e.n }

// NextTime returns the time of the earliest pending event and true, or
// (0, false) if the queue is empty. Components use this to bound how far
// they may batch-advance local state without violating causality.
func (e *Engine) NextTime() (Time, bool) {
	if e.n == 0 {
		return 0, false
	}
	return e.horizon, true
}

// Horizon is the branch-light form of NextTime for hot loops: the time
// of the earliest pending event, or a far-future sentinel when none is
// pending. A component may batch-advance its local clock up to and
// including this time without violating causality — an event scheduled
// AT the horizon (e.g. a pending invalidation) still fires before any
// local op strictly after it. The value is maintained on schedule and
// fire, so within one event callback it can be read once and reused for
// a whole run of ops as long as the callback schedules nothing.
func (e *Engine) Horizon() Time {
	if e.n == 0 {
		return maxTime
	}
	return e.horizon
}

// Step runs the earliest event. It reports whether an event ran.
func (e *Engine) Step() bool {
	if e.n == 0 {
		return false
	}
	if e.met != nil {
		e.met.Events++
		e.met.Queue.Set(int64(e.n))
	}
	t := e.horizon
	id := e.pop()
	e.now = t
	if id >= 0 {
		e.handlers[id].Fire(t)
		return true
	}
	// Clear the closure's entry before it runs, so the table keeps no
	// dead callback and fn may reuse the entry.
	i := int32(^id)
	fn := e.fns[i]
	e.fns[i] = nil
	e.fnFree = append(e.fnFree, i)
	fn()
	return true
}

// Run executes events until the queue drains or until limit events have
// run (limit <= 0 means no limit). It returns the number of events run.
func (e *Engine) Run(limit int64) int64 {
	var n int64
	for e.Step() {
		n++
		if limit > 0 && n >= limit {
			break
		}
	}
	return n
}

// Resource models a unit that serves one request at a time (a bus, a
// memory bank, an SLC array). Acquire returns the time service can start
// for a request arriving at t, and marks the resource busy for hold
// pclocks from that start.
type Resource struct {
	freeAt Time
	// Busy accumulates total busy time, for utilization stats.
	Busy Time
}

// Acquire reserves the resource for hold pclocks for a request arriving
// at t, returning the service start time.
func (r *Resource) Acquire(t Time, hold Time) Time {
	start := t
	if r.freeAt > start {
		start = r.freeAt
	}
	r.freeAt = start + hold
	r.Busy += hold
	return start
}

// FreeAt returns the time the resource next becomes free.
func (r *Resource) FreeAt() Time { return r.freeAt }

// Rand is a small, fast, deterministic PRNG (xorshift64*). Applications
// use it so that workloads are reproducible across runs and platforms.
type Rand struct{ s uint64 }

// NewRand returns a PRNG seeded with seed (0 is remapped to a fixed
// nonzero constant, since xorshift cannot hold state 0).
func NewRand(seed uint64) *Rand {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &Rand{s: seed}
}

// Uint64 returns the next pseudo-random value.
func (r *Rand) Uint64() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545f4914f6cdd1d
}

// Intn returns a value in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}
