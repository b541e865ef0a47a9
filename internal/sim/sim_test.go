package sim

import (
	"container/heap"
	"testing"
	"testing/quick"
)

func TestEngineOrdersByTime(t *testing.T) {
	var e Engine
	var got []int
	e.At(30, func() { got = append(got, 3) })
	e.At(10, func() { got = append(got, 1) })
	e.At(20, func() { got = append(got, 2) })
	e.Run(0)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events ran out of order: %v", got)
	}
	if e.Now() != 30 {
		t.Fatalf("Now() = %d, want 30", e.Now())
	}
}

func TestEngineTieBreaksByInsertion(t *testing.T) {
	var e Engine
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	e.Run(0)
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events out of insertion order at %d: %v", i, got[:i+1])
		}
	}
}

func TestEngineAfterIsRelative(t *testing.T) {
	var e Engine
	var at Time
	e.At(100, func() {
		e.After(7, func() { at = e.Now() })
	})
	e.Run(0)
	if at != 107 {
		t.Fatalf("After fired at %d, want 107", at)
	}
}

func TestEnginePanicsOnPastEvent(t *testing.T) {
	var e Engine
	e.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(5, func() {})
	})
	e.Run(0)
}

func TestEngineNextTime(t *testing.T) {
	var e Engine
	if _, ok := e.NextTime(); ok {
		t.Fatal("NextTime on empty queue reported an event")
	}
	e.At(42, func() {})
	if next, ok := e.NextTime(); !ok || next != 42 {
		t.Fatalf("NextTime = %d,%v want 42,true", next, ok)
	}
}

func TestEngineRunLimit(t *testing.T) {
	var e Engine
	n := 0
	for i := 0; i < 10; i++ {
		e.At(Time(i), func() { n++ })
	}
	if ran := e.Run(4); ran != 4 || n != 4 {
		t.Fatalf("Run(4) ran %d events (n=%d), want 4", ran, n)
	}
	if e.Pending() != 6 {
		t.Fatalf("Pending = %d, want 6", e.Pending())
	}
}

func TestEngineEventsScheduledDuringRun(t *testing.T) {
	var e Engine
	depth := 0
	var recurse func()
	recurse = func() {
		if depth < 5 {
			depth++
			e.After(1, recurse)
		}
	}
	e.At(0, recurse)
	e.Run(0)
	if depth != 5 {
		t.Fatalf("depth = %d, want 5", depth)
	}
	if e.Now() != 5 {
		t.Fatalf("Now = %d, want 5", e.Now())
	}
}

func TestResourceSerializes(t *testing.T) {
	var r Resource
	if s := r.Acquire(10, 3); s != 10 {
		t.Fatalf("first acquire start = %d, want 10", s)
	}
	if s := r.Acquire(10, 3); s != 13 {
		t.Fatalf("contended acquire start = %d, want 13", s)
	}
	if s := r.Acquire(100, 3); s != 100 {
		t.Fatalf("idle acquire start = %d, want 100", s)
	}
	if r.Busy != 9 {
		t.Fatalf("Busy = %d, want 9", r.Busy)
	}
}

func TestResourceStartNeverBeforeArrival(t *testing.T) {
	f := func(arrivals []uint16) bool {
		var r Resource
		var prevEnd Time
		for _, a := range arrivals {
			at := Time(a)
			start := r.Acquire(at, 2)
			if start < at {
				return false
			}
			if start < prevEnd {
				return false // overlapping service
			}
			prevEnd = start + 2
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRandDeterministic(t *testing.T) {
	a, b := NewRand(12345), NewRand(12345)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed PRNGs diverged")
		}
	}
}

func TestRandZeroSeedUsable(t *testing.T) {
	r := NewRand(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 90 {
		t.Fatalf("zero-seeded PRNG produced only %d distinct values in 100 draws", len(seen))
	}
}

func TestRandIntnInRange(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 10000; i++ {
		v := r.Intn(13)
		if v < 0 || v >= 13 {
			t.Fatalf("Intn(13) = %d out of range", v)
		}
	}
}

func TestRandFloat64InRange(t *testing.T) {
	r := NewRand(9)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %g out of range", v)
		}
	}
}

func TestRandIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	NewRand(1).Intn(0)
}

// refHeap is a container/heap reference implementation of the event
// queue, kept test-only: the production wheel-plus-overflow queue must
// pop in exactly the order this one does for any operation sequence.
type refEvent struct {
	at  Time
	seq uint64
	id  int
}

type refHeap []refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// idHandler adapts a func to Handler for tests.
type idHandler struct{ f func() }

func (h idHandler) Fire(Time) { h.f() }

// mixedDelta draws a scheduling delta that exercises every queue path:
// now+0, short wheel deltas, both sides of the wheel's span, and
// overflow deltas several wheel revolutions out.
func mixedDelta(rng *Rand) Time {
	switch rng.Intn(6) {
	case 0:
		return 0
	case 1, 2:
		return Time(rng.Intn(64))
	case 3:
		return wheelSize - 2 + Time(rng.Intn(4))
	case 4:
		return Time(rng.Intn(wheelSize))
	default:
		return Time(rng.Intn(5 * wheelSize))
	}
}

// TestEngineMatchesContainerHeap drives the engine with a randomized
// schedule — duplicate times, deltas spanning several wheel
// revolutions, events scheduling further events (at now+0 among
// others) from inside Fire, wheel events landing on the exact time of
// an overflow event, and a mix of the closure (At) and pooled-handler
// (Schedule) forms — and asserts the execution order matches a
// container/heap reference fed the same (time, seq) pairs. Because an
// engine may never schedule into the past, its execution order must
// equal the global (time, seq) sort of every event ever scheduled,
// which is exactly what draining the reference heap at the end yields.
func TestEngineMatchesContainerHeap(t *testing.T) {
	rng := NewRand(20260806)
	var ties, zeroInFire, overflowed int
	for trial := 0; trial < 25; trial++ {
		var e Engine
		ref := &refHeap{}
		var got []int
		id := 0
		var seq uint64
		// farTimes remembers overflow times so later wheel events can
		// be scheduled at exactly the same time.
		var farTimes []Time
		extra := 400

		var schedule func(at Time)
		fire := func(ev int) {
			got = append(got, ev)
			for extra > 0 && rng.Intn(3) == 0 {
				extra--
				if rng.Intn(4) == 0 && len(farTimes) > 0 {
					at := farTimes[rng.Intn(len(farTimes))]
					if at >= e.Now() && at-e.Now() < wheelSize {
						ties++
						schedule(at)
						continue
					}
				}
				d := mixedDelta(rng)
				if d == 0 {
					zeroInFire++
				}
				schedule(e.Now() + d)
			}
		}
		schedule = func(at Time) {
			id++
			ev := id
			seq++
			heap.Push(ref, refEvent{at: at, seq: seq, id: ev})
			if at-e.Now() >= wheelSize {
				overflowed++
				farTimes = append(farTimes, at)
			}
			if ev%2 == 0 {
				e.At(at, func() { fire(ev) })
			} else {
				e.Schedule(at, e.Register(idHandler{f: func() { fire(ev) }}))
			}
		}

		for i := 0; i < 300; i++ {
			schedule(Time(rng.Intn(3 * wheelSize)))
		}
		for e.Step() {
			// Occasionally schedule more between events too.
			if extra > 0 && rng.Intn(5) == 0 {
				extra--
				schedule(e.Now() + mixedDelta(rng))
			}
		}

		var want []int
		for ref.Len() > 0 {
			want = append(want, heap.Pop(ref).(refEvent).id)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: engine ran %d events, reference ordered %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: pop order diverges from container/heap at index %d: got %d, want %d",
					trial, i, got[i], want[i])
			}
		}
	}
	if ties == 0 || zeroInFire == 0 || overflowed == 0 {
		t.Fatalf("schedule missed a queue path: %d wheel/overflow ties, %d now+0 events from Fire, %d overflow events",
			ties, zeroInFire, overflowed)
	}
}

// queued is one pending event as the engine stores it.
type queued struct {
	at Time
	id HandlerID
}

// queueEvents lists every pending event, wheel buckets then overflow,
// by walking the engine's storage directly. A wheel slot's time is
// implied by its bucket: the one time in [now, now+wheelSize) that
// maps to it.
func queueEvents(e *Engine) []queued {
	var evs []queued
	for k := range e.wheel {
		if e.occ[k>>6]&(1<<(k&63)) == 0 {
			continue
		}
		at := e.now + Time((k-int(e.now))&wheelMask)
		for i := e.wheel[k].head; i != 0; i = e.slots[i].next {
			evs = append(evs, queued{at: at, id: e.slots[i].id})
		}
	}
	for _, ev := range e.over {
		evs = append(evs, queued{at: ev.at, id: ev.id})
	}
	return evs
}

// checkReleased fails if a wheel slot leaked out of both the queue and
// the free list, or if the closure table retains a callback that is
// not pending: every freed entry must be nil, and every pending At
// event must name a live one.
func checkReleased(t *testing.T, e *Engine, step string) {
	t.Helper()
	free := map[int32]bool{0: true}
	for i := e.free; i != 0; i = e.slots[i].next {
		free[i] = true
	}
	evs := queueEvents(e)
	inWheel := len(evs) - len(e.over)
	if len(e.slots) > 0 && len(free)+inWheel != len(e.slots) {
		t.Fatalf("%s: %d slots, %d free, %d pending in the wheel: a slot leaked",
			step, len(e.slots), len(free), inWheel)
	}
	for _, i := range e.fnFree {
		if e.fns[i] != nil {
			t.Fatalf("%s: freed closure entry %d retains a callback", step, i)
		}
	}
	pendingAt := 0
	for _, ev := range evs {
		if ev.id < 0 {
			pendingAt++
			if e.fns[^ev.id] == nil {
				t.Fatalf("%s: pending At event names cleared entry %d", step, ^ev.id)
			}
		}
	}
	if live := len(e.fns) - len(e.fnFree); live != pendingAt {
		t.Fatalf("%s: %d closure entries in use, %d At events pending", step, live, pendingAt)
	}
}

// TestEnginePopReleasesSlot pins the fix for the old eventHeap.Pop
// memory retention: after an event runs, its wheel slot returns to the
// free list and its closure, if any, leaves the side table, mid-run
// and after the queue drains.
func TestEnginePopReleasesSlot(t *testing.T) {
	var e Engine
	rng := NewRand(7)
	id := e.Register(idHandler{f: func() {}})
	for i := 0; i < 64; i++ {
		e.At(mixedDelta(rng), func() {})
		e.Schedule(mixedDelta(rng), id)
	}
	if len(e.over) == 0 || len(e.slots) == 0 {
		t.Fatalf("schedule filled %d wheel slots and %d overflow slots, want both", len(e.slots), len(e.over))
	}
	for e.Step() {
		checkReleased(t, &e, "mid-run")
	}
	checkReleased(t, &e, "drained")
	if len(e.fnFree) != len(e.fns) {
		t.Fatalf("drained: %d of %d closure entries free", len(e.fnFree), len(e.fns))
	}
}

// TestAtReleasesClosure: a fired At closure's table entry is cleared
// before it runs and reused by the next At, so the table never grows
// past the peak number of pending closures.
func TestAtReleasesClosure(t *testing.T) {
	var e Engine
	rng := NewRand(11)
	peak, ran := 0, 0
	var fire func()
	fire = func() {
		ran++
		for _, i := range e.fnFree {
			if e.fns[i] != nil {
				t.Fatalf("fired closure's entry %d still set", i)
			}
		}
		if ran < 2000 && rng.Intn(4) > 0 {
			e.After(mixedDelta(rng), fire)
		}
		if ran < 2000 && rng.Intn(4) == 0 {
			e.After(mixedDelta(rng), fire)
		}
		if p := e.Pending(); p > peak {
			peak = p
		}
	}
	for i := 0; i < 20; i++ {
		e.At(mixedDelta(rng), fire)
	}
	peak = e.Pending()
	e.Run(0)
	if ran < 100 {
		t.Fatalf("only %d closures ran", ran)
	}
	if len(e.fns) > peak {
		t.Fatalf("closure table grew to %d entries, peak pending closures %d", len(e.fns), peak)
	}
	for i, fn := range e.fns {
		if fn != nil {
			t.Fatalf("drained engine retains closure entry %d", i)
		}
	}
}

// TestOverflowFirstOnTie: events due at T that went to the overflow
// heap fire before wheel events due at T scheduled later, in (time,
// seq) order, including wheel events scheduled at now+0 from inside
// Fire once the engine has reached T.
func TestOverflowFirstOnTie(t *testing.T) {
	var e Engine
	const T = 3 * wheelSize
	var got []string
	mark := func(s string) func() { return func() { got = append(got, s) } }
	e.At(T, mark("over1"))
	e.Schedule(T, e.Register(idHandler{f: mark("over2")}))
	e.At(T, func() {
		got = append(got, "over3")
		e.At(e.Now(), mark("zero1"))
		e.Schedule(e.Now(), e.Register(idHandler{f: mark("zero2")}))
	})
	if len(e.over) != 3 {
		t.Fatalf("%d events in the overflow heap, want 3", len(e.over))
	}
	// Advance into the wheel's range of T and schedule wheel events
	// due at T.
	e.At(T-wheelSize+1, func() {
		e.At(T, mark("wheel1"))
		e.Schedule(T, e.Register(idHandler{f: mark("wheel2")}))
		if len(e.over) != 3 {
			t.Errorf("wheel events at T went to the overflow heap")
		}
	})
	e.Run(0)
	want := []string{"over1", "over2", "over3", "wheel1", "wheel2", "zero1", "zero2"}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}

// allocHandler reschedules itself a few pclocks ahead.
type allocHandler struct {
	e  *Engine
	id HandlerID
}

func (h *allocHandler) Fire(t Time) { h.e.Schedule(t+3, h.id) }

// TestEngineSteadyStateAllocs: once the slot pool, the closure table
// and its free list have grown, the Schedule/fire and At/fire cycles
// allocate nothing. CI runs no benchmarks, so this plain test guards
// the 0 allocs/op the engine benchmarks report.
func TestEngineSteadyStateAllocs(t *testing.T) {
	var e Engine
	hs := make([]allocHandler, 64)
	for i := range hs {
		hs[i] = allocHandler{e: &e}
		hs[i].id = e.Register(&hs[i])
		e.Schedule(Time(i), hs[i].id)
	}
	e.Run(1000)
	if a := testing.AllocsPerRun(100, func() { e.Run(64) }); a != 0 {
		t.Errorf("Schedule/fire cycle: %v allocs per 64 events, want 0", a)
	}

	var c Engine
	var fire func()
	fire = func() { c.After(3, fire) }
	for i := 0; i < 64; i++ {
		c.At(Time(i), fire)
	}
	c.Run(1000)
	if a := testing.AllocsPerRun(100, func() { c.Run(64) }); a != 0 {
		t.Errorf("At/fire cycle: %v allocs per 64 events, want 0", a)
	}
}

// TestScheduleHandlerInterleavesWithAt verifies At and Schedule share
// one queue: same-time events fire in call order regardless of which
// form scheduled them.
func TestScheduleHandlerInterleavesWithAt(t *testing.T) {
	var e Engine
	var got []int
	for i := 0; i < 50; i++ {
		i := i
		if i%3 == 0 {
			e.Schedule(7, e.Register(idHandler{f: func() { got = append(got, i) }}))
		} else {
			e.At(7, func() { got = append(got, i) })
		}
	}
	e.Run(0)
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time At/Schedule events out of call order: %v", got[:i+1])
		}
	}
}

// TestSchedulePanicsOnPastEvent mirrors the At guard for the pooled
// form.
func TestSchedulePanicsOnPastEvent(t *testing.T) {
	var e Engine
	e.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("Schedule in the past did not panic")
			}
		}()
		e.Schedule(5, e.Register(idHandler{f: func() {}}))
	})
	e.Run(0)
}

// TestEngineHorizonTracksQueueMin drives a random schedule/fire
// sequence over wheel and overflow events and asserts the cached
// horizon equals the true queue minimum, and Pending the true count,
// after every mutation — the invariant the machine's fused batch loop
// relies on instead of peeking the queue per op — and that an empty
// queue reports the far-future sentinel.
func TestEngineHorizonTracksQueueMin(t *testing.T) {
	check := func(e *Engine, step string) {
		t.Helper()
		evs := queueEvents(e)
		if e.Pending() != len(evs) {
			t.Fatalf("%s: Pending = %d, queue holds %d", step, e.Pending(), len(evs))
		}
		if len(evs) == 0 {
			if e.Horizon() != maxTime {
				t.Fatalf("%s: empty queue, Horizon = %d, want maxTime", step, e.Horizon())
			}
			if _, ok := e.NextTime(); ok {
				t.Fatalf("%s: empty queue, NextTime reports an event", step)
			}
			return
		}
		want := maxTime
		for _, ev := range evs {
			if ev.at < want {
				want = ev.at
			}
		}
		if e.Horizon() != want {
			t.Fatalf("%s: Horizon = %d, queue min = %d", step, e.Horizon(), want)
		}
		if next, ok := e.NextTime(); !ok || next != want {
			t.Fatalf("%s: NextTime = (%d, %v), queue min = %d", step, next, ok, want)
		}
	}

	rng := NewRand(42)
	for trial := 0; trial < 20; trial++ {
		var e Engine
		check(&e, "fresh engine")
		for i := 0; i < 400; i++ {
			switch {
			case e.Pending() == 0 || rng.Intn(3) > 0:
				e.At(e.Now()+mixedDelta(rng), func() {})
				check(&e, "after schedule")
			default:
				e.Step()
				check(&e, "after fire")
			}
		}
		for e.Step() {
			check(&e, "while draining")
		}
		check(&e, "drained")
	}
}
