package sim

import "testing"

// benchHandler is a pooled no-capture handler: the steady-state
// schedule/fire cycle through it must not allocate.
type benchHandler struct {
	e     *Engine
	id    HandlerID
	left  int
	fired int
}

func (h *benchHandler) Fire(t Time) {
	h.fired++
	if h.left > 0 {
		h.left--
		h.e.Schedule(t+3, h.id)
	}
}

// BenchmarkEngineSchedule measures the pooled schedule/fire cycle with
// a realistic standing queue depth (a machine keeps tens of events in
// flight). Steady state must report 0 allocs/op.
func BenchmarkEngineSchedule(b *testing.B) {
	var e Engine
	const depth = 64
	handlers := make([]benchHandler, depth)
	for i := range handlers {
		handlers[i] = benchHandler{e: &e, left: b.N / depth}
		handlers[i].id = e.Register(&handlers[i])
		e.Schedule(Time(i), handlers[i].id)
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run(int64(b.N))
}

// BenchmarkEngineScheduleClosure is the same cycle through the legacy
// At path, for comparison in the bench trajectory.
func BenchmarkEngineScheduleClosure(b *testing.B) {
	var e Engine
	const depth = 64
	var fire func()
	left := b.N
	fire = func() {
		if left > 0 {
			left--
			e.After(3, fire)
		}
	}
	for i := 0; i < depth; i++ {
		e.At(Time(i), fire)
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run(int64(b.N))
}

// mixedDeltas is a shuffled table of scheduling deltas with the mix a
// 16-processor Figure-6 pass (mp3d, cholesky, ocean) schedules: per
// 4096 events, 32 at 1 pclock, 1852 at 2-3, 743 at 4-7, 335 at 8-15,
// 784 at 16-31, 334 at 32-63, 11 at 64-255 and 5 at 256-2047, the
// last beyond the wheel's span.
var mixedDeltas = func() [4096]Time {
	var t [4096]Time
	rng := NewRand(6)
	i := 0
	for _, r := range []struct {
		n      int
		lo, hi Time
	}{
		{32, 1, 1}, {1852, 2, 3}, {743, 4, 7}, {335, 8, 15},
		{784, 16, 31}, {334, 32, 63}, {11, 64, 255}, {5, 256, 2047},
	} {
		for j := 0; j < r.n; j++ {
			t[i] = r.lo + Time(rng.Intn(int(r.hi-r.lo+1)))
			i++
		}
	}
	for i := len(t) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		t[i], t[j] = t[j], t[i]
	}
	return t
}()

// mixedHandler reschedules itself with the next delta of mixedDeltas.
type mixedHandler struct {
	e    *Engine
	id   HandlerID
	next *int
	left *int
}

func (h *mixedHandler) Fire(t Time) {
	if *h.left > 0 {
		*h.left--
		*h.next++
		h.e.Schedule(t+mixedDeltas[*h.next&(len(mixedDeltas)-1)], h.id)
	}
}

// BenchmarkEngineScheduleMixed is the pooled cycle at Figure 6's mean
// standing queue depth (28) with its delta mix, so the wheel, bucket
// wrap-around and the overflow heap all run. Steady state must report
// 0 allocs/op.
func BenchmarkEngineScheduleMixed(b *testing.B) {
	var e Engine
	const depth = 28
	next, left := 0, b.N
	handlers := make([]mixedHandler, depth)
	for i := range handlers {
		handlers[i] = mixedHandler{e: &e, next: &next, left: &left}
		handlers[i].id = e.Register(&handlers[i])
		e.Schedule(mixedDeltas[i], handlers[i].id)
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run(int64(b.N))
}
