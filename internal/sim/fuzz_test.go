package sim

import (
	"container/heap"
	"testing"
)

// FuzzEngineVsHeap decodes bytes into schedule and step operations and
// runs them through the engine and the container/heap reference side by
// side. Each step must fire the event the reference pops, and after
// every operation Pending and Horizon must match the reference. The
// delta encoding reaches now+0, both sides of the wheel's span and
// overflow times several revolutions out, and lets a firing event
// schedule a child from inside Fire, so wheel/overflow ties, bucket
// wrap-around and slot reuse all come up.
func FuzzEngineVsHeap(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		var e Engine
		ref := &refHeap{}
		var seq uint64
		id := 0
		fired := -1
		// child, when >= 0, is the delta the next fired event schedules
		// a child at from inside its Fire.
		child := Time(-1)

		var schedule func(at Time, pooled bool)
		fire := func(ev int) {
			fired = ev
			if child >= 0 {
				d := child
				child = -1
				schedule(e.Now()+d, ev%2 == 0)
			}
		}
		schedule = func(at Time, pooled bool) {
			id++
			ev := id
			seq++
			heap.Push(ref, refEvent{at: at, seq: seq, id: ev})
			if pooled {
				e.Schedule(at, e.Register(idHandler{f: func() { fire(ev) }}))
			} else {
				e.At(at, func() { fire(ev) })
			}
		}
		step := func() {
			want := -1
			if ref.Len() > 0 {
				want = heap.Pop(ref).(refEvent).id
			}
			fired = -1
			ran := e.Step()
			if ran != (want >= 0) || fired != want {
				t.Fatalf("step fired event %d (ran %v), reference pops %d", fired, ran, want)
			}
		}

		// Each pair of bytes is one operation: the low two bits of the
		// first pick it, the second is the delta code.
		for i := 0; i+1 < len(ops); i += 2 {
			op, code := ops[i]&3, ops[i+1]
			// Codes below 128 are short wheel deltas, 128-191 straddle
			// the wheel's span, and the rest reach ~4 revolutions out.
			d := Time(code)
			switch {
			case code >= 192:
				d = Time(code-192) * 16
			case code >= 128:
				d = wheelSize - 32 + Time(code-128)
			}
			switch op {
			case 0, 1:
				schedule(e.Now()+d, op == 1)
			case 2:
				step()
			case 3:
				child = d
				step()
				child = -1
			}
			if e.Pending() != ref.Len() {
				t.Fatalf("Pending = %d, reference holds %d", e.Pending(), ref.Len())
			}
			want := maxTime
			if ref.Len() > 0 {
				want = (*ref)[0].at
			}
			if e.Horizon() != want {
				t.Fatalf("Horizon = %d, reference min = %d", e.Horizon(), want)
			}
		}
		for ref.Len() > 0 {
			step()
		}
		if e.Step() {
			t.Fatal("engine fired an event after the reference drained")
		}
	})
}
