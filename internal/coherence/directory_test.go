package coherence

import (
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"

	"prefetchsim/internal/mem"
)

func TestEntryMaterializesUncached(t *testing.T) {
	d := New(16)
	e := d.Entry(42)
	if e.State != Uncached || e.SharerCount() != 0 {
		t.Fatalf("fresh entry = %v with %d sharers", e.State, e.SharerCount())
	}
	if _, ok := d.Peek(42); !ok {
		t.Fatal("Entry did not materialize")
	}
	if _, ok := d.Peek(43); ok {
		t.Fatal("Peek materialized an entry")
	}
}

func TestSharerBookkeeping(t *testing.T) {
	e := &Entry{}
	e.AddSharer(3)
	e.AddSharer(0)
	e.AddSharer(15)
	e.AddSharer(3) // idempotent
	if e.SharerCount() != 3 {
		t.Fatalf("SharerCount = %d, want 3", e.SharerCount())
	}
	got := e.Sharers()
	want := []int{0, 3, 15}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Sharers() = %v, want %v (ascending)", got, want)
		}
	}
	if !e.IsSharer(3) || e.IsSharer(7) {
		t.Fatal("IsSharer wrong")
	}
	e.RemoveSharer(3)
	if e.IsSharer(3) || e.SharerCount() != 2 {
		t.Fatal("RemoveSharer wrong")
	}
	e.ClearSharers()
	if e.SharerCount() != 0 || e.Sharers() != nil {
		t.Fatal("ClearSharers wrong")
	}
}

func TestSharerCountMatchesList(t *testing.T) {
	f := func(bits uint16) bool {
		e := &Entry{}
		for n := 0; n < 16; n++ {
			if bits&(1<<n) != 0 {
				e.AddSharer(n)
			}
		}
		return e.SharerCount() == len(e.Sharers())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// logWaiter is a Waiter that records its id when it runs, and
// optionally runs a check first.
type logWaiter struct {
	id    int
	log   *[]int
	check func()
}

func (w *logWaiter) Run() {
	if w.check != nil {
		w.check()
	}
	*w.log = append(*w.log, w.id)
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestAcquireReleaseSerializes(t *testing.T) {
	d := New(16)
	var order []int
	if !d.Acquire(7, &logWaiter{id: 1, log: &order}) {
		t.Fatal("first Acquire did not proceed")
	}
	for id := 2; id <= 4; id++ {
		if d.Acquire(7, &logWaiter{id: id, log: &order}) {
			t.Fatalf("Acquire %d proceeded on a busy entry", id)
		}
	}
	if len(order) != 0 {
		t.Fatalf("queued waiters ran early: %v", order)
	}
	for i := 0; i < 3; i++ {
		d.Release(7) // runs the next waiter
	}
	d.Release(7) // frees
	if e, _ := d.Peek(7); e.Busy() {
		t.Fatal("entry still busy after final release")
	}
	if !sameInts(order, []int{2, 3, 4}) {
		t.Fatalf("waiters ran in order %v, want FIFO [2 3 4]", order)
	}
	if d.waiters.Len() != 0 {
		t.Fatalf("%d waiter queues left after the last release", d.waiters.Len())
	}
}

func TestReleaseKeepsEntryBusyForWaiter(t *testing.T) {
	d := New(16)
	var order []int
	e := d.Entry(3)
	d.Acquire(3, &logWaiter{log: &order})
	busyDuringWaiter := false
	d.Acquire(3, &logWaiter{log: &order, check: func() { busyDuringWaiter = e.Busy() }})
	d.Release(3)
	if !busyDuringWaiter || len(order) != 1 {
		t.Fatal("waiter ran with entry not busy")
	}
}

// TestWaitQueuesArePerBlock contends two blocks at once: each keeps its
// own FIFO, and releasing one never runs the other's waiters.
func TestWaitQueuesArePerBlock(t *testing.T) {
	d := New(16)
	var a, b []int
	const x, y = 0, 129 // block 0 and a block on another page
	d.Acquire(x, &logWaiter{log: &a})
	d.Acquire(y, &logWaiter{log: &b})
	for id := 1; id <= 3; id++ {
		d.Acquire(x, &logWaiter{id: id, log: &a})
		d.Acquire(y, &logWaiter{id: 10 + id, log: &b})
	}
	d.Release(y)
	d.Release(y)
	if len(a) != 0 || !sameInts(b, []int{11, 12}) {
		t.Fatalf("after two releases of y: x ran %v, y ran %v", a, b)
	}
	for i := 0; i < 4; i++ {
		d.Release(x)
	}
	d.Release(y)
	d.Release(y)
	if !sameInts(a, []int{1, 2, 3}) || !sameInts(b, []int{11, 12, 13}) {
		t.Fatalf("x ran %v, y ran %v", a, b)
	}
	ex, _ := d.Peek(x)
	ey, _ := d.Peek(y)
	if ex.Busy() || ey.Busy() || d.waiters.Len() != 0 {
		t.Fatal("entries busy or queues left after all releases")
	}
}

// TestQueueEmptiedAndRefilled drains a block's queue to the last
// waiter, queues on it again while the entry is still busy, and then
// contends it afresh after it went free.
func TestQueueEmptiedAndRefilled(t *testing.T) {
	d := New(16)
	var order []int
	d.Acquire(5, &logWaiter{log: &order})
	d.Acquire(5, &logWaiter{id: 1, log: &order})
	d.Release(5) // runs 1; the queue is now empty but the entry busy
	if d.waiters.Len() != 0 {
		t.Fatal("an emptied queue was kept")
	}
	d.Acquire(5, &logWaiter{id: 2, log: &order})
	d.Acquire(5, &logWaiter{id: 3, log: &order})
	d.Release(5)
	d.Release(5)
	d.Release(5) // free
	if e, _ := d.Peek(5); e.Busy() {
		t.Fatal("entry busy after the refilled queue drained")
	}
	if !d.Acquire(5, &logWaiter{log: &order}) {
		t.Fatal("Acquire of a freed entry did not proceed")
	}
	d.Acquire(5, &logWaiter{id: 4, log: &order})
	d.Release(5)
	d.Release(5)
	if !sameInts(order, []int{1, 2, 3, 4}) {
		t.Fatalf("waiters ran %v, want [1 2 3 4]", order)
	}
}

// TestContendedCycleAllocatesNothing: once the directory has queued as
// many waiters as a cycle needs, contending blocks again reuses the
// drained queues and allocates nothing.
func TestContendedCycleAllocatesNothing(t *testing.T) {
	d := New(16)
	order := make([]int, 0, 16)
	ws := []Waiter{&logWaiter{id: 1, log: &order}, &logWaiter{id: 2, log: &order}, &logWaiter{id: 3, log: &order}}
	cycle := func() {
		order = order[:0]
		for _, b := range []mem.Block{4, 300} {
			for _, w := range ws {
				d.Acquire(b, w)
			}
		}
		for i := 0; i < len(ws); i++ {
			d.Release(4)
			d.Release(300)
		}
	}
	cycle()
	if a := testing.AllocsPerRun(100, cycle); a != 0 {
		t.Fatalf("a contended acquire/release cycle allocated %.1f times, want 0", a)
	}
	if !sameInts(order, []int{2, 2, 3, 3}) {
		t.Fatalf("waiters ran %v", order)
	}
}

func TestReleaseNonBusyPanics(t *testing.T) {
	d := New(16)
	d.Entry(9)
	for _, b := range []mem.Block{9, 10} { // an idle entry, an absent one
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Release(%d) of a free entry did not panic", b)
				}
			}()
			d.Release(b)
		}()
	}
}

// TestEntryIsSmallAndPointerFree guards the directory's footprint: an
// Entry is at most 16 bytes and holds no pointer, so its pages are
// never scanned by the garbage collector.
func TestEntryIsSmallAndPointerFree(t *testing.T) {
	if n := unsafe.Sizeof(Entry{}); n > 16 {
		t.Errorf("Entry is %d bytes, want <= 16", n)
	}
	var walk func(reflect.Type, string)
	walk = func(ty reflect.Type, path string) {
		switch ty.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
			reflect.Chan, reflect.Func, reflect.Interface, reflect.String:
			t.Errorf("Entry field %s has pointer kind %v", path, ty.Kind())
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				f := ty.Field(i)
				walk(f.Type, path+"."+f.Name)
			}
		case reflect.Array:
			walk(ty.Elem(), path+"[]")
		}
	}
	walk(reflect.TypeOf(Entry{}), "Entry")
}

func TestNewValidatesNodeCount(t *testing.T) {
	for _, bad := range []int{0, -1, 65} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", bad)
				}
			}()
			New(bad)
		}()
	}
}

func TestEntryStateString(t *testing.T) {
	if Uncached.String() != "Uncached" || SharedClean.String() != "Shared" ||
		Dirty.String() != "Dirty" || EntryState(9).String() != "?" {
		t.Fatal("EntryState.String broken")
	}
}
