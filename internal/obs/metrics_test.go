package obs

import (
	"math"
	"reflect"
	"sync"
	"testing"
)

// TestCounterGauge: a bound count snapshots its value at the time of
// the snapshot, not of the bind; a gauge keeps its high-water mark.
func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	var c int64
	r.BindCounter("c", &c)
	c++
	c += 41
	if got, _ := r.Snapshot().Get("c"); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}

	var g Gauge
	g.Set(5)
	g.Add(3)
	g.Set(2)
	if g.Value() != 2 {
		t.Fatalf("gauge value = %d, want 2", g.Value())
	}
	if g.Max() != 8 {
		t.Fatalf("gauge max = %d, want 8", g.Max())
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	cases := []struct {
		v      int64
		bucket int
	}{
		{0, 0}, {-7, 0},
		{1, 1},
		{2, 2}, {3, 2},
		{4, 3}, {7, 3},
		{1 << 18, 19}, // beyond the last bound: absorbed by the overflow bucket
		{math.MaxInt64, 19},
	}
	var sum int64
	for _, c := range cases {
		h.Observe(c.v)
		sum += c.v
	}
	if h.Count() != int64(len(cases)) || h.Sum() != sum {
		t.Fatalf("count=%d sum=%d, want %d/%d", h.Count(), h.Sum(), len(cases), sum)
	}
	want := map[int]int64{0: 2, 1: 1, 2: 2, 3: 2, 19: 2}
	for i := 0; i < HistBuckets; i++ {
		if h.Bucket(i) != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, h.Bucket(i), want[i])
		}
	}
	// Every bucketed value is below its bucket's (exclusive) bound; the
	// overflow bucket is unbounded.
	for _, c := range cases {
		if c.bucket < HistBuckets-1 && c.v >= BucketBound(c.bucket) {
			t.Errorf("value %d not below bound %d of bucket %d", c.v, BucketBound(c.bucket), c.bucket)
		}
	}
}

func TestRegistrySnapshot(t *testing.T) {
	r := NewRegistry()
	var (
		cold, events int64 = 7, 100
		g            Gauge
		h            Histogram
	)
	r.BindCounter("node3.miss.cold", &cold)
	r.BindCounter("engine.events", &events)
	r.BindGauge("node3.slwb", &g)
	r.BindHistogram("node3.lat", &h)
	g.Set(4)
	g.Set(1)
	h.Observe(3)
	h.Observe(300)

	s := r.Snapshot()
	for i := 1; i < len(s); i++ {
		if s[i-1].Name >= s[i].Name {
			t.Fatalf("snapshot not strictly sorted: %q >= %q", s[i-1].Name, s[i].Name)
		}
	}
	want := map[string]int64{
		"engine.events":   100,
		"node3.miss.cold": 7,
		"node3.slwb":      1,
		"node3.slwb.max":  4,
		"node3.lat.count": 2,
		"node3.lat.sum":   303,
		"node3.lat.lt4":   1,
		"node3.lat.lt512": 1,
	}
	if got := s.Map(); !reflect.DeepEqual(got, want) {
		t.Fatalf("snapshot map = %v, want %v", got, want)
	}
	if v, ok := s.Get("node3.miss.cold"); !ok || v != 7 {
		t.Fatalf("Get(node3.miss.cold) = %d,%v", v, ok)
	}
	if _, ok := s.Get("nope"); ok {
		t.Fatal("Get(nope) found a sample")
	}
}

func TestSnapshotTotals(t *testing.T) {
	s := Snapshot{
		{"engine.events", 10},
		{"node0.miss.cold", 3},
		{"node1.miss.cold", 4},
		{"node12.miss.cold", 5},
		{"nodex.odd", 1}, // no digits: passes through
		{"node7", 2},     // no dotted rest: passes through
	}
	want := map[string]int64{
		"engine.events":  10,
		"node.miss.cold": 12,
		"nodex.odd":      1,
		"node7":          2,
	}
	if got := s.Totals(); !reflect.DeepEqual(got, want) {
		t.Fatalf("totals = %v, want %v", got, want)
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate bind did not panic")
		}
	}()
	r := NewRegistry()
	var a int64
	r.BindCounter("a", &a)
	r.BindCounter("a", &a)
}

// TestRegistryConcurrentBindSnapshot exercises the registry's own
// concurrency contract: instruments finish mutating before they are
// bound (binding publishes them via the registry mutex), and bind and
// snapshot interleave freely across goroutines. The parallel-runner
// integration lives in the root package's observability tests.
func TestRegistryConcurrentBindSnapshot(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				c := new(int64)
				*c = int64(i)
				r.BindCounter(string(rune('a'+w))+"."+string(rune('a'+i%26))+string(rune('0'+i/26)), c)
				s := r.Snapshot()
				if len(s) == 0 {
					t.Error("empty snapshot after bind")
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Len(); got != 8*50 {
		t.Fatalf("registered %d instruments, want %d", got, 8*50)
	}
}
