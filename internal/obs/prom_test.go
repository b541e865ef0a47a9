package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestPromName(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct{ in, want string }{
		{"jobs.done", "jobs_done"},
		{"node3.miss.cold", "node3_miss_cold"},
		{"already_fine", "already_fine"},
		{"with:colon", "with:colon"},
		{"9leading", "_9leading"},
		{"sweep/rows-sent", "sweep_rows_sent"},
		{"", "_"},
		{"ünïcode", "__n__code"}, // multi-byte runes sanitize per byte
	} {
		if got := PromName(tc.in); got != tc.want {
			t.Errorf("PromName(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// TestWritePrometheusGolden pins the exposition byte for byte: HELP and
// TYPE lines, the counter _total convention, gauge + high-water pairs,
// histogram cumulative buckets with exact integer bounds and +Inf, and
// name sanitization — for both the plain and the atomic instrument
// variants.
func TestWritePrometheusGolden(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	var (
		done, rows int64 = 7, 9
		g          Gauge
		h          Histogram
		ah         AtomicHistogram
	)
	r.BindCounter("jobs.done", &done)
	r.AtomicCounter("resultcache.hits").Add(3)
	r.BindCounter("rows.total", &rows) // already suffixed: not doubled
	r.BindGauge("queue.depth", &g)
	g.Set(5)
	g.Set(2)
	ag := r.AtomicGauge("slots.busy")
	ag.Add(4)
	ag.Add(-4)
	r.BindHistogram("wait.us", &h)
	for _, v := range []int64{0, 1, 1, 3, 1 << 30} { // bucket 0, 1 (x2), 2, last
		h.Observe(v)
	}
	r.BindAtomicHistogram("run.us", &ah)
	ah.Observe(2)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	got := b.String()

	want := `# HELP jobs_done_total instrument "jobs.done"
# TYPE jobs_done_total counter
jobs_done_total 7
# HELP queue_depth instrument "queue.depth"
# TYPE queue_depth gauge
queue_depth 2
# HELP queue_depth_max instrument "queue.depth.max"
# TYPE queue_depth_max gauge
queue_depth_max 5
# HELP resultcache_hits_total instrument "resultcache.hits"
# TYPE resultcache_hits_total counter
resultcache_hits_total 3
# HELP rows_total instrument "rows.total"
# TYPE rows_total counter
rows_total 9
# HELP run_us instrument "run.us"
# TYPE run_us histogram
run_us_bucket{le="0"} 0
run_us_bucket{le="1"} 0
run_us_bucket{le="3"} 1
`
	if !strings.HasPrefix(got, want) {
		t.Fatalf("exposition prefix mismatch:\ngot:\n%s\nwant prefix:\n%s", got, want)
	}

	// The full run.us histogram: the single observation (value 2) stays
	// cumulative through every later bucket, sum and count close it out.
	for _, line := range []string{
		`run_us_bucket{le="7"} 1`,
		`run_us_bucket{le="262143"} 1`,
		`run_us_bucket{le="+Inf"} 1`,
		"run_us_sum 2",
		"run_us_count 1",
		// slots.busy returned to zero but the high-water mark holds.
		"slots_busy 0",
		"slots_busy_max 4",
		// wait.us: 0 and three small values cumulate, the 2^30 outlier
		// only lands in +Inf.
		`wait_us_bucket{le="0"} 1`,
		`wait_us_bucket{le="1"} 3`,
		`wait_us_bucket{le="3"} 4`,
		`wait_us_bucket{le="262143"} 4`,
		`wait_us_bucket{le="+Inf"} 5`,
		"wait_us_sum 1073741829",
		"wait_us_count 5",
	} {
		if !strings.Contains(got, line+"\n") {
			t.Errorf("exposition missing line %q\nfull output:\n%s", line, got)
		}
	}
}

// TestAtomicInstrumentsConcurrent hammers the atomic variants from
// many goroutines and checks the totals are exact (run under -race in
// CI).
func TestAtomicInstrumentsConcurrent(t *testing.T) {
	t.Parallel()
	var (
		c  AtomicCounter
		g  AtomicGauge
		h  AtomicHistogram
		wg sync.WaitGroup
	)
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(int64(i % 7))
				g.Add(-1)
			}
		}()
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Errorf("counter = %d, want %d", c.Value(), workers*per)
	}
	if g.Value() != 0 {
		t.Errorf("gauge = %d, want 0", g.Value())
	}
	if g.Max() < 1 || g.Max() > workers {
		t.Errorf("gauge max = %d, want 1..%d", g.Max(), workers)
	}
	if h.Count() != workers*per {
		t.Errorf("histogram count = %d, want %d", h.Count(), workers*per)
	}
	var bucketSum int64
	for i := 0; i < HistBuckets; i++ {
		bucketSum += h.Bucket(i)
	}
	if bucketSum != h.Count() {
		t.Errorf("bucket sum %d != count %d", bucketSum, h.Count())
	}
}

// TestAtomicSnapshot: atomic instruments render in Snapshots exactly
// like their plain counterparts.
func TestAtomicSnapshot(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	r.AtomicCounter("c").Add(2)
	r.AtomicGauge("g").Set(3)
	var h AtomicHistogram
	r.BindAtomicHistogram("h", &h)
	h.Observe(5)
	m := r.Snapshot().Map()
	for name, want := range map[string]int64{
		"c": 2, "g": 3, "g.max": 3, "h.count": 1, "h.sum": 5, "h.lt8": 1,
	} {
		if m[name] != want {
			t.Errorf("snapshot[%q] = %d, want %d (full: %v)", name, m[name], want, m)
		}
	}
}
