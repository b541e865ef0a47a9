package obs

import "sync/atomic"

// The atomic instrument variants: the serving-path counterparts of a
// bound int64 count, Gauge and Histogram. The simulation instruments
// are plain integers because one simulation runs on one goroutine; a server's
// instruments are bumped from request handlers and job goroutines
// concurrently, so these use atomics. They bind into the same Registry
// and render identically in Snapshots and the Prometheus exposition —
// the choice of atomic vs plain is purely an ownership question.

// AtomicCounter is a monotonically increasing count safe for
// concurrent use. The zero value is ready to use.
type AtomicCounter struct{ v atomic.Int64 }

// Inc adds one.
func (c *AtomicCounter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *AtomicCounter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *AtomicCounter) Value() int64 { return c.v.Load() }

// AtomicGauge is an instantaneous level with a high-water mark, safe
// for concurrent use. The zero value is ready to use.
type AtomicGauge struct{ v, max atomic.Int64 }

// Set records the current level and updates the high-water mark.
// Concurrent Sets race on which level wins, but the high-water mark is
// exact.
func (g *AtomicGauge) Set(v int64) {
	g.v.Store(v)
	g.raiseMax(v)
}

// Add moves the level by d and returns the new level. Unlike Set, Add
// is exact under concurrency: the level is a single atomic add.
func (g *AtomicGauge) Add(d int64) int64 {
	v := g.v.Add(d)
	g.raiseMax(v)
	return v
}

func (g *AtomicGauge) raiseMax(v int64) {
	for {
		m := g.max.Load()
		if v <= m || g.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// Value returns the current level.
func (g *AtomicGauge) Value() int64 { return g.v.Load() }

// Max returns the high-water mark.
func (g *AtomicGauge) Max() int64 { return g.max.Load() }

// AtomicHistogram is a fixed-bucket histogram safe for concurrent use,
// with the same power-of-two bucket layout as Histogram. The zero
// value is ready to use. Count, Sum and the buckets are each exact;
// a reader racing a writer may observe a sum without its count (or
// vice versa), which snapshotting after quiescence avoids.
type AtomicHistogram struct {
	count, sum atomic.Int64
	buckets    [HistBuckets]atomic.Int64
}

// Observe records one value.
func (h *AtomicHistogram) Observe(v int64) {
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[histBucket(v)].Add(1)
}

// Count returns the number of observations.
func (h *AtomicHistogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *AtomicHistogram) Sum() int64 { return h.sum.Load() }

// Bucket returns the observation count of bucket i.
func (h *AtomicHistogram) Bucket(i int) int64 { return h.buckets[i].Load() }
