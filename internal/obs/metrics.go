// Package obs is the simulator's observability layer: plain-integer
// metric instruments cheap enough to live on the hot paths, a registry
// that binds them into one hierarchical namespace for export,
// transaction spans and windowed timelines flushed as JSONL off the hot
// path, and the per-run manifest that makes a simulation's full
// provenance (config, seed, toolchain, stats digest, metrics) a single
// machine-checkable JSON document.
//
// The design splits instrumentation from export so that observing costs
// nothing it does not have to:
//
//   - Counter, Gauge and Histogram are plain value types meant to be
//     embedded in the owning component (a machine node, the event
//     engine). They allocate nothing — a Histogram's buckets are a
//     fixed-size array — and updates are non-atomic single-word
//     arithmetic, safe because one simulation runs on one goroutine.
//   - A Registry is only built when a caller wants the numbers out: it
//     binds names ("node3.miss.cold") to the embedded instruments and
//     renders a sorted Snapshot. Nothing on the simulation fast path
//     ever touches a map or a string.
//
// Instruments belonging to one simulation must only be read after that
// simulation's Run returns (or from its own goroutine). The Registry
// itself is safe for concurrent Bind/Snapshot across goroutines, which
// the parallel experiment runner's per-run registries exercise under
// the race detector.
package obs

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"
)

// Counter is a monotonically increasing count. The zero value is ready
// to use.
type Counter struct{ v int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v++ }

// Add adds n.
func (c *Counter) Add(n int64) { c.v += n }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v }

// Gauge is an instantaneous level with a high-water mark. The zero
// value is ready to use.
type Gauge struct{ v, max int64 }

// Set records the current level and updates the high-water mark.
func (g *Gauge) Set(v int64) {
	g.v = v
	if v > g.max {
		g.max = v
	}
}

// Add moves the level by d.
func (g *Gauge) Add(d int64) { g.Set(g.v + d) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v }

// Max returns the high-water mark.
func (g *Gauge) Max() int64 { return g.max }

// HistBuckets is the fixed bucket count of every Histogram: bucket i
// holds observations whose value has bit length i (i.e. v in
// [2^(i-1), 2^i)), bucket 0 holds v <= 0, and the last bucket absorbs
// everything beyond 2^(HistBuckets-2). Power-of-two buckets cover the
// simulator's latency range (pclocks: an FLC hit is 1, a contended
// four-traversal remote miss a few hundred) with no per-histogram
// configuration and no allocation.
const HistBuckets = 20

// Histogram is a fixed-bucket latency histogram. The zero value is
// ready to use.
type Histogram struct {
	count, sum int64
	buckets    [HistBuckets]int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	h.count++
	h.sum += v
	h.buckets[histBucket(v)]++
}

// histBucket maps a value to its bucket index (shared with
// AtomicHistogram so both layouts agree bit for bit).
func histBucket(v int64) int {
	if v <= 0 {
		return 0
	}
	i := bits.Len64(uint64(v))
	if i >= HistBuckets {
		i = HistBuckets - 1
	}
	return i
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 { return h.sum }

// Bucket returns the observation count of bucket i.
func (h *Histogram) Bucket(i int) int64 { return h.buckets[i] }

// BucketBound returns the exclusive upper bound of bucket i (2^i);
// the last bucket is unbounded and returns MaxInt64.
func BucketBound(i int) int64 {
	if i >= HistBuckets-1 {
		return math.MaxInt64
	}
	return int64(1) << i
}

// Sample is one named value of a Snapshot.
type Sample struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// Snapshot is a flat, name-sorted rendering of a registry's
// instruments at one instant.
type Snapshot []Sample

// Get returns the value of the named sample.
func (s Snapshot) Get(name string) (int64, bool) {
	i := sort.Search(len(s), func(i int) bool { return s[i].Name >= name })
	if i < len(s) && s[i].Name == name {
		return s[i].Value, true
	}
	return 0, false
}

// Map returns the snapshot as a name→value map.
func (s Snapshot) Map() map[string]int64 {
	m := make(map[string]int64, len(s))
	for _, sm := range s {
		m[sm.Name] = sm.Value
	}
	return m
}

// Totals collapses the per-node level of the hierarchy: samples named
// "node<i>.rest" are summed across i into "node.rest"; everything else
// passes through unchanged (summed if several nodes share a
// pass-through name). Gauge high-water marks sum too — the result is a
// machine-wide total, not a machine-wide maximum.
func (s Snapshot) Totals() map[string]int64 {
	m := make(map[string]int64)
	for _, sm := range s {
		m[totalName(sm.Name)] += sm.Value
	}
	return m
}

// totalName strips the node index from "node<i>.rest" names.
func totalName(name string) string {
	const p = "node"
	if len(name) <= len(p) || name[:len(p)] != p {
		return name
	}
	i := len(p)
	for i < len(name) && name[i] >= '0' && name[i] <= '9' {
		i++
	}
	if i == len(p) || i >= len(name) || name[i] != '.' {
		return name
	}
	return p + name[i:]
}

// entry is one bound instrument. Exactly one of the instrument
// pointers is set.
type entry struct {
	name string
	c    *Counter
	g    *Gauge
	h    *Histogram
	ac   *AtomicCounter
	ag   *AtomicGauge
	ah   *AtomicHistogram
}

// Registry binds embedded instruments into one hierarchical dotted
// namespace and renders them as Snapshots. Binding and snapshotting
// are mutex-guarded and safe across goroutines; the instruments
// themselves follow the package's single-goroutine ownership rule.
type Registry struct {
	mu      sync.Mutex
	entries []entry
	names   map[string]struct{}
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{names: make(map[string]struct{})} }

func (r *Registry) bind(e entry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.names[e.name]; dup {
		panic(fmt.Sprintf("obs: duplicate metric %q", e.name))
	}
	r.names[e.name] = struct{}{}
	r.entries = append(r.entries, e)
}

// BindCounter registers an externally owned counter under name.
// Binding a name twice is a programming error and panics.
func (r *Registry) BindCounter(name string, c *Counter) { r.bind(entry{name: name, c: c}) }

// BindGauge registers an externally owned gauge under name.
func (r *Registry) BindGauge(name string, g *Gauge) { r.bind(entry{name: name, g: g}) }

// BindHistogram registers an externally owned histogram under name.
func (r *Registry) BindHistogram(name string, h *Histogram) { r.bind(entry{name: name, h: h}) }

// Counter creates, registers and returns a registry-owned counter.
func (r *Registry) Counter(name string) *Counter {
	c := new(Counter)
	r.BindCounter(name, c)
	return c
}

// Gauge creates, registers and returns a registry-owned gauge.
func (r *Registry) Gauge(name string) *Gauge {
	g := new(Gauge)
	r.BindGauge(name, g)
	return g
}

// Histogram creates, registers and returns a registry-owned histogram.
func (r *Registry) Histogram(name string) *Histogram {
	h := new(Histogram)
	r.BindHistogram(name, h)
	return h
}

// BindAtomicCounter registers an externally owned atomic counter.
func (r *Registry) BindAtomicCounter(name string, c *AtomicCounter) {
	r.bind(entry{name: name, ac: c})
}

// BindAtomicGauge registers an externally owned atomic gauge.
func (r *Registry) BindAtomicGauge(name string, g *AtomicGauge) {
	r.bind(entry{name: name, ag: g})
}

// BindAtomicHistogram registers an externally owned atomic histogram.
func (r *Registry) BindAtomicHistogram(name string, h *AtomicHistogram) {
	r.bind(entry{name: name, ah: h})
}

// AtomicCounter creates, registers and returns a registry-owned atomic
// counter.
func (r *Registry) AtomicCounter(name string) *AtomicCounter {
	c := new(AtomicCounter)
	r.BindAtomicCounter(name, c)
	return c
}

// AtomicGauge creates, registers and returns a registry-owned atomic
// gauge.
func (r *Registry) AtomicGauge(name string) *AtomicGauge {
	g := new(AtomicGauge)
	r.BindAtomicGauge(name, g)
	return g
}

// AtomicHistogram creates, registers and returns a registry-owned
// atomic histogram.
func (r *Registry) AtomicHistogram(name string) *AtomicHistogram {
	h := new(AtomicHistogram)
	r.BindAtomicHistogram(name, h)
	return h
}

// histSamples renders a histogram's snapshot samples: count, sum, and
// one ".lt<bound>" sample per non-empty bucket.
func (e *entry) histSamples(count, sum int64, bucket func(int) int64) []Sample {
	s := []Sample{{e.name + ".count", count}, {e.name + ".sum", sum}}
	for i := 0; i < HistBuckets; i++ {
		if n := bucket(i); n != 0 {
			s = append(s, Sample{fmt.Sprintf("%s.lt%d", e.name, BucketBound(i)), n})
		}
	}
	return s
}

// Len reports the number of bound instruments.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.entries)
}

// Snapshot renders every bound instrument, sorted by name. A counter
// contributes one sample; a gauge contributes "<name>" and
// "<name>.max"; a histogram contributes "<name>.count", "<name>.sum"
// and one "<name>.lt<bound>" sample per non-empty bucket.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	var s Snapshot
	for _, e := range r.entries {
		switch {
		case e.c != nil:
			s = append(s, Sample{e.name, e.c.Value()})
		case e.ac != nil:
			s = append(s, Sample{e.name, e.ac.Value()})
		case e.g != nil:
			s = append(s, Sample{e.name, e.g.Value()}, Sample{e.name + ".max", e.g.Max()})
		case e.ag != nil:
			s = append(s, Sample{e.name, e.ag.Value()}, Sample{e.name + ".max", e.ag.Max()})
		case e.h != nil:
			s = append(s, e.histSamples(e.h.Count(), e.h.Sum(), e.h.Bucket)...)
		case e.ah != nil:
			s = append(s, e.histSamples(e.ah.Count(), e.ah.Sum(), e.ah.Bucket)...)
		}
	}
	sort.Slice(s, func(i, j int) bool { return s[i].Name < s[j].Name })
	return s
}
