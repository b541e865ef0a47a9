package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
)

// The Prometheus text exposition (format 0.0.4) of a Registry: the
// serving-path export next to Snapshot's flat JSON view. The encoder
// works from the registry's typed entries rather than a Snapshot
// because a proper Prometheus histogram needs the bucket structure —
// cumulative "le" counts, a +Inf bucket — that Snapshot's flattened
// ".lt<bound>" samples have already collapsed.
//
// Rendering rules:
//
//   - Names are sanitized with PromName: every rune outside
//     [a-zA-Z0-9_:] (the instruments' dots especially) becomes '_',
//     and a leading digit gets a '_' prefix.
//   - A counter "x.y" renders as "x_y_total" (the _total convention);
//     names already ending in "_total"/".total" are not doubled.
//   - A gauge renders as two gauges: the level and "<name>_max", the
//     high-water mark.
//   - A histogram renders with cumulative buckets. Instrument buckets
//     hold integer values by bit length (bucket i: v in [2^(i-1),
//     2^i), bucket 0: v <= 0), so the inclusive Prometheus bound of
//     bucket i is exactly 2^i - 1; the last bucket is +Inf.
//
// Every metric carries a HELP line echoing the instrument's original
// dotted name, which documents the sanitized-to-registry mapping for
// anyone reading a scrape.

// PromContentType is the Content-Type of the text exposition format.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// PromName sanitizes an instrument name into a valid Prometheus metric
// name: [a-zA-Z_:][a-zA-Z0-9_:]*.
func PromName(name string) string {
	if name == "" {
		return "_"
	}
	b := []byte(name)
	for i, c := range b {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return PromName("_" + name)
			}
		default:
			b[i] = '_'
		}
	}
	return string(b)
}

// promCounterName applies the _total suffix convention.
func promCounterName(name string) string {
	n := PromName(name)
	if len(n) >= 6 && n[len(n)-6:] == "_total" {
		return n
	}
	return n + "_total"
}

// WritePrometheus renders every bound instrument as Prometheus text
// exposition, sorted by metric name for a stable scrape.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	entries := make([]entry, len(r.entries))
	copy(entries, r.entries)
	r.mu.Unlock()

	sort.Slice(entries, func(i, j int) bool { return entries[i].name < entries[j].name })
	pw := &promWriter{w: w}
	for i := range entries {
		entries[i].writeProm(pw)
	}
	return pw.err
}

// promWriter accumulates the first write error so the per-entry
// renderers stay unconditional.
type promWriter struct {
	w   io.Writer
	err error
}

func (pw *promWriter) printf(format string, args ...any) {
	if pw.err != nil {
		return
	}
	_, pw.err = fmt.Fprintf(pw.w, format, args...)
}

func (pw *promWriter) head(name, dotted, typ string) {
	pw.printf("# HELP %s instrument %q\n# TYPE %s %s\n", name, dotted, name, typ)
}

func (e *entry) writeProm(pw *promWriter) {
	switch {
	case e.c != nil:
		e.promCounter(pw, *e.c)
	case e.ac != nil:
		e.promCounter(pw, e.ac.Value())
	case e.g != nil:
		e.promGauge(pw, e.g.Value(), e.g.Max())
	case e.ag != nil:
		e.promGauge(pw, e.ag.Value(), e.ag.Max())
	case e.h != nil:
		e.promHistogram(pw, e.h.Count(), e.h.Sum(), e.h.Bucket)
	case e.ah != nil:
		e.promHistogram(pw, e.ah.Count(), e.ah.Sum(), e.ah.Bucket)
	}
}

func (e *entry) promCounter(pw *promWriter, v int64) {
	name := promCounterName(e.name)
	pw.head(name, e.name, "counter")
	pw.printf("%s %d\n", name, v)
}

func (e *entry) promGauge(pw *promWriter, v, max int64) {
	name := PromName(e.name)
	pw.head(name, e.name, "gauge")
	pw.printf("%s %d\n", name, v)
	pw.head(name+"_max", e.name+".max", "gauge")
	pw.printf("%s_max %d\n", name, max)
}

func (e *entry) promHistogram(pw *promWriter, count, sum int64, bucket func(int) int64) {
	name := PromName(e.name)
	pw.head(name, e.name, "histogram")
	var cum int64
	for i := 0; i < HistBuckets; i++ {
		cum += bucket(i)
		if i == HistBuckets-1 {
			pw.printf("%s_bucket{le=\"+Inf\"} %d\n", name, cum)
		} else {
			pw.printf("%s_bucket{le=\"%s\"} %d\n", name, strconv.FormatInt(BucketBound(i)-1, 10), cum)
		}
	}
	pw.printf("%s_sum %d\n", name, sum)
	pw.printf("%s_count %d\n", name, count)
}
