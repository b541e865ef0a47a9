package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// txSpan builds a transaction span with known hop latencies: issue at
// t, then 1, 2, 3, 4, 5, 6 pclocks per hop in pipeline order.
func txSpan(t int64, cls SpanClass) Span {
	return Span{
		Issue: t, Req: t + 1, Home: t + 3, Svc: t + 6,
		Reply: t + 10, Arrive: t + 15, Done: t + 21,
		Demand: -1, Wait: 7, Block: 42, Node: 1, Class: cls,
	}
}

func TestSpanRecorderAggregates(t *testing.T) {
	r := NewSpanRecorder(SpanConfig{Cap: 8})
	r.Complete(txSpan(100, SpanMissCold))
	r.Complete(txSpan(200, SpanMissCold))
	r.Complete(Span{Issue: 50, Done: 60, Wait: 4, Class: SpanAcquire, Demand: -1})

	st := r.Stats()
	cold := st.Class(SpanMissCold)
	if cold.Count != 2 || cold.TotalPclocks != 42 || cold.WaitPclocks != 14 {
		t.Fatalf("cold = %+v", cold)
	}
	// Hop sums: two spans, each with 1/2/3/4/5/6 pclock hops.
	if cold.Queue != 2 || cold.ReqNet != 4 || cold.Dir != 6 ||
		cold.Service != 8 || cold.ReplyNet != 10 || cold.Fill != 12 {
		t.Fatalf("cold hops = %+v", cold)
	}
	if got := cold.Latency.Count(); got != 2 {
		t.Fatalf("latency histogram count = %d, want 2", got)
	}
	acq := st.Class(SpanAcquire)
	if acq.Count != 1 || acq.TotalPclocks != 10 || acq.WaitPclocks != 4 {
		t.Fatalf("acquire = %+v", acq)
	}
	// Local stall classes contribute no hop sums.
	if acq.Queue != 0 || acq.Fill != 0 {
		t.Fatalf("acquire has hop sums: %+v", acq)
	}
}

// TestSpanRecorderSamplingWrap: sampling and ring wrap drop raw spans
// but never aggregate counts, and the summary partitions Seen.
func TestSpanRecorderSamplingWrap(t *testing.T) {
	r := NewSpanRecorder(SpanConfig{Cap: 4, Sample: 3})
	const n = 100
	for i := 0; i < n; i++ {
		r.Complete(txSpan(int64(i*30), SpanPrefetch))
	}
	if got := r.Stats().Class(SpanPrefetch).Count; got != n {
		t.Fatalf("aggregate count = %d, want %d (sampling must not drop aggregates)", got, n)
	}
	sum := r.Summary()
	if sum.Seen != n || sum.Kept != 4 || sum.Sampled != 66 || sum.Dropped != 30 {
		t.Fatalf("summary = %+v", sum)
	}
	if sum.Kept+sum.Dropped+sum.Sampled != sum.Seen {
		t.Fatalf("counters do not partition Seen: %+v", sum)
	}
	// Kept spans are the newest stored samples — sampling keeps the
	// first of every group of three — in chronological order.
	spans := r.Spans()
	if len(spans) != 4 {
		t.Fatalf("%d spans, want 4", len(spans))
	}
	for i, s := range spans {
		if want := int64(3 * (30 + i) * 30); s.Issue != want {
			t.Fatalf("span %d issued at %d, want %d", i, s.Issue, want)
		}
	}
}

// TestSpanRingExactCapacity: filling the ring to exactly Cap returns
// every span in order (the boundary between the unwrapped and wrapped
// Spans paths); one more drops the oldest. Flush with no writer is a
// no-op.
func TestSpanRingExactCapacity(t *testing.T) {
	const n = 8
	r := NewSpanRecorder(SpanConfig{Cap: n})
	for i := 0; i <= n; i++ {
		r.Complete(txSpan(int64(i), SpanWrite))
		if i < n-1 {
			continue
		}
		spans := r.Spans()
		if len(spans) != n {
			t.Fatalf("after %d spans: %d kept, want %d", i+1, len(spans), n)
		}
		for j, s := range spans {
			if want := int64(i + 1 - n + j); s.Issue != want {
				t.Fatalf("after %d spans: span %d issued at %d, want %d", i+1, j, s.Issue, want)
			}
		}
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
}

func TestSpanJSONRoundTrip(t *testing.T) {
	s := txSpan(1000, SpanPrefetchLate)
	s.Demand = 1005
	line := string(s.AppendJSON(nil))
	var got struct {
		Class  string `json:"class"`
		Node   int32  `json:"node"`
		Block  uint64 `json:"block"`
		Issue  int64  `json:"issue"`
		Req    int64  `json:"req"`
		Home   int64  `json:"home"`
		Svc    int64  `json:"svc"`
		Reply  int64  `json:"reply"`
		Arrive int64  `json:"arrive"`
		Done   int64  `json:"done"`
		Demand int64  `json:"demand"`
		Wait   int64  `json:"wait"`
	}
	if err := json.Unmarshal([]byte(line), &got); err != nil {
		t.Fatalf("AppendJSON output not JSON: %v (%s)", err, line)
	}
	if got.Class != "prefetch.late" || got.Node != 1 || got.Block != 42 ||
		got.Issue != 1000 || got.Req != 1001 || got.Home != 1003 ||
		got.Svc != 1006 || got.Reply != 1010 || got.Arrive != 1015 ||
		got.Done != 1021 || got.Demand != 1005 || got.Wait != 7 {
		t.Fatalf("round trip = %+v (%s)", got, line)
	}
}

func TestSpanFlushDrainOnce(t *testing.T) {
	var buf bytes.Buffer
	r := NewSpanRecorder(SpanConfig{W: &buf, Cap: 8})
	r.Complete(txSpan(1, SpanWrite))
	r.Complete(txSpan(2, SpanWrite))
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	first := buf.String()
	if got := strings.Count(first, "\n"); got != 2 {
		t.Fatalf("first flush wrote %d lines, want 2", got)
	}
	r.Complete(txSpan(3, SpanWrite))
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	if buf.String() != first {
		t.Fatal("second Flush wrote more output")
	}
}

func TestSpanClassNames(t *testing.T) {
	for c := SpanClass(0); c < NumSpanClasses; c++ {
		name := c.String()
		if name == "" || name == "unknown" {
			t.Fatalf("class %d has no name", c)
		}
		back, ok := ParseSpanClass(name)
		if !ok || back != c {
			t.Fatalf("ParseSpanClass(%q) = %v, %v; want %v", name, back, ok, c)
		}
	}
	if _, ok := ParseSpanClass("nosuchclass"); ok {
		t.Fatal("ParseSpanClass accepted an unknown name")
	}
}

func TestSummarizeSpanStats(t *testing.T) {
	r := NewSpanRecorder(SpanConfig{Cap: 8})
	r.Complete(txSpan(0, SpanMissCold))
	r.Complete(txSpan(30, SpanMissCold))
	r.ObserveIdle(100)
	r.ObserveIdle(50)

	sum := r.Summarize()
	if sum.Ring.Seen != 2 || sum.Ring.Kept != 2 {
		t.Fatalf("ring = %+v", sum.Ring)
	}
	if len(sum.Classes) != 1 {
		t.Fatalf("classes = %v (empty classes must be omitted)", sum.Classes)
	}
	cs, ok := sum.Classes["miss.cold"]
	if !ok || cs.Count != 2 || cs.TotalPclocks != 42 || cs.WaitPclocks != 14 {
		t.Fatalf("miss.cold = %+v ok=%v", cs, ok)
	}
	if sum.IdleCount != 2 || sum.IdlePclocks != 150 {
		t.Fatalf("idle = %d/%d", sum.IdleCount, sum.IdlePclocks)
	}
	// The summary is JSON-stable for manifests.
	b, err := json.Marshal(sum)
	if err != nil {
		t.Fatal(err)
	}
	var back SpanSummary
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Classes["miss.cold"].Count != 2 || back.IdlePclocks != 150 {
		t.Fatalf("JSON round trip = %+v", back)
	}
}
