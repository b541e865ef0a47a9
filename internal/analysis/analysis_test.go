package analysis

import (
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"prefetchsim/internal/mem"
	"prefetchsim/internal/trace"
)

func mkMisses(pc trace.PC, blocks ...int64) []Miss {
	out := make([]Miss, len(blocks))
	for i, b := range blocks {
		out[i] = Miss{PC: pc, Block: mem.Block(b)}
	}
	return out
}

func TestPureStrideSequence(t *testing.T) {
	r := Analyze(mkMisses(1, 10, 12, 14, 16, 18))
	if r.TotalMisses != 5 || r.StrideMisses != 5 {
		t.Fatalf("misses %d/%d, want 5/5", r.StrideMisses, r.TotalMisses)
	}
	if r.FracInSequences() != 1.0 {
		t.Fatalf("fraction = %v, want 1", r.FracInSequences())
	}
	if r.AvgSeqLen() != 5 {
		t.Fatalf("avg length = %v, want 5", r.AvgSeqLen())
	}
	if d := r.Dominant(); d.Stride != 2 || d.Share != 1 {
		t.Fatalf("dominant = %+v, want stride 2, share 1", d)
	}
}

func TestTwoAccessesAreNotASequence(t *testing.T) {
	r := Analyze(mkMisses(1, 10, 12, 100, 300, 900))
	if r.StrideMisses != 0 {
		t.Fatalf("stride misses = %d, want 0 (runs shorter than %d)", r.StrideMisses, MinRun)
	}
}

func TestExactlyThreeEquidistantQualifies(t *testing.T) {
	r := Analyze(mkMisses(1, 10, 13, 16))
	if r.StrideMisses != 3 || r.Sequences != 1 {
		t.Fatalf("got %d misses in %d sequences, want 3 in 1", r.StrideMisses, r.Sequences)
	}
}

func TestInterleavedPCsAreSeparated(t *testing.T) {
	// Two load instructions with interleaved miss streams, each a clean
	// stride sequence: exactly the situation I-detection untangles.
	var misses []Miss
	for i := int64(0); i < 6; i++ {
		misses = append(misses, Miss{PC: 1, Block: mem.Block(100 + i)})
		misses = append(misses, Miss{PC: 2, Block: mem.Block(10000 + 21*i)})
	}
	r := Analyze(misses)
	if r.FracInSequences() != 1.0 {
		t.Fatalf("fraction = %v, want 1 (per-PC separation failed)", r.FracInSequences())
	}
	strides := r.Strides()
	if len(strides) != 2 {
		t.Fatalf("strides = %+v, want two entries", strides)
	}
	for _, s := range strides {
		if s.Stride != 1 && s.Stride != 21 {
			t.Fatalf("unexpected stride %d", s.Stride)
		}
		if math.Abs(s.Share-0.5) > 1e-9 {
			t.Fatalf("share = %v, want 0.5", s.Share)
		}
	}
}

func TestZeroStrideIgnored(t *testing.T) {
	r := Analyze(mkMisses(1, 5, 5, 5, 5, 5))
	if r.StrideMisses != 0 {
		t.Fatalf("repeated same-block misses counted as stride sequence: %d", r.StrideMisses)
	}
}

func TestNegativeStrideFolded(t *testing.T) {
	r := Analyze(mkMisses(1, 100, 96, 92, 88))
	if r.StrideMisses != 4 {
		t.Fatalf("descending run not detected: %d", r.StrideMisses)
	}
	if d := r.Dominant(); d.Stride != 4 {
		t.Fatalf("dominant stride = %d, want 4 (folded)", d.Stride)
	}
}

func TestRunBreaksOnStrideChange(t *testing.T) {
	// 1,2,3,4 then jump, then 100,102,104: two sequences.
	r := Analyze(mkMisses(1, 1, 2, 3, 4, 100, 102, 104))
	if r.Sequences != 2 {
		t.Fatalf("sequences = %d, want 2", r.Sequences)
	}
	// 4 + 3 misses in sequences; the jump access 100 belongs to the
	// second run's start.
	if r.StrideMisses != 7 {
		t.Fatalf("stride misses = %d, want 7", r.StrideMisses)
	}
	if got := r.AvgSeqLen(); math.Abs(got-3.5) > 1e-9 {
		t.Fatalf("avg length = %v, want 3.5", got)
	}
}

func TestMixedStrideAndNoise(t *testing.T) {
	misses := mkMisses(1, 10, 11, 12, 13, 14) // 5 in sequence
	misses = append(misses, mkMisses(2, 999, 5, 777, 123, 456)...)
	r := Analyze(misses)
	if got := r.FracInSequences(); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("fraction = %v, want 0.5", got)
	}
}

func TestEmptyStream(t *testing.T) {
	r := Analyze(nil)
	if r.FracInSequences() != 0 || r.AvgSeqLen() != 0 || r.Strides() != nil {
		t.Fatal("empty stream should produce zero-valued result")
	}
	if d := r.Dominant(); d.Stride != 0 || d.Share != 0 {
		t.Fatalf("Dominant on empty = %+v", d)
	}
}

func TestCollectorFiltersNode(t *testing.T) {
	c := &Collector{Node: 3}
	c.Observe(0, 1, 64)
	c.Observe(3, 2, 128)
	c.Observe(3, 2, 192)
	c.Observe(7, 1, 256)
	got := c.Misses()
	if len(got) != 2 || got[0].Block != 4 || got[1].Block != 6 {
		t.Fatalf("collected %+v", got)
	}
}

func TestStringFormat(t *testing.T) {
	r := Analyze(mkMisses(1, 10, 11, 12, 13))
	s := r.String()
	if !strings.Contains(s, "100.0%") || !strings.Contains(s, "stride 1") {
		t.Fatalf("report = %q", s)
	}
}

func TestDeterministicStrideOrdering(t *testing.T) {
	// Equal shares must order by stride value, not map order.
	var misses []Miss
	misses = append(misses, mkMisses(1, 0, 5, 10, 15)...) // stride 5
	misses = append(misses, mkMisses(2, 0, 3, 6, 9)...)   // stride 3
	for i := 0; i < 50; i++ {
		r := Analyze(misses)
		s := r.Strides()
		if s[0].Stride != 3 || s[1].Stride != 5 {
			t.Fatalf("iteration %d: unstable ordering %+v", i, s)
		}
	}
}

func TestMultiCollectorSeparatesNodes(t *testing.T) {
	c := NewMultiCollector(3)
	for i := 0; i < 4; i++ {
		c.Observe(0, 1, mem.Addr(i)*32) // stride 1 at node 0
		c.Observe(2, 1, mem.Addr(i*5)*32)
	}
	rs := c.Results()
	if rs[0].TotalMisses != 4 || rs[1].TotalMisses != 0 || rs[2].TotalMisses != 4 {
		t.Fatalf("per-node miss counts: %d/%d/%d", rs[0].TotalMisses, rs[1].TotalMisses, rs[2].TotalMisses)
	}
	if rs[0].Dominant().Stride != 1 || rs[2].Dominant().Stride != 5 {
		t.Fatalf("per-node strides: %d/%d", rs[0].Dominant().Stride, rs[2].Dominant().Stride)
	}
}

func TestBySiteGroupsAndOrders(t *testing.T) {
	var misses []Miss
	misses = append(misses, mkMisses(2, 10, 12, 14, 16)...) // 4 misses, stride 2
	misses = append(misses, mkMisses(1, 5, 900, 44)...)     // 3 misses, no stride
	sites := BySite(misses)
	if len(sites) != 2 {
		t.Fatalf("sites = %d", len(sites))
	}
	if sites[0].PC != 2 || sites[0].Misses != 4 || sites[0].Dominant != 2 {
		t.Fatalf("top site = %+v", sites[0])
	}
	if sites[1].PC != 1 || sites[1].StrideMisses != 0 || sites[1].Dominant != 0 {
		t.Fatalf("second site = %+v", sites[1])
	}
}

func TestBySiteEmpty(t *testing.T) {
	if got := BySite(nil); len(got) != 0 {
		t.Fatalf("BySite(nil) = %v", got)
	}
}

// batchAnalyze is the reference the online Tracker must reproduce: it
// groups the stored stream per load site and scans each site's blocks
// for maximal equidistant runs.
func batchAnalyze(misses []Miss) Result {
	r := Result{TotalMisses: len(misses), hist: make(map[int64]int)}

	byPC := make(map[trace.PC][]mem.Block)
	var order []trace.PC
	for _, m := range misses {
		if _, ok := byPC[m.PC]; !ok {
			order = append(order, m.PC)
		}
		byPC[m.PC] = append(byPC[m.PC], m.Block)
	}

	for _, pc := range order {
		blocks := byPC[pc]
		i := 0
		for i+1 < len(blocks) {
			stride := int64(blocks[i+1]) - int64(blocks[i])
			if stride == 0 {
				i++
				continue
			}
			j := i + 1
			for j+1 < len(blocks) && int64(blocks[j+1])-int64(blocks[j]) == stride {
				j++
			}
			runLen := j - i + 1
			if runLen >= MinRun {
				r.StrideMisses += runLen
				r.Sequences++
				r.sumSeqLen += runLen
				abs := stride
				if abs < 0 {
					abs = -abs
				}
				r.hist[abs] += runLen
			}
			i = j
		}
	}
	return r
}

// batchBySite is the per-site reference: batchAnalyze on each site's
// misses.
func batchBySite(misses []Miss) []SiteStat {
	byPC := make(map[trace.PC][]Miss)
	var order []trace.PC
	for _, m := range misses {
		if _, ok := byPC[m.PC]; !ok {
			order = append(order, m.PC)
		}
		byPC[m.PC] = append(byPC[m.PC], m)
	}
	out := make([]SiteStat, 0, len(order))
	for _, pc := range order {
		r := batchAnalyze(byPC[pc])
		st := SiteStat{PC: pc, Misses: r.TotalMisses, StrideMisses: r.StrideMisses}
		if d := r.Dominant(); d.Share > 0 {
			st.Dominant = d.Stride
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Misses != out[j].Misses {
			return out[i].Misses > out[j].Misses
		}
		return out[i].PC < out[j].PC
	})
	return out
}

// fuzzMisses decodes a miss stream over four load sites. Each pair of
// bytes is one step: the first byte's low two bits pick the site, its
// top bit makes the second byte an absolute block, and otherwise the
// second byte is a signed stride in -16..15 repeated one to four times
// (bits 2–3), so zero, negative and repeating strides and runs that
// share a boundary block are all common.
func fuzzMisses(data []byte) []Miss {
	var last [4]int64
	for i := range last {
		last[i] = 1000 * int64(i+1)
	}
	var out []Miss
	for i := 0; i+1 < len(data); i += 2 {
		op, v := data[i], data[i+1]
		pc := op & 3
		if op&0x80 != 0 {
			last[pc] = int64(v)
			out = append(out, Miss{PC: trace.PC(pc), Block: mem.Block(last[pc])})
			continue
		}
		stride := int64(int8(v)) >> 3
		for k := 0; k <= int(op>>2&3); k++ {
			last[pc] += stride
			out = append(out, Miss{PC: trace.PC(pc), Block: mem.Block(last[pc])})
		}
	}
	return out
}

// FuzzTrackerVsBatch feeds random miss streams to the online Tracker
// and to the batch reference: both must give the same Result and Sites,
// at the end of the stream and halfway through it (reading a Result
// must not disturb the runs in progress). Its seed corpus is in
// testdata/fuzz/FuzzTrackerVsBatch.
func FuzzTrackerVsBatch(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		misses := fuzzMisses(data)
		var tr Tracker
		half := len(misses) / 2
		for i, m := range misses {
			if i == half {
				checkAgainstBatch(t, "halfway", &tr, misses[:half])
			}
			tr.Add(m.PC, m.Block)
		}
		checkAgainstBatch(t, "at the end", &tr, misses)
	})
}

func checkAgainstBatch(t *testing.T, when string, tr *Tracker, misses []Miss) {
	t.Helper()
	if got, want := tr.Result(), batchAnalyze(misses); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Result = %+v, batch %+v\nmisses %v", when, got, want, misses)
	}
	if got, want := tr.Sites(), batchBySite(misses); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Sites = %+v, batch %+v\nmisses %v", when, got, want, misses)
	}
}

// TestObserveAllocatesNothing pins the tracker's memory property: once a
// site and its strides are known, a miss costs no allocation, so a run
// of any length costs O(sites), not O(misses).
func TestObserveAllocatesNothing(t *testing.T) {
	tr := &Tracker{Node: 0}
	base := mem.Addr(1 << 20)
	burst := func() {
		// A stride-2 sequence of four blocks, then a jump: every burst
		// closes one sequence and opens the next.
		for k := mem.Addr(0); k < 4; k++ {
			tr.Observe(0, 7, base+2*k*32)
		}
		tr.Observe(1, 7, base) // another node's miss is ignored
		base += 100 * 32
	}
	burst()
	burst()
	if allocs := testing.AllocsPerRun(1000, burst); allocs != 0 {
		t.Fatalf("Observe allocated %v times per burst, want 0", allocs)
	}
	r := tr.Result()
	if r.TotalMisses != 4*1003 || r.Sequences != 1003 || r.Dominant().Stride != 2 {
		t.Fatalf("result after the bursts = %+v", r)
	}
}
