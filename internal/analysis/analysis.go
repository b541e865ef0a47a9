// Package analysis computes the application characteristics of the
// paper's §5.1 (Table 2) and §5.3 (Table 3): the fraction of read
// misses that belong to stride sequences, the average length of those
// sequences, and the distribution of strides (in blocks).
//
// Following the paper's methodology, the analysis uses I-detection on
// the SLC read-miss stream of a single processor and requires at least
// three equidistant accesses from the same load instruction to call
// something a stride sequence.
package analysis

import (
	"fmt"
	"sort"
	"strings"

	"prefetchsim/internal/mem"
	"prefetchsim/internal/trace"
)

// MinRun is the paper's sequence criterion: at least three equidistant
// accesses from one load instruction.
const MinRun = 3

// Miss is one observed SLC read miss.
type Miss struct {
	PC    trace.PC
	Block mem.Block
}

// Collector stores one processor's miss stream via the machine's
// MissObserver hook, for callers that want the stream itself; Tracker
// analyzes it without storing it.
type Collector struct {
	// Node selects the processor to observe (the paper uses one
	// processor, "which has been shown to be representative").
	Node   int
	misses []Miss
}

// Observe is a machine.Config.MissObserver.
func (c *Collector) Observe(node int, pc trace.PC, addr mem.Addr) {
	if node == c.Node {
		c.misses = append(c.misses, Miss{PC: pc, Block: mem.BlockOf(addr)})
	}
}

// Misses returns the collected miss stream.
func (c *Collector) Misses() []Miss { return c.misses }

// StrideShare is one row of the stride distribution.
type StrideShare struct {
	Stride int64 // in blocks; negative strides are folded to positive
	// Share is the fraction of stride-sequence misses belonging to
	// sequences with this stride.
	Share float64
}

// Result summarizes a miss stream.
type Result struct {
	TotalMisses  int
	StrideMisses int // misses within stride sequences
	Sequences    int
	sumSeqLen    int
	hist         map[int64]int // |stride| in blocks → misses
}

// FracInSequences is Table 2's "read misses within stride sequences".
func (r Result) FracInSequences() float64 {
	if r.TotalMisses == 0 {
		return 0
	}
	return float64(r.StrideMisses) / float64(r.TotalMisses)
}

// AvgSeqLen is Table 2's "average length of sequence", in block
// references.
func (r Result) AvgSeqLen() float64 {
	if r.Sequences == 0 {
		return 0
	}
	return float64(r.sumSeqLen) / float64(r.Sequences)
}

// Strides returns the stride distribution sorted by descending share.
func (r Result) Strides() []StrideShare {
	if r.StrideMisses == 0 {
		return nil
	}
	out := make([]StrideShare, 0, len(r.hist))
	for s, c := range r.hist {
		out = append(out, StrideShare{Stride: s, Share: float64(c) / float64(r.StrideMisses)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Share != out[j].Share {
			return out[i].Share > out[j].Share
		}
		return out[i].Stride < out[j].Stride
	})
	return out
}

// Dominant returns the dominant stride and its share; zero-valued if no
// stride sequences were found.
func (r Result) Dominant() StrideShare {
	s := r.Strides()
	if len(s) == 0 {
		return StrideShare{}
	}
	return s[0]
}

// String renders the Table 2/3 row for this result.
func (r Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "misses %d, in stride sequences %.1f%%, avg length %.1f",
		r.TotalMisses, 100*r.FracInSequences(), r.AvgSeqLen())
	for i, s := range r.Strides() {
		if i == 2 || s.Share < 0.05 {
			break
		}
		fmt.Fprintf(&b, ", stride %d (%.0f%%)", s.Stride, 100*s.Share)
	}
	return b.String()
}

// Tracker analyzes a miss stream online, one miss at a time, without
// storing it. Misses from each load instruction are examined in order;
// maximal runs of at least MinRun equidistant block addresses (nonzero
// stride) form stride sequences. Per load site it keeps only the run in
// progress and the site's totals, so a stream of any length costs
// O(sites).
type Tracker struct {
	// Node selects the processor Observe follows (the paper uses one
	// processor, "which has been shown to be representative").
	Node  int
	sites map[trace.PC]*site
}

// site is one load instruction's run in progress and totals.
type site struct {
	prev   mem.Block // the run's last block
	stride int64     // the run's stride; 0 while it holds one block
	n      int       // blocks in the run

	// The site's totals; all but misses count closed runs only.
	misses, strideMisses, sequences, sumSeqLen int

	hist map[int64]int // |stride| in blocks → misses, closed runs only
}

// Observe is a machine.Config.MissObserver.
func (t *Tracker) Observe(node int, pc trace.PC, addr mem.Addr) {
	if node == t.Node {
		t.Add(pc, mem.BlockOf(addr))
	}
}

// Add feeds one miss of load instruction pc on block b.
func (t *Tracker) Add(pc trace.PC, b mem.Block) {
	s := t.sites[pc]
	if s == nil {
		if t.sites == nil {
			t.sites = make(map[trace.PC]*site)
		}
		t.sites[pc] = &site{prev: b, n: 1, misses: 1}
		return
	}
	s.misses++
	switch d := int64(b) - int64(s.prev); {
	case d == 0: // a zero stride drops the earlier block
		s.close()
		s.stride, s.n = 0, 1
	case s.stride == 0: // the run's second block sets its stride
		s.stride, s.n = d, 2
	case d == s.stride:
		s.n++
	default: // the run breaks and hands its last block to the next run
		s.close()
		s.stride, s.n = d, 2
	}
	s.prev = b
}

// close ends the run in progress, counting it if it is a sequence.
func (s *site) close() {
	if s.n < MinRun {
		return
	}
	if s.hist == nil {
		s.hist = make(map[int64]int)
	}
	s.strideMisses += s.n
	s.sequences++
	s.sumSeqLen += s.n
	s.hist[abs(s.stride)] += s.n
}

// addTo adds the site's totals to r, counting the run in progress as
// if the stream ended here.
func (s *site) addTo(r *Result) {
	r.TotalMisses += s.misses
	r.StrideMisses += s.strideMisses
	r.Sequences += s.sequences
	r.sumSeqLen += s.sumSeqLen
	for st, c := range s.hist {
		r.hist[st] += c
	}
	if s.n >= MinRun {
		r.StrideMisses += s.n
		r.Sequences++
		r.sumSeqLen += s.n
		r.hist[abs(s.stride)] += s.n
	}
}

func abs(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// Result summarizes the stream fed so far; the runs in progress count
// as if it ended here, and feeding may go on.
func (t *Tracker) Result() Result {
	r := Result{hist: make(map[int64]int)}
	for _, s := range t.sites {
		s.addTo(&r)
	}
	return r
}

// Sites summarizes the stream fed so far per load site, ordered by
// descending miss count.
func (t *Tracker) Sites() []SiteStat {
	out := make([]SiteStat, 0, len(t.sites))
	for pc, s := range t.sites {
		r := Result{hist: make(map[int64]int)}
		s.addTo(&r)
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

// Analyze computes the stride-sequence statistics of a stored miss
// stream.
func Analyze(misses []Miss) Result { return track(misses).Result() }

// track feeds a stored miss stream to a new Tracker.
func track(misses []Miss) *Tracker {
	t := new(Tracker)
	for _, m := range misses {
		t.Add(m.PC, m.Block)
	}
	return t
}

// MultiCollector analyzes every processor's miss stream, for the §5.1
// representativeness check (the paper analyzes one processor, "which
// has been shown to be representative").
type MultiCollector struct {
	nodes []Tracker
}

// NewMultiCollector returns a collector for nodes processors.
func NewMultiCollector(nodes int) *MultiCollector {
	return &MultiCollector{nodes: make([]Tracker, nodes)}
}

// Observe is a machine.Config.MissObserver.
func (c *MultiCollector) Observe(node int, pc trace.PC, addr mem.Addr) {
	c.nodes[node].Add(pc, mem.BlockOf(addr))
}

// Results analyzes every processor's stream.
func (c *MultiCollector) Results() []Result {
	out := make([]Result, len(c.nodes))
	for i := range c.nodes {
		out[i] = c.nodes[i].Result()
	}
	return out
}

// SiteStat summarizes one load site's miss stream: which static loads
// generate the misses, and with what stride behaviour. This is the
// per-instruction view an architect uses to decide where an RPT entry
// pays off.
type SiteStat struct {
	PC           trace.PC
	Misses       int
	StrideMisses int
	// Dominant is the site's most common stride in blocks (0 if the
	// site has no stride sequences).
	Dominant int64
}

// BySite groups a stored miss stream per load site, ordered by
// descending miss count.
func BySite(misses []Miss) []SiteStat { return track(misses).Sites() }
