package machine

import (
	"fmt"

	"prefetchsim/internal/obs"
)

// NodeMetrics are one node's observability instruments (internal/obs)
// that stats.Node does not already count. They are embedded by value
// in the node, so instrumentation adds no allocation, and updated with
// plain integer arithmetic. Unlike stats.Node — whose printed form is
// pinned by the golden digests — this struct may grow freely.
type NodeMetrics struct {
	// SLWB tracks second-level write-buffer occupancy; its high-water
	// mark shows how close the run came to the 16-entry limit.
	SLWB obs.Gauge

	// FLWBWait records nonzero first-level write-buffer admission
	// stalls. Zero-stall admissions are not observed: both write paths
	// (the fused batch loop and doWrite) observe inside their existing
	// stall branch, so unstalled writes — the hot case — pay nothing.
	FLWBWait obs.Histogram
	// ReadMissStall records the processor stall of each demand read
	// serviced by a transaction (miss or delayed hit), in pclocks.
	ReadMissStall obs.Histogram
	// LockWait and BarrierWait record synchronization stalls, from
	// acquire/arrival issue to grant/release arrival.
	LockWait    obs.Histogram
	BarrierWait obs.Histogram
}

// slwbSet records an SLWB occupancy change on the node's gauge.
func (n *node) slwbSet() { n.met.SLWB.Set(int64(n.slwbUsed)) }

// BindMetrics registers the machine's instruments — the engine's
// dispatch counters, every node's NodeMetrics and the stats.Node
// counts of the miss taxonomy (§5.1, §5.3) and prefetch effectiveness
// (§3, §6) — under hierarchical names ("engine.events",
// "node3.miss.cold") in r. A delayed hit is a useful but late
// prefetch; an unconsumed one is useless traffic. It only stores
// pointers, so it may run before Run; snapshots must wait until Run
// returns (see internal/obs's ownership rule).
func (m *Machine) BindMetrics(r *obs.Registry) {
	r.BindCounter("engine.events", &m.engMet.Events)
	r.BindGauge("engine.queue", &m.engMet.Queue)
	for _, n := range m.nodes {
		p := fmt.Sprintf("node%d.", n.id)
		r.BindCounter(p+"miss.cold", &n.st.ColdMisses)
		r.BindCounter(p+"miss.coherence", &n.st.CoherenceMisses)
		r.BindCounter(p+"miss.replacement", &n.st.ReplacementMisses)
		r.BindCounter(p+"prefetch.issued", &n.st.PrefetchesIssued)
		r.BindCounter(p+"prefetch.useful", &n.st.PrefetchesUseful)
		r.BindCounter(p+"prefetch.late", &n.st.DelayedHits)
		r.BindCounter(p+"prefetch.useless", &n.st.PrefetchesUnconsumed)
		r.BindGauge(p+"slwb", &n.met.SLWB)
		r.BindHistogram(p+"flwb.wait", &n.met.FLWBWait)
		r.BindHistogram(p+"read.miss.stall", &n.met.ReadMissStall)
		r.BindHistogram(p+"lock.wait", &n.met.LockWait)
		r.BindHistogram(p+"barrier.wait", &n.met.BarrierWait)
	}
}
