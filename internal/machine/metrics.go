package machine

import (
	"fmt"

	"prefetchsim/internal/obs"
)

// NodeMetrics are one node's observability instruments (internal/obs).
// They are embedded by value in the node, so instrumentation adds no
// allocation, and updated with plain integer arithmetic alongside the
// stats counters. Unlike stats.Node — whose printed form is pinned by
// the golden digests — this struct may grow freely.
type NodeMetrics struct {
	// Demand-miss taxonomy (§5.1, §5.3), mirroring the stats counters
	// but exported through the metrics namespace.
	MissCold        obs.Counter
	MissCoherence   obs.Counter
	MissReplacement obs.Counter

	// Prefetch effectiveness (§3, §6): issued proposals, consumed
	// blocks, delayed hits (in flight when demanded: useful but late),
	// and blocks still tagged at the end of the run (useless traffic).
	PrefIssued  obs.Counter
	PrefUseful  obs.Counter
	PrefLate    obs.Counter
	PrefUseless obs.Counter

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
// dispatch counters and every node's NodeMetrics — under hierarchical
// names ("engine.events", "node3.miss.cold") in r. It only stores
// pointers, so it may run before Run; snapshots must wait until Run
// returns (see internal/obs's ownership rule).
func (m *Machine) BindMetrics(r *obs.Registry) {
	r.BindCounter("engine.events", &m.engMet.Events)
	r.BindGauge("engine.queue", &m.engMet.Queue)
	for _, n := range m.nodes {
		p := fmt.Sprintf("node%d.", n.id)
		r.BindCounter(p+"miss.cold", &n.met.MissCold)
		r.BindCounter(p+"miss.coherence", &n.met.MissCoherence)
		r.BindCounter(p+"miss.replacement", &n.met.MissReplacement)
		r.BindCounter(p+"prefetch.issued", &n.met.PrefIssued)
		r.BindCounter(p+"prefetch.useful", &n.met.PrefUseful)
		r.BindCounter(p+"prefetch.late", &n.met.PrefLate)
		r.BindCounter(p+"prefetch.useless", &n.met.PrefUseless)
		r.BindGauge(p+"slwb", &n.met.SLWB)
		r.BindHistogram(p+"flwb.wait", &n.met.FLWBWait)
		r.BindHistogram(p+"read.miss.stall", &n.met.ReadMissStall)
		r.BindHistogram(p+"lock.wait", &n.met.LockWait)
		r.BindHistogram(p+"barrier.wait", &n.met.BarrierWait)
	}
}
