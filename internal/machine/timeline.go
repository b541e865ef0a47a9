package machine

import (
	"prefetchsim/internal/obs"
	"prefetchsim/internal/sim"
)

// The timeline tick: when Config.Timeline is set, the machine schedules
// one self-rescheduling event every Window pclocks of virtual time that
// snapshots the cumulative instruments; the obs.Timeline differences
// consecutive snapshots into per-window deltas. The tick only reads
// state, so it changes no statistic — it does ride the event queue,
// which bounds the fused batch loop's horizon more often, but the
// per-op timing arithmetic is identical either way (the spans/timeline
// differential test pins the stats digest).

// timelineTick records one window and reschedules itself while the
// simulation still has work pending (stopping on an empty queue keeps
// the engine's run loop able to terminate).
func (m *Machine) timelineTick() {
	now := m.eng.Now()
	m.tl.Record(m.timePoint(now))
	if m.eng.Pending() > 0 {
		m.eng.At(now+sim.Time(m.tl.Window()), m.tlFn)
	}
}

// timePoint builds the cumulative machine-wide snapshot at virtual
// time at. Counter fields are running totals (differenced by the
// Timeline); SLWB is the instantaneous summed write-buffer occupancy.
func (m *Machine) timePoint(at sim.Time) obs.TimePoint {
	p := obs.TimePoint{T: int64(at)}
	for _, n := range m.nodes {
		st := n.st
		p.Reads += st.Reads
		p.Writes += st.Writes
		p.Misses += st.ReadMisses
		p.MissCold += st.ColdMisses
		p.MissCoherence += st.CoherenceMisses
		p.MissReplacement += st.ReplacementMisses
		p.PrefIssued += st.PrefetchesIssued
		p.PrefUseful += st.PrefetchesUseful
		p.PrefLate += st.DelayedHits
		p.ReadStall += int64(st.ReadStall)
		p.WriteStall += int64(st.WriteStall)
		p.SyncStall += int64(st.SyncStall)
		p.SLWB += int64(n.slwbUsed)
	}
	p.NetMsgs = m.mesh.Messages
	p.NetFlits = m.mesh.Flits
	p.NetFlitHops = m.mesh.FlitHops
	p.Events = m.engMet.Events
	return p
}
