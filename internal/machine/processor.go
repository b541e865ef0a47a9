package machine

import (
	"fmt"

	"prefetchsim/internal/cache"
	"prefetchsim/internal/mem"
	"prefetchsim/internal/obs"
	"prefetchsim/internal/prefetch"
	"prefetchsim/internal/sim"
	"prefetchsim/internal/trace"
)

// stepNode is the processor's fetch-execute loop. Operations that hit
// the FLC or are buffered (writes) execute inline; the loop is bounded
// by the engine's next pending event so local batching never violates
// causality (an invalidation scheduled for t must be applied before this
// node reads at t' > t). Blocking operations return from the loop; their
// completion callbacks reschedule it.
//
// The loop has two gears. runBatch executes the longest possible run of
// purely local ops (FLC read hits, writes performed in an owned SLC
// line) straight out of the node's current op batch with the causality
// horizon loaded once — those ops never touch the event queue, so the
// horizon cannot move under them. The general gear below handles one op
// at a time through the dispatch switch, re-reading the horizon per op
// because misses and transactions schedule events.
func (m *Machine) stepNode(n *node) {
	if n.done {
		return
	}
	for {
		if !n.stashed && n.bi < len(n.batch) {
			m.runBatch(n)
		}
		op := n.nextOp()
		// Apply the think gap, then make sure no pending event (an
		// invalidation, another node's transaction) is scheduled before
		// this op would execute; if one is, stash the op and resume at
		// the op's own time.
		n.time += sim.Time(op.Gap)
		if n.time > m.eng.Horizon() {
			op.Gap = 0
			n.stash, n.stashed = op, true
			m.scheduleStep(n)
			return
		}
		switch op.Kind {
		case trace.Read:
			if !m.doRead(n, op) {
				return // blocked; fill callback resumes
			}
		case trace.Write:
			if !m.doWrite(n, op) {
				return // sequential consistency: blocked until performed
			}
		case trace.Acquire:
			m.doAcquire(n, op.Addr)
			return
		case trace.Release:
			if !m.doRelease(n, op.Addr) {
				return // waiting for write drain
			}
		case trace.Barrier:
			m.doBarrier(n, op.Addr)
			return
		case trace.End:
			n.done = true
			n.st.ExecTime = n.time
			return
		default:
			panic(fmt.Sprintf("machine: node %d: unknown op kind %v", n.id, op.Kind))
		}
	}
}

// runBatch is the fused fast path: it consumes a prefix of the node's
// local op batch consisting of FLC read hits and release-consistency
// writes that perform locally in a Modified SLC line, without
// re-entering the dispatch switch per op. Neither kind of op schedules
// an event, so the engine's horizon — the causality bound — is read
// once and stays exact for the whole run: the first op at or past a
// pending event's time (or needing any non-local action) breaks the
// run and falls back to the general gear, which replays the very same
// checks one op at a time. The inlined arithmetic below mirrors
// doRead's hit path and doWrite's owned-line path exactly; the golden
// digests pin that equivalence.
func (m *Machine) runBatch(n *node) {
	horizon := m.eng.Horizon()
	ops := n.batch
	i := n.bi
	t := n.time
	var reads int64
	for i < len(ops) {
		op := &ops[i]
		at := t + sim.Time(op.Gap)
		if at > horizon {
			break
		}
		if op.Kind == trace.Read {
			if !n.flc.Lookup(mem.BlockOf(mem.Addr(op.Addr))) {
				break
			}
			reads++
			t = at + FLCHit
		} else if op.Kind == trace.Write && !m.cfg.SequentialConsistency {
			line, present := n.slc.Lookup(mem.BlockOf(mem.Addr(op.Addr)))
			if !present || line.State != cache.Modified || line.Prefetched {
				break
			}
			// Exclusive owner: the write drains from the FLWB through
			// the SLC and performs locally (doWrite's Modified path).
			n.st.Writes++
			admit := n.flwb.AdmitAt(at)
			if admit > at {
				n.st.WriteStall += admit - at
				n.met.FLWBWait.Observe(int64(admit - at))
				if m.sp != nil {
					m.stallSpan(obs.SpanFLWB, n, uint64(mem.BlockOf(mem.Addr(op.Addr))), at, admit, admit-at)
				}
			}
			t = admit + 1
			slcStart := n.slcRes.Acquire(admit+1, SLCCycle)
			n.flwb.Add(slcStart + SLCCycle)
		} else {
			break
		}
		i++
	}
	n.st.Reads += reads
	n.st.FLCReadHits += reads
	n.bi = i
	n.time = t
}

// nextOp returns the stashed op, if any, the next op of the local
// batch, or — at a batch boundary — the first op of a freshly fetched
// batch.
func (n *node) nextOp() trace.Op {
	if n.stashed {
		n.stashed = false
		return n.stash
	}
	if n.bi < len(n.batch) {
		op := n.batch[n.bi]
		n.bi++
		return op
	}
	return n.refill()
}

// refill fetches the node's next run of operations. Batched streams
// hand over a whole slice (the drained one is recycled to the
// producer's free list first); legacy per-op streams fall back to one
// interface call per op. A nil batch means the stream is exhausted and
// End is synthesized, matching Stream.Next's contract.
func (n *node) refill() trace.Op {
	if n.bs == nil {
		return n.stream.Next()
	}
	if n.batch != nil {
		n.bs.Recycle(n.batch)
		n.batch = nil
	}
	batch := n.bs.NextBatch()
	if len(batch) == 0 {
		n.bi = 0
		return trace.Op{Kind: trace.End}
	}
	n.batch, n.bi = batch, 1
	return batch[0]
}

// doRead executes one load. It returns true if the processor can
// continue (FLC or SLC hit) and false if it blocked on a miss.
func (m *Machine) doRead(n *node, op trace.Op) bool {
	n.st.Reads++
	addr := mem.Addr(op.Addr)
	b := mem.BlockOf(addr)
	issue := n.time

	if n.flc.Lookup(b) {
		n.st.FLCReadHits++
		n.time = issue + FLCHit
		return true
	}

	// FLC miss: the request is FIFO-ordered behind writes buffered in
	// the FLWB (paper §2), then accesses the SLC.
	reqAt := issue + FLCHit
	if tail := n.flwb.Tail(); tail > reqAt {
		reqAt = tail
	}
	slcStart := n.slcRes.Acquire(reqAt, SLCCycle)

	line, present := n.slc.Lookup(b)
	consumed := false
	if present && line.Prefetched {
		n.slc.ClearPrefetched(b)
		n.st.PrefetchesUseful++
		n.met.PrefUseful.Inc()
		if m.sp != nil {
			m.consumePrefetchSpan(n, b, slcStart)
		}
		consumed = true
	}

	// Every read presented to the SLC is visible to the prefetch
	// mechanism (§3.2); proposals issue after the current access. A
	// block whose prefetch is still in flight is reported as merged.
	merged := false
	if tx, ok := n.pending.Get(b); ok && tx.kind == txRead && tx.prefetch {
		merged = true
	}
	m.firePrefetcher(n, op.PC, addr, b, present, consumed, merged, slcStart+SLCCycle)

	if present {
		n.st.SLCReadHits++
		n.flc.Fill(b)
		done := slcStart + SLCHitExtra
		n.st.ReadStall += done - issue - FLCHit
		if m.sp != nil {
			m.stallSpan(obs.SpanSLCHit, n, uint64(b), issue, done, done-issue-FLCHit)
		}
		n.time = done
		return true
	}

	// SLC miss.
	if tx, ok := n.pending.Get(b); ok {
		// The block is already in flight; the read merges with the
		// outstanding SLWB entry rather than issuing a new request.
		if tx.prefetch && !tx.demand {
			// A prefetch beat the processor to the request: a delayed
			// hit, not a read miss — the prefetch removed the miss but
			// not (yet) all of its latency. The residual wait shows up
			// in the read stall time, as in the paper's Figure 6.
			n.st.PrefetchesMerged++
			n.st.PrefetchesUseful++
			n.st.DelayedHits++
			n.met.PrefUseful.Inc()
			n.met.PrefLate.Inc()
		} else {
			// Merging with an ownership acquisition or another demand
			// request: still a read miss.
			n.st.ReadMisses++
			cls := m.classifyMiss(n, b)
			if m.sp != nil {
				// The servicing transaction's span reports this miss's
				// class (a pure write span becomes a miss span).
				tx.span.Class = cls
			}
			if m.cfg.MissObserver != nil {
				m.cfg.MissObserver(n.id, op.PC, addr)
			}
		}
		tx.demand = true
		tx.issue = issue
		return false
	}
	n.st.ReadMisses++
	cls := m.classifyMiss(n, b)
	if m.cfg.MissObserver != nil {
		m.cfg.MissObserver(n.id, op.PC, addr)
	}
	missAt := slcStart + SLCCycle
	if cbs := n.wbPending.Ptr(b); cbs != nil {
		// The node is writing this very block back; wait for the ack so
		// the directory never sees us as both owner and requester. A
		// write deferred behind the same writeback may have started a
		// transaction by the time the ack arrives: merge with it.
		*cbs = append(*cbs, func(t sim.Time) {
			if tx, ok := n.pending.Get(b); ok {
				tx.demand = true
				tx.issue = issue
				if m.sp != nil {
					tx.span.Class = cls
				}
				return
			}
			m.startReadTx(n, b, false, t, true, issue, cls)
		})
		return false
	}
	m.startReadTx(n, b, false, missAt, true, issue, cls)
	return false
}

// firePrefetcher lets the node's prefetch engine observe an SLC read.
// Proposals arrive on the node's cached pfEmit callback (built once in
// New, so the per-read hot path allocates no closure); the triggering
// block and issue time travel in the node's pfBlock/pfTime scratch
// fields. OnRead never re-enters the processor, so the scratch fields
// are stable for the duration of the call.
func (m *Machine) firePrefetcher(n *node, pc trace.PC, addr mem.Addr, b mem.Block, hit, consumed, merged bool, t sim.Time) {
	n.pfBlock, n.pfTime = b, t
	n.pf.OnRead(prefetch.Request{
		PC: pc, Addr: addr, Block: b, Hit: hit, TagConsumed: consumed, Merged: merged,
	}, n.pfEmit)
}

// emitPrefetch issues one prefetch proposal that survives filtering:
// same page (§2, no prefetching across page boundaries — lifted for
// schemes that replay known translations, see prefetch.PageCrosser),
// not cached, not already in flight, and an SLWB slot available
// (otherwise the prefetch is dropped).
func (m *Machine) emitPrefetch(n *node, pb mem.Block) {
	b := n.pfBlock
	if pb == b || (!n.pfCross && !mem.SamePage(b, pb)) {
		return
	}
	if _, ok := n.slc.Lookup(pb); ok {
		return
	}
	if _, ok := n.pending.Get(pb); ok {
		return
	}
	if _, ok := n.wbPending.Get(pb); ok {
		return
	}
	if !m.trySLWB(n) {
		return
	}
	n.st.PrefetchesIssued++
	n.met.PrefIssued.Inc()
	m.sendReadTx(n, pb, true, n.pfTime)
}

// doWrite executes one store and reports whether the processor may
// continue. Under release consistency writes are buffered and the
// processor only stalls when the FLWB is full; under sequential
// consistency it additionally blocks until the write is globally
// performed.
func (m *Machine) doWrite(n *node, op trace.Op) bool {
	n.st.Writes++
	b := mem.BlockOf(mem.Addr(op.Addr))
	issue := n.time

	admit := n.flwb.AdmitAt(issue)
	if admit > issue {
		n.st.WriteStall += admit - issue
		n.met.FLWBWait.Observe(int64(admit - issue))
		if m.sp != nil {
			m.stallSpan(obs.SpanFLWB, n, uint64(b), issue, admit, admit-issue)
		}
	}
	n.time = admit + 1

	// The write drains from the FLWB through the SLC (write-through FLC,
	// no allocation on FLC write misses: FLC presence is unchanged).
	slcStart := n.slcRes.Acquire(admit+1, SLCCycle)
	completion := slcStart + SLCCycle
	n.flwb.Add(completion)

	line, present := n.slc.Lookup(b)
	if present && line.Prefetched {
		// A store consumes the prefetched block too.
		n.slc.ClearPrefetched(b)
		n.st.PrefetchesUseful++
		n.met.PrefUseful.Inc()
		if m.sp != nil {
			m.consumePrefetchSpan(n, b, slcStart)
		}
	}
	if present && line.State == cache.Modified {
		// Exclusive: the write performs locally.
		if m.cfg.SequentialConsistency && completion > n.time {
			if m.sp != nil {
				m.stallSpan(obs.SpanSCWrite, n, uint64(b), n.time, completion, completion-n.time)
			}
			n.st.WriteStall += completion - n.time
			n.time = completion
		}
		return true
	}

	// Ownership is needed: the write completes (for release
	// consistency) when the directory grants it.
	n.outWrites++
	if tx, ok := n.pending.Get(b); ok {
		tx.writeRefs++
		if tx.kind == txRead {
			tx.wantWrite = true
		}
	} else if cbs := n.wbPending.Ptr(b); cbs != nil {
		// Another operation deferred behind the same writeback may have
		// started a transaction by ack time: merge onto it.
		*cbs = append(*cbs, func(t sim.Time) {
			if tx, ok := n.pending.Get(b); ok {
				tx.writeRefs++
				if tx.kind == txRead {
					tx.wantWrite = true
				}
				return
			}
			m.startWriteTx(n, b, t, 1)
		})
	} else {
		m.startWriteTx(n, b, completion, 1)
	}

	if m.cfg.SequentialConsistency {
		// Block until the write is globally performed (all outstanding
		// writes drained — under SC there is only ever this one).
		issue := n.time
		if n.drainWait != nil {
			panic("machine: overlapping drain waits under SC")
		}
		n.drainWait = func(t sim.Time) {
			n.st.WriteStall += t - issue
			if m.sp != nil {
				m.stallSpan(obs.SpanSCWrite, n, uint64(b), issue, t, t-issue)
			}
			n.time = t + 1
			m.scheduleStep(n)
		}
		return false
	}
	return true
}
