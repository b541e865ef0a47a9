package machine

import (
	"fmt"

	"prefetchsim/internal/cache"
	"prefetchsim/internal/coherence"
	"prefetchsim/internal/mem"
	"prefetchsim/internal/network"
	"prefetchsim/internal/obs"
	"prefetchsim/internal/sim"
)

// This file implements the write-invalidate full-map directory protocol
// (paper §4, after Censier and Feautrier): a read miss is serviced by
// the home memory in zero or two node-to-node traversals when the
// memory copy is clean, and in four traversals when a remote cache
// holds a modified copy. Writes invalidate sharers and collect acks at
// the home. Directory entries serialize transactions per block (see
// DESIGN.md), which stands in for the transient states of a real
// implementation.
//
// Every protocol hop is a pooled ev (events.go), not a closure: the
// handlers here receive the ev carrying the transaction's state and
// reschedule it (or a fresh pooled ev) for the next hop.

// startReadTx registers the transaction (so later operations on the
// block merge with it instead of duplicating it), acquires an SLWB slot
// — demand reads wait for one; the prefetch path reserves its slot
// beforehand via trySLWB — and launches the read. For demand reads,
// issue is the processor-side issue time the eventual fill charges the
// read-stall against.
// cls is the span class of the demand miss being serviced (only
// stamped when spans are collected).
func (m *Machine) startReadTx(n *node, b mem.Block, isPrefetch bool, t sim.Time, demand bool, issue sim.Time, cls obs.SpanClass) {
	tx := m.newTx(txRead)
	tx.prefetch = isPrefetch
	tx.demand = demand
	tx.issue = issue
	if m.sp != nil {
		tx.span = obs.Span{Issue: int64(issue), Block: uint64(b), Node: int32(n.id), Class: cls}
	}
	n.pending.Put(b, tx)
	if n.slwbUsed < m.cfg.SLWBEntries {
		n.slwbUsed++
		n.slwbSet()
		m.dispatchReadTx(n, b, tx, t)
		return
	}
	n.slwbWaiters = append(n.slwbWaiters, slwbWaiter{b: b, tx: tx})
}

// sendReadTx launches a read transaction whose SLWB slot is already
// held.
func (m *Machine) sendReadTx(n *node, b mem.Block, isPrefetch bool, t sim.Time) {
	tx := m.newTx(txRead)
	tx.prefetch = isPrefetch
	if m.sp != nil {
		tx.span = obs.Span{Issue: int64(t), Block: uint64(b), Node: int32(n.id), Class: obs.SpanPrefetch}
	}
	n.pending.Put(b, tx)
	m.dispatchReadTx(n, b, tx, t)
}

func (m *Machine) dispatchReadTx(n *node, b mem.Block, tx *pendingTx, t sim.Time) {
	if m.sp != nil {
		tx.span.Req = int64(t)
	}
	home := m.home(b)
	arrive := m.mesh.Send(network.ReqPlane, n.id, home, network.CtrlFlits, t)
	c := m.newEv(evHomeRead)
	c.n, c.b, c.tx, c.home = n, b, tx, home
	m.eng.Schedule(arrive, c)
}

// homeRead services a read request at the block's home node. The event
// holds the directory entry (acquired in fireEv/runHome).
func (m *Machine) homeRead(c *ev) {
	e, n, b, home := c.e, c.n, c.b, c.home
	t := m.eng.Now()
	switch e.State {
	case coherence.Uncached, coherence.SharedClean:
		// Memory responds directly (0 or 2 traversals).
		done := m.mems[home].Access(t)
		if m.sp != nil {
			c.tx.span.Reply = int64(done)
		}
		e.State = coherence.SharedClean
		e.AddSharer(n.id)
		arrive := m.mesh.Send(network.ReplyPlane, home, n.id, network.DataFlits, done)
		f := m.newEv(evReadFill)
		f.n, f.b, f.tx, f.e = n, b, c.tx, e
		m.eng.Schedule(arrive, f)

	case coherence.Dirty:
		owner := e.Owner
		if owner == n.id {
			panic(fmt.Sprintf("machine: node %d read-misses a block the directory says it owns", n.id))
		}
		// Four traversals: home asks the owner for a fresh copy,
		// memory is updated, then the requester is answered
		// (evReadFwd -> evReadWb -> evReadFill in events.go).
		ctrl := m.mems[home].Control(t)
		fwd := m.mesh.Send(network.ReqPlane, home, owner, network.CtrlFlits, ctrl)
		f := m.newEv(evReadFwd)
		f.n, f.b, f.tx, f.e, f.home, f.aux = n, b, c.tx, e, home, owner
		m.eng.Schedule(fwd, f)
	}
}

// ownerDowngrade makes the owning node supply a modified block and keep
// a shared copy. If the owner evicted the block meanwhile (writeback in
// flight), the data comes from its victim buffer and it keeps nothing.
// It returns the supply time and whether the owner retains a copy.
func (m *Machine) ownerDowngrade(own *node, b mem.Block) (sim.Time, bool) {
	t := own.slcRes.Acquire(m.eng.Now(), SLCCycle) + SLCCycle
	if line, ok := own.slc.Lookup(b); ok {
		if line.State != cache.Modified {
			panic(fmt.Sprintf("machine: forward to node %d for block it holds in %v", own.id, line.State))
		}
		own.slc.SetState(b, cache.Shared)
		return t, true
	}
	if _, ok := own.wbPending.Get(b); !ok {
		panic(fmt.Sprintf("machine: forward to node %d for absent block %d with no writeback in flight", own.id, b))
	}
	return t, false
}

// ownerInvalidate makes the owning node supply a modified block and
// invalidate it (a write by another node). Returns the supply time.
func (m *Machine) ownerInvalidate(own *node, b mem.Block) sim.Time {
	t := own.slcRes.Acquire(m.eng.Now(), SLCCycle) + SLCCycle
	if line, ok := own.slc.Invalidate(b); ok {
		if line.State != cache.Modified {
			panic(fmt.Sprintf("machine: owner-invalidate at node %d for %v block", own.id, line.State))
		}
		own.flc.Invalidate(b)
		*own.hist.Ref(b) |= hInv
		own.st.InvalidationsReceived++
		return t
	}
	if _, ok := own.wbPending.Get(b); !ok {
		panic(fmt.Sprintf("machine: owner-invalidate at node %d for absent block %d with no writeback in flight", own.id, b))
	}
	return t
}

// resumeDemand unblocks the processor waiting on tx at time t, charging
// the read stall against the transaction's issue time.
func (m *Machine) resumeDemand(n *node, tx *pendingTx, t sim.Time) {
	n.st.ReadStall += t - tx.issue - FLCHit
	n.met.ReadMissStall.Observe(int64(t - tx.issue - FLCHit))
	n.time = t
	m.scheduleStep(n)
}

// finishReadFill completes a read transaction at the requester: the
// block is installed in the SLC (tagged if it was a pure prefetch), the
// FLC is filled for demand reads, and the processor resumes. The
// directory entry stays busy until the fill is applied, so no later
// transaction can observe the requester in a transitional state (the
// implicit completion ack of a real protocol).
func (m *Machine) finishReadFill(n *node, b mem.Block, tx *pendingTx, e *coherence.Entry) {
	t := m.eng.Now()
	slcStart := n.slcRes.Acquire(t, SLCCycle)
	done := slcStart + SLCCycle

	tag := tx.prefetch && !tx.demand && !tx.invalidated
	if m.sp != nil {
		m.completeReadSpan(n, tx, t, done, tag, b)
	}
	victim := n.slc.Insert(b, cache.Shared, tag)
	m.handleVictim(n, victim, done)
	h := n.hist.Ref(b)
	*h = (*h | hTouched) &^ (hInv | hRepl)

	if tx.invalidated {
		// An invalidation raced ahead of the data: the value is
		// delivered to the processor once but the block is not cached.
		n.slc.Invalidate(b)
		n.flc.Invalidate(b)
		*n.hist.Ref(b) |= hInv
	}
	if tx.demand {
		if !tx.invalidated {
			n.flc.Fill(b)
		}
		m.resumeDemand(n, tx, done+FLCFillForward)
	}
	n.pending.Delete(b)
	e.Release()

	if tx.wantWrite {
		// Writes merged onto this read; acquire ownership now, reusing
		// the SLWB slot.
		refs := tx.writeRefs
		m.putTx(tx)
		m.sendWriteTx(n, b, done, refs)
		return
	}
	m.putTx(tx)
	m.freeSLWB(n)
}

// startWriteTx registers the ownership transaction immediately (so
// later writes to the block merge onto it even while it waits for an
// SLWB slot), then acquires the slot and dispatches.
func (m *Machine) startWriteTx(n *node, b mem.Block, t sim.Time, refs int) {
	tx := m.newTx(txWrite)
	tx.writeRefs = refs
	if m.sp != nil {
		tx.span = obs.Span{Issue: int64(t), Block: uint64(b), Node: int32(n.id), Class: obs.SpanWrite}
	}
	n.pending.Put(b, tx)
	if n.slwbUsed < m.cfg.SLWBEntries {
		n.slwbUsed++
		n.slwbSet()
		m.dispatchWriteTx(n, b, tx, t)
		return
	}
	n.slwbWaiters = append(n.slwbWaiters, slwbWaiter{b: b, tx: tx})
}

// sendWriteTx launches an ownership transaction whose SLWB slot is
// already held (a write merged onto a completed read reuses its slot).
func (m *Machine) sendWriteTx(n *node, b mem.Block, t sim.Time, refs int) {
	tx := m.newTx(txWrite)
	tx.writeRefs = refs
	if m.sp != nil {
		tx.span = obs.Span{Issue: int64(t), Block: uint64(b), Node: int32(n.id), Class: obs.SpanWrite}
	}
	n.pending.Put(b, tx)
	m.dispatchWriteTx(n, b, tx, t)
}

func (m *Machine) dispatchWriteTx(n *node, b mem.Block, tx *pendingTx, t sim.Time) {
	if m.sp != nil {
		tx.span.Req = int64(t)
	}
	home := m.home(b)
	arrive := m.mesh.Send(network.ReqPlane, n.id, home, network.CtrlFlits, t)
	c := m.newEv(evHomeWrite)
	c.n, c.b, c.tx, c.home = n, b, tx, home
	m.eng.Schedule(arrive, c)
}

// sendWriteGrant makes c's requester the dirty owner and schedules the
// grant's arrival there. done is when home memory finished its part;
// withData picks data-vs-control reply size (an upgrade whose requester
// is still a sharer needs no data). c itself is not consumed: callers
// recycle it.
func (m *Machine) sendWriteGrant(c *ev, done sim.Time, withData bool) {
	if m.sp != nil {
		c.tx.span.Reply = int64(done)
	}
	e := c.e
	e.State = coherence.Dirty
	e.Owner = c.n.id
	e.ClearSharers()
	flits := network.CtrlFlits
	if withData {
		flits = network.DataFlits
	}
	arrive := m.mesh.Send(network.ReplyPlane, c.home, c.n.id, flits, done)
	f := m.newEv(evWriteGrant)
	f.n, f.b, f.tx, f.e = c.n, c.b, c.tx, c.e
	m.eng.Schedule(arrive, f)
}

// homeWrite services an ownership request (upgrade or read-exclusive).
// The event holds the directory entry.
func (m *Machine) homeWrite(c *ev) {
	e, n, home := c.e, c.n, c.home
	t := m.eng.Now()
	switch e.State {
	case coherence.Uncached:
		m.sendWriteGrant(c, m.mems[home].Access(t), true)

	case coherence.SharedClean:
		wasSharer := e.IsSharer(n.id)
		targets := e.SharerCount()
		if wasSharer {
			targets--
		}
		if targets == 0 {
			if wasSharer {
				m.sendWriteGrant(c, m.mems[home].Control(t), false)
			} else {
				m.sendWriteGrant(c, m.mems[home].Access(t), true)
			}
			return
		}
		// Invalidate every other sharer (ascending node order, for
		// reproducibility); acks collect on a pooled coordinator event
		// that issues the grant when the last one arrives (evInvAck in
		// events.go).
		ctrl := m.mems[home].Control(t)
		co := m.newEv(evInvCoord)
		co.n, co.b, co.tx, co.e, co.home = n, c.b, c.tx, e, home
		co.aux = targets
		co.flag = wasSharer
		for v, s := e.Bits(), 0; v != 0; v, s = v>>1, s+1 {
			if v&1 == 0 || s == n.id {
				continue
			}
			invArrive := m.mesh.Send(network.ReqPlane, home, s, network.CtrlFlits, ctrl)
			f := m.newEv(evInvSend)
			f.b, f.home, f.aux, f.co = c.b, home, s, co
			m.eng.Schedule(invArrive, f)
		}

	case coherence.Dirty:
		owner := e.Owner
		if owner == n.id {
			panic(fmt.Sprintf("machine: node %d write-misses a block the directory says it owns", n.id))
		}
		ctrl := m.mems[home].Control(t)
		fwd := m.mesh.Send(network.ReqPlane, home, owner, network.CtrlFlits, ctrl)
		f := m.newEv(evWriteFwd)
		f.n, f.b, f.tx, f.e, f.home, f.aux = n, c.b, c.tx, e, home, owner
		m.eng.Schedule(fwd, f)
	}
}

// finishWriteGrant completes an ownership transaction at the requester.
// As with read fills, the directory entry is released only once the
// grant is applied.
func (m *Machine) finishWriteGrant(n *node, b mem.Block, tx *pendingTx, e *coherence.Entry) {
	t := m.eng.Now()
	slcStart := n.slcRes.Acquire(t, SLCCycle)
	done := slcStart + SLCCycle

	if m.sp != nil {
		m.completeTxSpan(tx, t, done)
	}
	victim := n.slc.Insert(b, cache.Modified, false)
	m.handleVictim(n, victim, done)
	h := n.hist.Ref(b)
	*h = (*h | hTouched) &^ (hInv | hRepl)

	if tx.demand {
		// A read merged onto this ownership transaction.
		n.flc.Fill(b)
		m.resumeDemand(n, tx, done+FLCFillForward)
	}
	n.pending.Delete(b)
	e.Release()
	m.freeSLWB(n)

	n.outWrites -= tx.writeRefs
	if n.outWrites < 0 {
		panic("machine: outstanding-write underflow")
	}
	if n.outWrites == 0 && n.drainWait != nil {
		w := n.drainWait
		n.drainWait = nil
		w(done)
	}
	m.putTx(tx)
}

// applyInv applies an invalidation at a sharer node and returns the ack
// time. If the block's data is still in flight to this node, the fill
// is marked so the block is consumed once but not cached.
func (m *Machine) applyInv(n *node, b mem.Block) sim.Time {
	t := n.slcRes.Acquire(m.eng.Now(), SLCCycle) + SLCCycle
	if _, ok := n.slc.Invalidate(b); ok {
		n.flc.Invalidate(b)
		*n.hist.Ref(b) |= hInv
		n.st.InvalidationsReceived++
	} else if tx, ok := n.pending.Get(b); ok && tx.kind == txRead {
		tx.invalidated = true
	}
	return t
}

// handleVictim processes an SLC eviction: FLC inclusion is maintained,
// the history records a replacement, and modified victims are written
// back to their home memory.
func (m *Machine) handleVictim(n *node, v cache.Victim, t sim.Time) {
	if !v.Valid {
		return
	}
	n.flc.Invalidate(v.Block)
	*n.hist.Ref(v.Block) |= hRepl
	if v.Line.State != cache.Modified {
		return // shared victims are dropped silently (full-map tolerates stale presence bits)
	}
	n.st.Writebacks++
	if _, ok := n.wbPending.Get(v.Block); ok {
		panic("machine: duplicate writeback in flight")
	}
	n.wbPending.Put(v.Block, nil)
	home := m.home(v.Block)
	arrive := m.mesh.Send(network.ReqPlane, n.id, home, network.DataFlits, t)
	c := m.newEv(evWriteback)
	c.n, c.b, c.home = n, v.Block, home
	m.eng.Schedule(arrive, c)
}

// homeWriteback retires an eviction writeback at the home. A writeback
// that lost a race with another transaction (the directory no longer
// shows the sender as owner) is stale and is simply acknowledged.
func (m *Machine) homeWriteback(c *ev) {
	e, n, b, home := c.e, c.n, c.b, c.home
	t := m.eng.Now()
	var done sim.Time
	if e.State == coherence.Dirty && e.Owner == n.id {
		done = m.mems[home].Access(t)
		e.State = coherence.Uncached
		e.ClearSharers()
	} else {
		done = m.mems[home].Control(t)
	}
	ackArrive := m.mesh.Send(network.ReplyPlane, home, n.id, network.CtrlFlits, done)
	e.Release()
	f := m.newEv(evWritebackAck)
	f.n, f.b = n, b
	m.eng.Schedule(ackArrive, f)
}
