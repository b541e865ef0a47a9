package machine

import (
	"prefetchsim/internal/coherence"
	"prefetchsim/internal/mem"
	"prefetchsim/internal/network"
	"prefetchsim/internal/sim"
)

// The protocol's multi-hop transactions (protocol.go) schedule one
// network-arrival event per hop. Each event is a pooled ev object that
// implements sim.Handler (fired by the engine) and coherence.Waiter
// (queued in the directory behind a busy entry), so the schedule/fire
// cycle of the protocol fast path allocates nothing in steady state: an ev is
// taken from the machine's free list when a hop is scheduled, reused
// in place across the hops of one transaction leg, and returned when
// the leg completes. The pool allocates evs in slabs; each ev registers
// with the engine once, when its slab is made, and keeps its id across
// reuse. The machine runs single-threaded per simulation,
// so the pool needs no locking.

// evKind identifies which protocol step an ev performs when it fires.
type evKind uint8

const (
	// evHomeRead: a read request arrives at the home directory.
	evHomeRead evKind = iota
	// evReadFwd: a home->owner forward arrives; the owner supplies a
	// dirty block and downgrades to Shared.
	evReadFwd
	// evReadWb: the owner's fresh copy arrives back at home.
	evReadWb
	// evReadFill: read data arrives at the requester.
	evReadFill
	// evHomeWrite: an ownership request arrives at the home directory.
	evHomeWrite
	// evInvCoord: never scheduled; collects invalidation acks for one
	// ownership request and issues the grant when the last arrives.
	evInvCoord
	// evInvSend: an invalidation arrives at a sharer.
	evInvSend
	// evInvAck: a sharer's invalidation ack arrives at home.
	evInvAck
	// evWriteFwd: a home->owner forward arrives; the owner supplies a
	// dirty block and invalidates it.
	evWriteFwd
	// evWriteData: the invalidated owner's data arrives at home.
	evWriteData
	// evWriteGrant: the ownership grant arrives at the requester.
	evWriteGrant
	// evWriteback: an eviction writeback arrives at the home directory.
	evWriteback
	// evWritebackAck: the writeback ack arrives back at the evictor.
	evWritebackAck
)

// ev is one pooled protocol event. Field meaning varies by kind: n is
// the requesting (or evicting) node, b the block, aux an owner node,
// invalidation target or outstanding-ack count, flag the
// owner-retains-copy / requester-was-sharer bit, and co the ack
// coordinator an invalidation round reports to.
type ev struct {
	m    *Machine
	kind evKind
	n    *node
	b    mem.Block
	tx   *pendingTx
	e    *coherence.Entry
	home int
	aux  int
	flag bool
	co   *ev
	next *ev           // machine free list
	id   sim.HandlerID // engine registration, kept across reuse
}

// Fire implements sim.Handler.
func (c *ev) Fire(t sim.Time) { c.m.fireEv(c, t) }

// Run implements coherence.Waiter: the directory entry became free and
// this home transaction now owns it.
func (c *ev) Run() { c.m.runHome(c) }

// evSlab is how many events the pool allocates and registers at once
// when it runs dry.
const evSlab = 32

// newEv takes an event from the pool.
func (m *Machine) newEv(kind evKind) *ev {
	if m.evFree == nil {
		slab := make([]ev, evSlab)
		for i := range slab {
			c := &slab[i]
			c.m = m
			c.id = m.eng.Register(c)
			c.next = m.evFree
			m.evFree = c
		}
	}
	c := m.evFree
	m.evFree = c.next
	c.kind = kind
	return c
}

// putEv clears an event and returns it to the pool.
func (m *Machine) putEv(c *ev) {
	*c = ev{m: c.m, next: m.evFree, id: c.id}
	m.evFree = c
}

// newTx takes a pending-transaction record from the pool.
func (m *Machine) newTx(kind txKind) *pendingTx {
	if k := len(m.txFree); k > 0 {
		tx := m.txFree[k-1]
		m.txFree = m.txFree[:k-1]
		*tx = pendingTx{kind: kind}
		return tx
	}
	return &pendingTx{kind: kind}
}

// putTx returns a retired transaction record to the pool. The caller
// must hold no further references: the record is reused by the next
// newTx.
func (m *Machine) putTx(tx *pendingTx) { m.txFree = append(m.txFree, tx) }

// fireEv dispatches a scheduled protocol event. Cases that reschedule
// c for the transaction's next hop return early; every other case
// falls through to the pool.
func (m *Machine) fireEv(c *ev, t sim.Time) {
	switch c.kind {
	case evHomeRead, evHomeWrite, evWriteback:
		// Home-side transactions serialize per block on the directory
		// entry; c waits (as coherence.Waiter) if one is in flight.
		if m.sp != nil && c.tx != nil {
			c.tx.span.Home = int64(t)
		}
		c.e = m.dir.Entry(c.b)
		if m.dir.Acquire(c.b, c) {
			m.runHome(c)
		}
		return // recycled at the end of runHome

	case evReadFwd:
		own := m.nodes[c.aux]
		supplyAt, hadCopy := m.ownerDowngrade(own, c.b)
		c.flag = hadCopy
		c.kind = evReadWb
		m.eng.Schedule(m.mesh.Send(network.ReplyPlane, c.aux, c.home, network.DataFlits, supplyAt), c.id)
		return

	case evReadWb:
		done := m.mems[c.home].Access(t)
		if m.sp != nil {
			c.tx.span.Reply = int64(done)
		}
		e := c.e
		e.State = coherence.SharedClean
		e.ClearSharers()
		if c.flag {
			e.AddSharer(c.aux)
		}
		e.AddSharer(c.n.id)
		c.kind = evReadFill
		m.eng.Schedule(m.mesh.Send(network.ReplyPlane, c.home, c.n.id, network.DataFlits, done), c.id)
		return

	case evReadFill:
		m.finishReadFill(c.n, c.b, c.tx)

	case evInvSend:
		ackAt := m.applyInv(m.nodes[c.aux], c.b)
		c.kind = evInvAck
		m.eng.Schedule(m.mesh.Send(network.ReplyPlane, c.aux, c.home, network.CtrlFlits, ackAt), c.id)
		return

	case evInvAck:
		co := c.co
		co.aux--
		if co.aux == 0 {
			if co.flag {
				m.sendWriteGrant(co, m.mems[co.home].Control(t), false)
			} else {
				m.sendWriteGrant(co, m.mems[co.home].Access(t), true)
			}
			m.putEv(co)
		}

	case evWriteFwd:
		supplyAt := m.ownerInvalidate(m.nodes[c.aux], c.b)
		c.kind = evWriteData
		m.eng.Schedule(m.mesh.Send(network.ReplyPlane, c.aux, c.home, network.DataFlits, supplyAt), c.id)
		return

	case evWriteData:
		m.sendWriteGrant(c, m.mems[c.home].Access(t), true)

	case evWriteGrant:
		m.finishWriteGrant(c.n, c.b, c.tx)

	case evWritebackAck:
		n, b := c.n, c.b
		cbs, _ := n.wbPending.Delete(b)
		for _, cb := range cbs {
			cb(t)
		}
	}
	m.putEv(c)
}

// runHome executes a home-side transaction that holds its directory
// entry, then recycles the event.
func (m *Machine) runHome(c *ev) {
	if m.sp != nil && c.tx != nil {
		// Service begins: the gap back to the Home stamp is the time
		// spent queued behind other transactions on this block's
		// directory entry.
		c.tx.span.Svc = int64(m.eng.Now())
	}
	switch c.kind {
	case evHomeRead:
		m.homeRead(c)
	case evHomeWrite:
		m.homeWrite(c)
	case evWriteback:
		m.homeWriteback(c)
	}
	m.putEv(c)
}
