// Package network models the paper's interconnect: a single 4-by-4 mesh
// clocked at 100 MHz (1 network cycle = 1 pclock) with wormhole routing,
// 32-bit flits and a node fall-through latency of three network cycles.
//
// Contention is modelled with the standard wormhole/cut-through
// approximation: each unidirectional link keeps a free-at time; a
// message's head flit acquires each link along its XY route in turn,
// paying the fall-through latency per hop, and occupies the link for one
// cycle per flit. Deadlock freedom comes from dimension-ordered routing
// plus separate request and reply planes.
package network

import (
	"fmt"

	"prefetchsim/internal/sim"
)

// FallThrough is the per-hop node fall-through latency in network cycles
// (paper §4).
const FallThrough = 3

// Plane selects the virtual network a message travels on. Requests and
// replies use disjoint planes so request-reply dependency cycles cannot
// deadlock.
type Plane int

const (
	// ReqPlane carries requests (read miss, upgrade, invalidation...).
	ReqPlane Plane = iota
	// ReplyPlane carries replies (data, acks, grants).
	ReplyPlane
	numPlanes
)

// Message sizes in 32-bit flits. A request carries command + address
// (~96 bits with routing header); a data message adds a 32-byte block
// (8 flits).
const (
	CtrlFlits = 3
	DataFlits = CtrlFlits + 8
)

// direction indexes the four outgoing links of a router plus the
// ejection port.
const (
	dirEast = iota
	dirWest
	dirNorth
	dirSouth
	dirEject
	numDirs
)

// Mesh is the wormhole-routed interconnect.
type Mesh struct {
	cols, rows, nodes int
	// links[plane][node*numDirs+dir] is the outgoing link resource.
	links [numPlanes][]sim.Resource
	// The XY route from src to dst is the run of link indices
	// route[routeOff[k]:routeOff[k+1]], k = src*nodes+dst, built once by
	// New: routing a message is then a walk over that slice, with no
	// per-hop coordinate arithmetic.
	route    []int32
	routeOff []int32

	// BandwidthFactor divides link bandwidth: a factor of k makes every
	// flit occupy a link for k cycles (a narrower network). 0 = 1.
	BandwidthFactor int

	// Traffic statistics.
	Messages int64 // messages injected
	Flits    int64 // flits injected
	FlitHops int64 // flits × links traversed (network load)
}

// New returns a mesh connecting nodes routers arranged in the squarest
// exact grid (16 nodes → 4×4, matching the paper; 8 → 4×2; primes
// degenerate to a chain). The grid is always completely filled so
// dimension-ordered routes never traverse a missing router.
func New(nodes int) *Mesh {
	if nodes < 1 {
		panic("network: need at least one node")
	}
	rows := 1
	for d := 2; d*d <= nodes; d++ {
		if nodes%d == 0 {
			rows = nodes / d // keep the larger factor as columns
		}
	}
	cols := nodes / rows
	if cols < rows {
		cols, rows = rows, cols
	}
	m := &Mesh{cols: cols, rows: rows, nodes: nodes}
	for p := range m.links {
		m.links[p] = make([]sim.Resource, nodes*numDirs)
	}
	m.routeOff = make([]int32, 0, nodes*nodes+1)
	for src := 0; src < nodes; src++ {
		for dst := 0; dst < nodes; dst++ {
			m.routeOff = append(m.routeOff, int32(len(m.route)))
			for cur := src; cur != dst; {
				dir, next := m.step(cur, dst)
				m.route = append(m.route, int32(cur*numDirs+dir))
				cur = next
			}
		}
	}
	m.routeOff = append(m.routeOff, int32(len(m.route)))
	return m
}

// Hops returns the XY route length between two nodes.
func (m *Mesh) Hops(src, dst int) int {
	sx, sy := src%m.cols, src/m.cols
	dx, dy := dst%m.cols, dst/m.cols
	return abs(sx-dx) + abs(sy-dy)
}

// Send routes a message of flits flits from src to dst on plane p,
// starting at time t, and returns the time the tail flit arrives at dst.
// Contention with earlier messages on shared links delays the head. A
// message to the local node bypasses the network entirely.
func (m *Mesh) Send(p Plane, src, dst, flits int, t sim.Time) sim.Time {
	if src == dst {
		return t
	}
	m.Messages++
	m.Flits += int64(flits)

	factor := m.BandwidthFactor
	if factor < 1 {
		factor = 1
	}
	k := src*m.nodes + dst
	route := m.route[m.routeOff[k]:m.routeOff[k+1]]
	links := m.links[p]
	head := t
	hold := sim.Time(flits * factor) // one flit per network cycle at full width
	for _, l := range route {
		head = links[l].Acquire(head, hold) + FallThrough
	}
	m.FlitHops += int64(flits * len(route))
	// Ejection at the destination: the tail arrives flits cycles after
	// the head falls through the final router.
	return head + hold
}

// step returns the outgoing direction and next node for XY routing from
// cur toward dst (X first, then Y). New walks it once per node pair to
// build the route table.
func (m *Mesh) step(cur, dst int) (dir, next int) {
	cx, cy := cur%m.cols, cur/m.cols
	dx, dy := dst%m.cols, dst/m.cols
	switch {
	case cx < dx:
		return dirEast, cur + 1
	case cx > dx:
		return dirWest, cur - 1
	case cy < dy:
		return dirSouth, cur + m.cols
	case cy > dy:
		return dirNorth, cur - m.cols
	}
	panic(fmt.Sprintf("network: step called with cur == dst (%d)", cur))
}

// BusyTime sums link busy time across both planes, a coarse utilization
// measure used by bandwidth-limitation experiments.
func (m *Mesh) BusyTime() sim.Time {
	var total sim.Time
	for p := range m.links {
		for i := range m.links[p] {
			total += m.links[p][i].Busy
		}
	}
	return total
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
