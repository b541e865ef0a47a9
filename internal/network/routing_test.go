package network

import (
	"testing"

	"prefetchsim/internal/sim"
)

// Non-square node counts must still form complete grids: every XY route
// must stay within existing routers (regression: 8 nodes once built a
// holed 3×3 grid that routing could fall off).
func TestAllPairsRoutableForManyNodeCounts(t *testing.T) {
	for _, nodes := range []int{1, 2, 3, 4, 6, 8, 12, 16, 32, 64} {
		m := New(nodes)
		if m.cols*m.rows != nodes {
			t.Fatalf("%d nodes: grid %dx%d is not exact", nodes, m.cols, m.rows)
		}
		for s := 0; s < nodes; s++ {
			for d := 0; d < nodes; d++ {
				m.Send(ReqPlane, s, d, CtrlFlits, 0) // must not panic
			}
		}
	}
}

func TestSixteenNodesStillFourByFour(t *testing.T) {
	m := New(16)
	if m.cols != 4 || m.rows != 4 {
		t.Fatalf("16 nodes → %dx%d, want the paper's 4x4", m.cols, m.rows)
	}
}

// TestRouteTableMatchesStepWalk checks every precomputed route, for
// every node count a machine can have, against the XY walk of step.
func TestRouteTableMatchesStepWalk(t *testing.T) {
	for nodes := 1; nodes <= 64; nodes++ {
		m := New(nodes)
		for src := 0; src < nodes; src++ {
			for dst := 0; dst < nodes; dst++ {
				k := src*nodes + dst
				route := m.route[m.routeOff[k]:m.routeOff[k+1]]
				var want []int32
				for cur := src; cur != dst; {
					dir, next := m.step(cur, dst)
					want = append(want, int32(cur*numDirs+dir))
					cur = next
				}
				if len(route) != len(want) || len(route) != m.Hops(src, dst) {
					t.Fatalf("%d nodes, %d→%d: route %v, step walk %v", nodes, src, dst, route, want)
				}
				for i := range want {
					if route[i] != want[i] {
						t.Fatalf("%d nodes, %d→%d: route %v, step walk %v", nodes, src, dst, route, want)
					}
				}
			}
		}
	}
}

// sendByStep is Send as it was before the route table: it recomputes
// the XY route hop by hop with step. Kept as the oracle for Send.
func (m *Mesh) sendByStep(p Plane, src, dst, flits int, t sim.Time) sim.Time {
	if src == dst {
		return t
	}
	m.Messages++
	m.Flits += int64(flits)
	factor := m.BandwidthFactor
	if factor < 1 {
		factor = 1
	}
	head := t
	cur := src
	hold := sim.Time(flits * factor)
	for cur != dst {
		dir, next := m.step(cur, dst)
		link := &m.links[p][cur*numDirs+dir]
		start := link.Acquire(head, hold)
		head = start + FallThrough
		cur = next
		m.FlitHops += int64(flits)
	}
	return head + hold
}

// TestSendMatchesStepOracle replays one random message sequence through
// Send and through the hop-by-hop oracle on twin meshes: every arrival
// time, traffic counter and link busy time must agree.
func TestSendMatchesStepOracle(t *testing.T) {
	for _, nodes := range []int{2, 8, 12, 16, 64} {
		for _, factor := range []int{0, 2} {
			got, want := New(nodes), New(nodes)
			got.BandwidthFactor, want.BandwidthFactor = factor, factor
			r := sim.NewRand(uint64(nodes*10 + factor + 1))
			var now sim.Time
			for i := 0; i < 20000; i++ {
				p := Plane(r.Intn(int(numPlanes)))
				src, dst := r.Intn(nodes), r.Intn(nodes)
				flits := CtrlFlits
				if r.Intn(2) == 0 {
					flits = DataFlits
				}
				now += sim.Time(r.Intn(8))
				a, b := got.Send(p, src, dst, flits, now), want.sendByStep(p, src, dst, flits, now)
				if a != b {
					t.Fatalf("%d nodes, factor %d, message %d (%d→%d): Send = %d, oracle %d",
						nodes, factor, i, src, dst, a, b)
				}
			}
			if got.Messages != want.Messages || got.Flits != want.Flits || got.FlitHops != want.FlitHops {
				t.Fatalf("%d nodes: counters %d/%d/%d, oracle %d/%d/%d", nodes,
					got.Messages, got.Flits, got.FlitHops, want.Messages, want.Flits, want.FlitHops)
			}
			if got.BusyTime() != want.BusyTime() {
				t.Fatalf("%d nodes: busy time %d, oracle %d", nodes, got.BusyTime(), want.BusyTime())
			}
		}
	}
}

// TestSendAllocatesNothing guards the 0 allocs/op BenchmarkMeshSend
// reports; CI runs no benchmarks, so this plain test is what holds it.
func TestSendAllocatesNothing(t *testing.T) {
	m := New(16)
	var now sim.Time
	i := 0
	if a := testing.AllocsPerRun(1000, func() {
		now = m.Send(ReqPlane, i%16, (i*5+1)%16, DataFlits, now)
		i++
	}); a != 0 {
		t.Fatalf("Send allocated %.1f times per message, want 0", a)
	}
}
