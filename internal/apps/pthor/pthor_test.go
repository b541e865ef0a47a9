package pthor

import (
	"testing"

	"prefetchsim/internal/apps/apptest"
	"prefetchsim/internal/apps/workload"
	"prefetchsim/internal/mem"
	"prefetchsim/internal/sim"
	"prefetchsim/internal/trace"
)

func TestGateRecordIsThreeBlocks(t *testing.T) {
	if gateBytes != 3*mem.BlockBytes {
		t.Fatalf("gate record = %d bytes", gateBytes)
	}
}

func TestDefaultConfigScales(t *testing.T) {
	if DefaultConfig(workload.Params{Scale: 2}).Gates <= DefaultConfig(workload.Params{}).Gates {
		t.Fatal("scale 2 did not grow the circuit")
	}
}

func TestNewPanicsOnTinyCircuit(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("did not panic")
		}
	}()
	New(Config{Params: workload.Params{Procs: 16}, Gates: 10, Steps: 1})
}

func TestActivityPersists(t *testing.T) {
	// The XOR/NAND mix must keep the circuit alive: the last step still
	// processes gates (otherwise the workload degenerates to barriers).
	cfg := Config{Params: workload.Params{Procs: 2, Seed: 3}, Gates: 500, Steps: 40}
	p := New(cfg)
	defer p.Stop()
	reads := 0
	barriers := 0
	lastActiveBarrier := 0
	for {
		op := p.Streams[0].Next()
		if op.Kind == trace.End {
			break
		}
		switch op.Kind {
		case trace.Barrier:
			barriers++
		case trace.Read:
			reads++
			lastActiveBarrier = barriers
		}
	}
	if barriers != cfg.Steps {
		t.Fatalf("barriers = %d, want %d", barriers, cfg.Steps)
	}
	if reads == 0 {
		t.Fatal("no gate evaluations at all")
	}
	if lastActiveBarrier < cfg.Steps*3/4 {
		t.Fatalf("activity died out after step %d of %d", lastActiveBarrier, cfg.Steps)
	}
}

func TestInputPointerChasingIsScattered(t *testing.T) {
	// The two input reads of consecutive evaluations must not form long
	// equidistant runs (PTHOR is the paper's stride-free control).
	p := New(Config{Params: workload.Params{Procs: 1, Seed: 5}, Gates: 400, Steps: 5})
	defer p.Stop()
	var addrs []uint64
	for {
		op := p.Streams[0].Next()
		if op.Kind == trace.End {
			break
		}
		if op.PC == pcIn {
			addrs = append(addrs, op.Addr)
		}
	}
	if len(addrs) < 100 {
		t.Fatalf("only %d input reads", len(addrs))
	}
	runs := 0
	for i := 2; i < len(addrs); i++ {
		if addrs[i]-addrs[i-1] == addrs[i-1]-addrs[i-2] && addrs[i] != addrs[i-1] {
			runs++
		}
	}
	if frac := float64(runs) / float64(len(addrs)); frac > 0.05 {
		t.Fatalf("%.1f%% of input reads are equidistant; pointer chasing should be scattered", 100*frac)
	}
}

// oracle is PTHOR's generator as it ran before the resumable port: a
// straight-line body in a producer goroutine per processor, over the
// same circuit.
func oracle(c Config) *trace.Program {
	c.Params = c.Params.Norm()
	P, G := c.Procs, c.Gates
	ck := newCircuit(c)
	in1, in2, fanout, active, changed := ck.in1, ck.in2, ck.fanout, ck.active, ck.changed
	space := mem.NewSpace()
	gates := mem.NewArray(space, G, gateBytes, gateBytes)
	chunk := (G + P - 1) / P
	return workload.Build("PTHOR-oracle", P, func(p int, g *workload.Gen) {
		lo, hi := int32(p*chunk), int32((p+1)*chunk)
		if hi > int32(G) {
			hi = int32(G)
		}
		order := sim.NewRand(c.Seed*31 + uint64(p)*7919 + 3)
		for step := 0; step < c.Steps; step++ {
			var mine []task
			for ai, gi := range active[step] {
				if gi >= lo && gi < hi {
					mine = append(mine, task{gi: gi, flip: changed[step][ai]})
				}
			}
			for i := len(mine) - 1; i > 0; i-- {
				j := order.Intn(i + 1)
				mine[i], mine[j] = mine[j], mine[i]
			}
			for _, tk := range mine {
				gid := int(tk.gi)
				g.Read(pcSchedR, gates.At(gid, offSched), 2)
				g.Read(pcSelf, gates.At(gid, offOut), 2)
				g.Read(pcStateR, gates.At(gid, offState), 1)
				g.Read(pcPtr, gates.At(gid, offIn), 1)
				g.Read(pcPtr, gates.At(gid, offIn+8), 1)
				g.Read(pcIn, gates.At(int(in1[gid]), offOut), 4)
				g.Read(pcIn, gates.At(int(in2[gid]), offOut), 4)
				if tk.flip {
					g.Write(pcOutW, gates.At(gid, offOut), 3)
					for fi, succ := range fanout[gid] {
						if fi == 4 {
							break
						}
						g.Write(pcSchedW, gates.At(int(succ), offSched), 2)
					}
				}
			}
			g.Barrier()
		}
	})
}

// TestMatchesGoroutineOracle pins the resumable port to the goroutine
// body it replaced, op for op on every stream, at the paper's
// configuration (16 processors, scale 1), at scale 2 (Table 4) and
// under several seeds.
func TestMatchesGoroutineOracle(t *testing.T) {
	for _, p := range []workload.Params{
		{Procs: 16, Scale: 1, Seed: 1},
		{Procs: 16, Scale: 1, Seed: 2},
		{Procs: 16, Scale: 2, Seed: 1},
		{Procs: 3, Scale: 1, Seed: 5},
	} {
		c := DefaultConfig(p)
		apptest.SameOps(t, New(c), oracle(c))
	}
}

func TestResumptionIsSeamless(t *testing.T) {
	c := DefaultConfig(workload.Params{Procs: 4, Seed: 3})
	c.Steps = 40
	apptest.SeamlessResumption(t, func() *trace.Program { return New(c) })
}

func TestRefillAllocatesNothing(t *testing.T) {
	apptest.ZeroAllocRefill(t, New(DefaultConfig(workload.Params{Procs: 16, Seed: 1})))
}
