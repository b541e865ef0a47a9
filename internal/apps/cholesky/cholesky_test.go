package cholesky

import (
	"testing"

	"prefetchsim/internal/apps/apptest"
	"prefetchsim/internal/apps/workload"
	"prefetchsim/internal/mem"
	"prefetchsim/internal/trace"
)

func TestDefaultConfigScales(t *testing.T) {
	small := DefaultConfig(workload.Params{Scale: 1})
	large := DefaultConfig(workload.Params{Scale: 2})
	if large.Supernodes <= small.Supernodes {
		t.Fatal("scale 2 did not grow the factorization")
	}
	if small.Width != 8 {
		t.Fatalf("width = %d", small.Width)
	}
}

func TestNewPanicsOnTooFewSupernodes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("did not panic")
		}
	}()
	New(Config{Params: workload.Params{Procs: 16}, Supernodes: 4, Width: 4, Reach: 2})
}

func TestPanelHeightsShrink(t *testing.T) {
	p := New(Config{Params: workload.Params{Procs: 2}, Supernodes: 10, Width: 4, Reach: 3})
	defer p.Stop()
	// Factor-phase writes for supernode 0 (owner: proc 0) must cover a
	// larger panel than later supernodes'. Count pcFacW writes per
	// even-numbered supernode in proc 0's stream.
	var perSuper []int
	count := 0
	barriers := 0
	for {
		op := p.Streams[0].Next()
		if op.Kind == trace.End {
			break
		}
		switch {
		case op.Kind == trace.Barrier:
			barriers++
			if barriers%2 == 1 { // end of a factor phase
				perSuper = append(perSuper, count)
				count = 0
			}
		case op.Kind == trace.Write && op.PC == pcFacW:
			count++
		}
	}
	// Proc 0 owns supernodes 0, 2, 4...; entries for odd supernodes are 0.
	if len(perSuper) < 10 || perSuper[0] == 0 {
		t.Fatalf("factor write counts: %v", perSuper)
	}
	if last := perSuper[8]; last >= perSuper[0] {
		t.Fatalf("panel heights do not shrink: first %d, ninth %d", perSuper[0], last)
	}
}

func TestUpdatesAreDeterministicPerPair(t *testing.T) {
	mk := func() []trace.Op {
		p := New(Config{Params: workload.Params{Procs: 2}, Supernodes: 8, Width: 4, Reach: 3})
		defer p.Stop()
		var ops []trace.Op
		for {
			op := p.Streams[1].Next()
			if op.Kind == trace.End {
				break
			}
			ops = append(ops, op)
		}
		return ops
	}
	a, b := mk(), mk()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d differs", i)
		}
	}
}

// oracle is Cholesky's generator as it ran before the resumable port:
// a straight-line body in a producer goroutine per processor, over the
// same panel layout.
func oracle(c Config) *trace.Program {
	c.Params = c.Params.Norm()
	P, S := c.Procs, c.Supernodes
	l := newLayout(c)
	panels, panelBytes := l.panels, l.panelBytes
	return workload.Build("Cholesky-oracle", P, func(p int, g *workload.Gen) {
		for s := 0; s < S; s++ {
			if s%P == p {
				for off := 0; off < panelBytes[s]; off += workload.WordBytes {
					g.Read(pcFacR, panels[s]+mem.Addr(off), 1)
					g.Write(pcFacW, panels[s]+mem.Addr(off), 2)
				}
			}
			g.Barrier()
			for _, t := range l.updates(s, nil) {
				if t%P != p {
					continue
				}
				off, length := l.rangeFor(s, t)
				tOff, tLen := l.rangeFor(t, s)
				if tOff+tLen > panelBytes[t] {
					tOff, tLen = 0, panelBytes[t]
				}
				for o := 0; o < length; o += workload.WordBytes {
					g.Read(pcSrcR, panels[s]+mem.Addr(off+o), 2)
					to := tOff + o%tLen
					g.Read(pcTgtR, panels[t]+mem.Addr(to), 2)
					g.Write(pcTgtW, panels[t]+mem.Addr(to), 4)
				}
			}
			g.Barrier()
		}
	})
}

// TestMatchesGoroutineOracle pins the resumable port to the goroutine
// body it replaced, op for op on every stream, at the paper's
// configuration (16 processors, scale 1) and at scale 2 (Table 4).
func TestMatchesGoroutineOracle(t *testing.T) {
	for _, p := range []workload.Params{
		{Procs: 16, Scale: 1},
		{Procs: 16, Scale: 2},
		{Procs: 3, Scale: 1},
	} {
		c := DefaultConfig(p)
		apptest.SameOps(t, New(c), oracle(c))
	}
}

func TestResumptionIsSeamless(t *testing.T) {
	c := DefaultConfig(workload.Params{Procs: 4})
	apptest.SeamlessResumption(t, func() *trace.Program { return New(c) })
}

func TestRefillAllocatesNothing(t *testing.T) {
	apptest.ZeroAllocRefill(t, New(DefaultConfig(workload.Params{Procs: 16})))
}
