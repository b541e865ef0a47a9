package water

import (
	"testing"

	"prefetchsim/internal/apps/apptest"
	"prefetchsim/internal/apps/workload"
	"prefetchsim/internal/mem"
	"prefetchsim/internal/trace"
)

func TestRecordIsTwentyOneBlocks(t *testing.T) {
	if MoleculeBlocks != 21 {
		t.Fatal("the paper's dominant Water stride is 21 blocks")
	}
	if molBytes != 672 {
		t.Fatalf("molBytes = %d, want 672", molBytes)
	}
}

func TestLayoutOffsetsInDistinctRegions(t *testing.T) {
	// Position words span blocks 0-2, three per block.
	for w := 0; w < 9; w++ {
		if got := offPos(w) / mem.BlockBytes; got != w/3 {
			t.Fatalf("pos word %d in block %d, want %d", w, got, w/3)
		}
	}
	// Center-of-mass in block 3, forces in block 4.
	for w := 0; w < 3; w++ {
		if offVm(w)/mem.BlockBytes != 3 {
			t.Fatalf("vm word %d outside block 3", w)
		}
		if offFrc(w)/mem.BlockBytes != 4 {
			t.Fatalf("force word %d outside block 4", w)
		}
	}
	if offVel/mem.BlockBytes != 5 || offDer/mem.BlockBytes != 6 {
		t.Fatal("private predictor state must follow the shared blocks")
	}
	if offDer >= molBytes {
		t.Fatal("layout exceeds the record")
	}
}

func TestDefaultConfigPaperInput(t *testing.T) {
	c := DefaultConfig(workload.Params{})
	if c.Molecules != 288 || c.Steps != 4 {
		t.Fatalf("config = %d molecules, %d steps; paper uses 288, 4", c.Molecules, c.Steps)
	}
}

func TestNewPanicsOnTooFewMolecules(t *testing.T) {
	if _, err := New(Config{Params: workload.Params{Procs: 16}, Molecules: 8, Steps: 1}); err == nil {
		t.Error("New returned no error")
	}
}

func TestPairPCsAreDistinctPerWord(t *testing.T) {
	// The nine member loads must be nine distinct load sites; collapsing
	// them onto one PC destroys the paper's per-instruction stride-21
	// sequences.
	seen := map[int]bool{}
	for w := 0; w < 9; w++ {
		pc := int(pcPosJ) + w
		if seen[pc] {
			t.Fatalf("duplicate PC %d", pc)
		}
		seen[pc] = true
	}
	if int(pcVmJ) <= int(pcPosJ)+8 {
		t.Fatal("PC bases overlap")
	}
}

// oracle is Water's generator as it ran before the resumable port: a
// straight-line body in a producer goroutine per processor.
func oracle(c Config) *trace.Program {
	c.Params = c.Params.Norm()
	P, N := c.Procs, c.Molecules
	space := mem.NewSpace()
	mol := mem.NewArray(space, N, molBytes, molBytes)
	lockVars := mem.NewArray(space, N, mem.BlockBytes, mem.BlockBytes)
	chunk := (N + P - 1) / P
	return workload.Build("Water-oracle", P, func(p int, g *workload.Gen) {
		lo := p * chunk
		hi := lo + chunk
		if hi > N {
			hi = N
		}
		for step := 0; step < c.Steps; step++ {
			for i := lo; i < hi; i++ {
				for w := 0; w < 3; w++ {
					g.Read(pcPred, mol.At(i, offVel+w*workload.WordBytes), 2)
					g.Read(pcPred, mol.At(i, offDer+w*workload.WordBytes), 2)
				}
				for w := 0; w < 9; w++ {
					g.Write(pcPredW, mol.At(i, offPos(w)), 2)
				}
				for w := 0; w < 3; w++ {
					g.Write(pcPredW, mol.At(i, offVm(w)), 2)
				}
			}
			g.Barrier()
			merge := func(j int) {
				g.Lock(lockVars.Elem(j))
				for w := 0; w < 3; w++ {
					g.Read(pcFrcJ+trace.PC(w), mol.At(j, offFrc(w)), 2)
					g.Write(pcFrcJW+trace.PC(w), mol.At(j, offFrc(w)), 2)
				}
				g.Unlock(lockVars.Elem(j))
			}
			for i := lo; i < hi; i++ {
				for w := 0; w < 9; w++ {
					g.Read(pcPosI+trace.PC(w), mol.At(i, offPos(w)), 1)
				}
				for d := 1; d <= N/2; d++ {
					j := (i + d) % N
					for w := 0; w < 9; w++ {
						g.Read(pcPosJ+trace.PC(w), mol.At(j, offPos(w)), 3)
					}
					for w := 0; w < 3; w++ {
						g.Read(pcVmJ+trace.PC(w), mol.At(j, offVm(w)), 3)
					}
				}
				if i+1 < hi {
					merge(i + 1)
				}
			}
			merge(lo)
			for k := 0; k < N/2; k++ {
				merge((hi + k) % N)
			}
			g.Barrier()
			for i := lo; i < hi; i++ {
				for w := 0; w < 3; w++ {
					g.Read(pcCorr, mol.At(i, offFrc(w)), 2)
					g.Write(pcCorrW, mol.At(i, offVel+w*workload.WordBytes), 2)
					g.Write(pcCorrW, mol.At(i, offDer+w*workload.WordBytes), 2)
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
		{Procs: 5, Scale: 1},
	} {
		c := DefaultConfig(p)
		apptest.SameOps(t, apptest.Must(New(c)), oracle(c))
	}
}

func TestResumptionIsSeamless(t *testing.T) {
	c := DefaultConfig(workload.Params{Procs: 4})
	c.Steps = 2
	apptest.SeamlessResumption(t, func() *trace.Program { return apptest.Must(New(c)) })
}

func TestRefillAllocatesNothing(t *testing.T) {
	apptest.ZeroAllocRefill(t, apptest.Must(New(DefaultConfig(workload.Params{Procs: 16}))))
}
