package matmul

import (
	"testing"

	"prefetchsim/internal/apps/apptest"
	"prefetchsim/internal/apps/workload"
	"prefetchsim/internal/mem"
	"prefetchsim/internal/trace"
)

func TestValidateAndCounts(t *testing.T) {
	c := Config{Params: workload.Params{Procs: 4}, L: 8, M: 8, N: 8}
	counts, err := workload.Validate(apptest.Must(New(c)), 4)
	if err != nil {
		t.Fatal(err)
	}
	// Each processor owns L/Procs = 2 rows; per (i,j) element: 1 C read +
	// N·2 inner reads + 1 C write.
	want := 2 * 8 * (1 + 8*2 + 1)
	for p, n := range counts {
		if n != want {
			t.Errorf("processor %d: %d ops, want %d", p, n, want)
		}
	}
}

// TestMatchesGoroutineOracle pins the state-machine port: the resumable
// generator must emit, op for op, the sequence the straight-line
// goroutine body produced before it (kept here as the oracle).
func TestMatchesGoroutineOracle(t *testing.T) {
	c := Config{Params: workload.Params{Procs: 3}, L: 9, M: 7, N: 5}
	c.Params = c.Params.Norm()
	w := workload.WordBytes

	got := apptest.Must(New(c))

	space := mem.NewSpace()
	a := mem.NewArray(space, c.L, c.N*w, c.N*w)
	b := mem.NewArray(space, c.N, c.M*w, c.M*w)
	cm := mem.NewArray(space, c.L, c.M*w, c.M*w)
	oracle := workload.Build("Matmul-oracle", c.Procs, func(p int, g *workload.Gen) {
		for i := p; i < c.L; i += c.Procs {
			for j := 0; j < c.M; j++ {
				g.Read(pcCR, cm.At(i, j*w), 2)
				for k := 0; k < c.N; k++ {
					g.Read(pcA, a.At(i, k*w), 2)
					g.Read(pcB, b.At(k, j*w), 2)
				}
				g.Write(pcCW, cm.At(i, j*w), 4)
			}
		}
	})
	apptest.SameOps(t, got, oracle)
}

// TestResumptionIsSeamless drains the program per op and by mixing
// NextBatch with Next, checking the state machine suspends and resumes
// at arbitrary buffer boundaries without perturbing the sequence.
func TestResumptionIsSeamless(t *testing.T) {
	c := Config{Params: workload.Params{Procs: 2}, L: 4, M: 5, N: 6}
	apptest.SeamlessResumption(t, func() *trace.Program { return apptest.Must(New(c)) })
}
