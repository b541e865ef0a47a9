package apps

import (
	"prefetchsim/internal/apps/apptest"
	"runtime"
	"testing"

	"prefetchsim/internal/analysis"
	"prefetchsim/internal/apps/workload"
	"prefetchsim/internal/machine"
	"prefetchsim/internal/trace"
)

// tiny returns reduced-size parameters so the full matrix of
// application tests stays fast.
func tiny() workload.Params { return workload.Params{Procs: 4, Scale: 1, Seed: 42} }

// tinyProgram builds a scaled-down instance of the named application.
func tinyProgram(t *testing.T, name string) *trace.Program {
	t.Helper()
	switch name {
	// Shrink via the registry path but with small processor counts;
	// input sizes stay at scale 1 which is already modest for tests of
	// structure (full sizes run in the benchmarks and cmd tools).
	default:
		mk, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		return apptest.Must(mk(tiny()))
	}
}

func TestRegistryHasPaperApplications(t *testing.T) {
	want := []string{"mp3d", "cholesky", "water", "lu", "ocean", "pthor"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names()[%d] = %q, want %q (paper table order)", i, got[i], want[i])
		}
	}
	if _, err := Get("nosuch"); err == nil {
		t.Fatal("Get accepted an unknown application")
	}
}

func TestAllProgramsAreWellFormed(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			p := tinyProgram(t, name)
			counts, err := workload.Validate(p, tiny().Procs)
			if err != nil {
				t.Fatal(err)
			}
			for i, c := range counts {
				if c == 0 {
					t.Errorf("processor %d has an empty stream", i)
				}
			}
		})
	}
}

func TestProgramsAreDeterministic(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			a, b := tinyProgram(t, name), tinyProgram(t, name)
			defer a.Stop()
			defer b.Stop()
			for s := range a.Streams {
				for n := 0; ; n++ {
					oa, ob := a.Streams[s].Next(), b.Streams[s].Next()
					if oa != ob {
						t.Fatalf("stream %d diverges at op %d: %+v vs %+v", s, n, oa, ob)
					}
					if oa.Kind == trace.End {
						break
					}
					if n > 2_000_000 {
						break // enough to compare
					}
				}
			}
		})
	}
}

// runTiny simulates a reduced instance on the baseline machine and
// returns the machine stats plus the processor-0 miss analysis.
func runTiny(t *testing.T, name string) (*machine.Machine, analysis.Result) {
	t.Helper()
	p := tinyProgram(t, name)
	cfg := machine.DefaultConfig()
	cfg.Processors = tiny().Procs
	col := &analysis.Collector{Node: 0}
	cfg.MissObserver = col.Observe
	m, err := machine.New(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	p.Stop()
	return m, analysis.Analyze(col.Misses())
}

// TestPaperProgramsAreGoroutineFree pins how the paper applications
// produce their streams: every stream is a resumable generator driven
// on the consumer's goroutine, so building and draining all six
// programs starts no goroutine.
func TestPaperProgramsAreGoroutineFree(t *testing.T) {
	before := runtime.NumGoroutine()
	progs := make([]*trace.Program, 0, len(Names()))
	for _, name := range Names() {
		p := tinyProgram(t, name)
		for i, s := range p.Streams {
			if _, ok := s.(*trace.FuncStream); !ok {
				t.Errorf("%s stream %d is a %T, want *trace.FuncStream", name, i, s)
			}
		}
		progs = append(progs, p)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("building the paper programs started %d goroutines", n-before)
	}
	for _, p := range progs {
		if _, err := workload.Validate(p, tiny().Procs); err != nil {
			t.Fatal(err)
		}
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("draining the paper programs started %d goroutines", n-before)
	}
}

func TestAllProgramsRunToCompletion(t *testing.T) {
	if testing.Short() {
		t.Skip("full-program simulation")
	}
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			m, _ := runTiny(t, name)
			if m.Stats.TotalReads() == 0 || m.Stats.TotalReadMisses() == 0 {
				t.Fatalf("degenerate run: %v", m.Stats)
			}
		})
	}
}

// Characteristic-shape checks: the qualitative rows of Table 2 must
// hold even at reduced scale. MP3D and PTHOR are the low-stride
// applications; the other four are stride-dominated.
func TestStrideDominatedApplications(t *testing.T) {
	if testing.Short() {
		t.Skip("full-program simulation")
	}
	for name, wantDominant := range map[string]int64{
		"lu":       1,
		"cholesky": 1,
		"water":    21,
	} {
		name, wantDominant := name, wantDominant
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			_, r := runTiny(t, name)
			if frac := r.FracInSequences(); frac < 0.5 {
				t.Errorf("%s: %.0f%% of misses in stride sequences, want > 50%%", name, 100*frac)
			}
			if d := r.Dominant(); d.Stride != wantDominant {
				t.Errorf("%s: dominant stride %d (%.0f%%), want %d",
					name, d.Stride, 100*d.Share, wantDominant)
			}
		})
	}
}

func TestOceanHasLargeStrideComponent(t *testing.T) {
	if testing.Short() {
		t.Skip("full-program simulation")
	}
	_, r := runTiny(t, "ocean")
	if frac := r.FracInSequences(); frac < 0.4 {
		t.Fatalf("ocean: %.0f%% of misses in stride sequences, want > 40%%", 100*frac)
	}
	var has65 bool
	for _, s := range r.Strides() {
		if s.Stride == 65 && s.Share > 0.15 {
			has65 = true
		}
	}
	if !has65 {
		t.Fatalf("ocean: no significant 65-block stride component: %v", r.Strides())
	}
}

func TestLowStrideApplications(t *testing.T) {
	if testing.Short() {
		t.Skip("full-program simulation")
	}
	for _, name := range []string{"mp3d", "pthor"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			_, r := runTiny(t, name)
			if frac := r.FracInSequences(); frac > 0.45 {
				t.Errorf("%s: %.0f%% of misses in stride sequences; paper reports this application as stride-poor",
					name, 100*frac)
			}
		})
	}
}
