package main

import (
	"math"
	"testing"
)

func TestGroupTop(t *testing.T) {
	listing := []byte(`Type: cpu
Duration: 601.70ms, Total samples = 500ms (83.10%)
      flat  flat%   sum%        cum   cum%
     120ms 24.00% 24.00%      120ms 24.00%  prefetchsim/internal/blockmap.(*Table[go.shape.struct { prefetchsim/internal/prefetch.s [2]prefetchsim/internal/mem.Block }]).Get (inline)
     100ms 20.00% 44.00%      440ms 88.00%  prefetchsim/internal/sim.(*Engine).Step
      80ms 16.00% 60.00%       80ms 16.00%  prefetchsim/internal/apps/mp3d.move
      60ms 12.00% 72.00%       60ms 12.00%  runtime.scanobject
      50ms 10.00% 82.00%       50ms 10.00%  runtime.mallocgc
      40ms  8.00% 90.00%       40ms  8.00%  net/http.(*conn).serve
      30ms  6.00% 96.00%       30ms  6.00%  prefetchsim.mapRows[go.shape.int,go.shape.string]
      20ms  4.00%   100%       20ms  4.00%  internal/runtime/atomic.(*Uint64).Add (inline)
         0     0%   100%      500ms   100%  main.main
`)
	got, err := groupTop(listing)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"cpu.blockmap": 0.24, "cpu.sim": 0.20, "cpu.apps": 0.16, "cpu.runtime_gc": 0.12,
		"cpu.runtime_other": 0.14, "cpu.serve": 0.08, "cpu.other": 0.06, "cpu.samples": 50,
	}
	for name, v := range got {
		if math.Abs(v-want[name]) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, v, want[name])
		}
	}
}
