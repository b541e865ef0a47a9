package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"prefetchsim"
)

var update = flag.Bool("update", false, "recompute expected.json")

// pinnedSeeds are the seeds expected.json pins for the sim workloads.
const pinnedSeeds = 10

// servePins computes the stats digests of every spec the serve
// workload may submit.
func servePins(t *testing.T, specs []spec, out map[string]string) {
	t.Helper()
	for _, s := range specs {
		rc := s.config()
		res, err := prefetchsim.Run(prefetchsim.Config{App: rc.App, Scheme: prefetchsim.Scheme(rc.Scheme),
			Degree: rc.Degree, Processors: rc.Processors, Scale: rc.Scale, Seed: rc.Seed})
		if err != nil {
			t.Fatal(err)
		}
		out[pin(rc.Digest())] = pin(prefetchsim.StatsDigest(res.Stats))
	}
}

// TestPins checks the pins of the serve workload's hit specs against
// fresh simulations. With -update it recomputes every pin, one pass of
// each sim workload per pinned seed plus the serve pools, and rewrites
// expected.json.
func TestPins(t *testing.T) {
	if !*update {
		if testing.Short() {
			t.Skip("simulates the serve workload's hit specs")
		}
		p, err := loadPins()
		if err != nil {
			t.Fatal(err)
		}
		got := make(map[string]string)
		servePins(t, serveFull.hitSpecs(), got)
		for k, v := range got {
			if p.Stats[k] != v {
				t.Errorf("sim %s: digest %s, expected.json pins %q", k, v, p.Stats[k])
			}
		}
		return
	}

	chk, err := newChecker()
	if err != nil {
		t.Fatal(err)
	}
	chk.pins = pins{}
	for _, name := range []string{"fig6", "tables", "zoo"} {
		w := simWorkloads[name]
		for seed := uint64(1); seed <= pinnedSeeds; seed++ {
			key := fmt.Sprintf("%s/%d", name, seed)
			if _, err := untracedPass(w, w.opts(seed, false), key, chk); err != nil {
				t.Fatal(err)
			}
		}
	}
	if chk.failed != 0 {
		t.Fatalf("%d simulations failed", chk.failed)
	}
	p := chk.unverified
	servePins(t, append(serveFull.hitSpecs(), serveFull.missPool()...), p.Stats)
	buf, err := json.MarshalIndent(p, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("expected.json", append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
