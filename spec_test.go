package prefetchsim_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"prefetchsim"
)

// FuzzSpec decodes arbitrary bytes exactly as prefetchd's POST /jobs
// does and checks every spec Normalize accepts: normalizing again
// changes nothing, the digest is stable, and every application the
// spec names builds (or reports why not) without panicking — a panic
// there would take the whole server down — and no accepted prefetch
// degree exceeds the SLWB depth, which bounds how long one job can run.
func FuzzSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		spec, err := prefetchsim.DecodeSpec(bytes.NewReader(body))
		if err != nil {
			return
		}
		once, err := spec.Normalize()
		if err != nil {
			return
		}
		twice, err := once.Normalize()
		if err != nil {
			t.Fatalf("normalized spec %+v rejected on renormalizing: %v", once, err)
		}
		if !reflect.DeepEqual(once, twice) {
			t.Fatalf("Normalize is not idempotent:\nonce  %+v\ntwice %+v", once, twice)
		}
		if d1, d2 := once.Digest(), twice.Digest(); d1 != d2 {
			t.Fatalf("digest changed on renormalizing: %s -> %s", d1, d2)
		}
		degrees := once.Degrees
		if c := once.Config; c != nil {
			degrees = []int{c.Degree}
		}
		for _, d := range degrees {
			if d < 0 || d > 16 {
				t.Fatalf("accepted prefetch degree %d: more than the 16-entry SLWB can hold in flight", d)
			}
		}

		apps, p := once.Apps, prefetchsim.Params{Procs: once.Procs, Scale: once.Scale, Seed: once.Seed}
		if c := once.Config; c != nil {
			apps, p = []string{c.App}, prefetchsim.Params{Procs: c.Processors, Scale: c.Scale, Seed: c.Seed}
		}
		scales := []int{p.Scale}
		if once.Kind == "table4" {
			scales = append(scales, p.Scale+1)
		}
		for _, app := range apps {
			for _, p.Scale = range scales {
				if prog, err := prefetchsim.BuildApp(app, p); err == nil {
					prog.Stop()
				}
			}
		}
	})
}

// TestSpecDigestPinned pins the result-cache keys of one run spec and
// two figure6 specs, so a result cache written by an earlier build
// keeps serving.
func TestSpecDigestPinned(t *testing.T) {
	for body, want := range map[string]string{
		`{"config":{"app":"matmul","processors":4},"metrics":true}`:                       "run-da9008337aabf159cf9e03bb18df98c553ffc0a6b467dea49c17831ddd7d9a81-m",
		`{"kind":"figure6","apps":["matmul"],"schemes":["Seq"],"procs":4,"metrics":true}`: "fig6-43ef6210bb7e31ad632a8735eecc6fb565fa8aec7546783eee402fcff7f61a93",
		`{"kind":"figure6"}`: "fig6-ebcd7ab13897776c33a4fc985323421edd522aee8124bda50a0922118f5312b9",
	} {
		s, err := prefetchsim.DecodeSpec(strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if s, err = s.Normalize(); err != nil {
			t.Fatal(err)
		}
		if got := s.Digest(); got != want {
			t.Errorf("%s digests to %s, want %s", body, got, want)
		}
	}
}

// TestSpecNormalizeRejects: specs that cannot run are refused up front,
// naming why.
func TestSpecNormalizeRejects(t *testing.T) {
	for body, why := range map[string]string{
		`{"config":{"app":"ocean","processors":2}}`:                          "not a perfect square",
		`{"config":{"app":"mp3d","processors":100000}}`:                      "out of range 1..64",
		`{"kind":"figure6","procs":-4}`:                                      "out of range 1..64",
		`{"kind":"table2","scale":9}`:                                        "scale 9 out of range",
		`{"kind":"table2","apps":["ocean"],"scale":4}`:                       "exceeds the 260-double padded row",
		`{"kind":"zoo","apps":["lu","water"]}`:                               "exactly one of apps",
		`{"kind":"degrees","apps":["lu"],"schemes":["Seq"]}`:                 "needs degrees",
		`{"kind":"figure6","degrees":[2]}`:                                   "degrees is not one of its fields",
		`{"kind":"run","config":{"app":"lu"},"procs":4}`:                     "procs is not one of its fields",
		`{"kind":"sweep","apps":["matmul"],"ways":[1],"finite":true}`:        "finite is not one of its fields",
		`{"kind":"bandwidth","apps":["lu"],"bandwidths":[1],"seed":1,"x":1}`: "unknown field",
	} {
		s, err := prefetchsim.DecodeSpec(strings.NewReader(body))
		if err == nil {
			_, err = s.Normalize()
		}
		if err == nil || !strings.Contains(err.Error(), why) {
			t.Errorf("%s: error %v, want one naming %q", body, err, why)
		}
	}
}
