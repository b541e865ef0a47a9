package main

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzJobSpec decodes arbitrary bytes exactly as POST /jobs does and
// checks that normalize is idempotent on every spec it accepts: a
// normalized spec normalizes to a deeply equal spec with the same
// digest, so equivalent submissions share one result-cache entry no
// matter how often they pass through normalize.
func FuzzJobSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		spec, err := decodeSpec(bytes.NewReader(body))
		if err != nil {
			return
		}
		once, err := spec.normalize()
		if err != nil {
			return
		}
		twice, err := once.normalize()
		if err != nil {
			t.Fatalf("normalized spec %+v rejected on renormalizing: %v", once, err)
		}
		if !reflect.DeepEqual(once, twice) {
			t.Fatalf("normalize is not idempotent:\nonce  %+v\ntwice %+v", once, twice)
		}
		if d1, d2 := once.digest(), twice.digest(); d1 != d2 {
			t.Fatalf("digest changed on renormalizing: %s -> %s", d1, d2)
		}
	})
}
