package main

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"prefetchsim"
)

func testSpec() prefetchsim.Spec {
	return prefetchsim.Spec{
		Kind:    "sweep",
		Apps:    []string{"matmul"},
		Schemes: []prefetchsim.Scheme{"baseline", "Seq"},
		Degrees: []int{1, 2},
		SLCs:    []int{0, 16384},
		Ways:    []int{1}, Procs: 4, Scale: 1, Bandwidths: []int{1},
	}
}

// execute runs a spec as the command does, on workers goroutines with
// rec (which may be nil) recording its simulations.
func execute(workers int, rec *prefetchsim.ManifestRecorder) func(prefetchsim.Spec, func(fmt.Stringer)) error {
	return func(s prefetchsim.Spec, sink func(fmt.Stringer)) error {
		o := prefetchsim.ExpOptions{Workers: workers, Record: rec}
		return s.Execute(o, func(_, _ int, r fmt.Stringer) { sink(r) })
	}
}

// TestSweepCSVRoundTrip emits a small factorial sweep and parses it
// back: the header must match, every row must have exactly one field
// per header column, and every numeric column must parse.
func TestSweepCSVRoundTrip(t *testing.T) {
	var out, errs bytes.Buffer
	rec := &prefetchsim.ManifestRecorder{}
	rows, failed, err := sweep(testSpec(), execute(4, rec), &out, &errs)
	if err != nil {
		t.Fatal(err)
	}
	if failed != 0 {
		t.Fatalf("%d configurations failed: %s", failed, errs.String())
	}
	// baseline collapses the degree axis to 1: per SLC size the rows are
	// baseline + Seq-d1 + Seq-d2.
	wantRows := 2 * 3
	if rows != wantRows {
		t.Fatalf("sweep reported %d rows, want %d", rows, wantRows)
	}
	if rec.Len() != wantRows {
		t.Fatalf("recorded %d run manifests, want %d", rec.Len(), wantRows)
	}

	records, err := csv.NewReader(bytes.NewReader(out.Bytes())).ReadAll()
	if err != nil {
		t.Fatalf("emitted CSV does not parse: %v", err)
	}
	if len(records) != wantRows+1 {
		t.Fatalf("CSV has %d records, want %d (header + %d rows)", len(records), wantRows+1, wantRows)
	}
	header := prefetchsim.SweepColumns()
	if got := strings.Join(records[0], ","); got != strings.Join(header, ",") {
		t.Fatalf("header = %q, want %q", got, strings.Join(header, ","))
	}
	for r, rec := range records[1:] {
		if len(rec) != len(header) {
			t.Fatalf("row %d has %d columns, want %d", r, len(rec), len(header))
		}
		for c, field := range rec {
			// The first two columns (app, scheme) are strings; every
			// other column must be numeric.
			if c < 2 {
				if field == "" {
					t.Errorf("row %d: empty %s", r, header[c])
				}
				continue
			}
			if _, err := strconv.ParseFloat(field, 64); err != nil {
				t.Errorf("row %d column %s = %q is not numeric: %v", r, header[c], field, err)
			}
		}
	}
}

// TestSweepBadAppCompletesRest: an unknown application fails its own
// rows but the sweep still emits every other row.
func TestSweepBadAppCompletesRest(t *testing.T) {
	s := testSpec()
	s.Apps = []string{"nosuchapp", "matmul"}
	s.Degrees = []int{1}
	s.SLCs = []int{0}
	var out, errs bytes.Buffer
	rows, failed, err := sweep(s, execute(4, nil), &out, &errs)
	if err != nil {
		t.Fatal(err)
	}
	if failed != 2 { // baseline + Seq for the unknown app
		t.Fatalf("failed = %d, want 2; stderr: %s", failed, errs.String())
	}
	if rows != 2 { // baseline + Seq for matmul
		t.Fatalf("rows = %d, want 2", rows)
	}
	if !strings.Contains(errs.String(), "nosuchapp") {
		t.Fatalf("stderr does not name the failing app: %q", errs.String())
	}
	// The app column carries the program's self-reported name
	// ("Matmul-LxMxN"), as in the serial sweep.
	if !strings.Contains(out.String(), "Matmul") {
		t.Fatal("surviving rows missing from CSV output")
	}
}

// TestSweepDeterministicAcrossWorkers: the emitted CSV is byte-identical
// whether the sweep runs serially or in parallel.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: equivalence covered by the root-package smoke test")
	}
	s := testSpec()
	var serial, parallel bytes.Buffer
	if _, _, err := sweep(s, execute(1, nil), &serial, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sweep(s, execute(8, nil), &parallel, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serial.Bytes(), parallel.Bytes()) {
		t.Fatal("parallel sweep CSV differs from serial sweep CSV")
	}
}
