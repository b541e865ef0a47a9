package main

import (
	"reflect"
	"strings"
	"testing"
)

// TestParseLine decodes go test -bench result lines: the -benchmem
// columns, ReportMetric units, the GOMAXPROCS suffix and sub-benchmark
// names.
func TestParseLine(t *testing.T) {
	cases := []struct {
		line string
		name string
		vals map[string]float64
	}{
		{"BenchmarkEngineSchedule-2   \t100000000\t        11.85 ns/op\t       0 B/op\t       0 allocs/op",
			"BenchmarkEngineSchedule", map[string]float64{"ns/op": 11.85, "B/op": 0, "allocs/op": 0}},
		{"BenchmarkSimulatorThroughput-8  1  912345678 ns/op  2.51e+06 refs/s  5120 B/op  142372 allocs/op",
			"BenchmarkSimulatorThroughput", map[string]float64{"ns/op": 912345678, "refs/s": 2.51e6, "B/op": 5120, "allocs/op": 142372}},
		{"BenchmarkPrefetcherOnRead/I-det-16  70304114  10.13 ns/op",
			"BenchmarkPrefetcherOnRead/I-det", map[string]float64{"ns/op": 10.13}},
		// GOMAXPROCS 1 adds no suffix, and a dash inside a name stays.
		{"BenchmarkStreamNext/chan-batched 5000 312 ns/op 0 allocs/op",
			"BenchmarkStreamNext/chan-batched", map[string]float64{"ns/op": 312, "allocs/op": 0}},
	}
	for _, c := range cases {
		name, vals, err := parseLine(c.line)
		if err != nil {
			t.Errorf("parseLine(%q): %v", c.line, err)
			continue
		}
		if name != c.name || !reflect.DeepEqual(vals, c.vals) {
			t.Errorf("parseLine(%q) = %q %v, want %q %v", c.line, name, vals, c.name, c.vals)
		}
	}
}

// TestParseRejectsGarbage: a malformed result line is an error, not a
// silently missing sample.
func TestParseRejectsGarbage(t *testing.T) {
	for _, line := range []string{
		"BenchmarkA-2",                          // name only
		"BenchmarkA-2 100",                      // no values
		"BenchmarkA-2 100 12.5",                 // value without unit
		"BenchmarkA-2 many 12.5 ns/op",          // iteration count
		"BenchmarkA-2 100 fast ns/op",           // value
		"BenchmarkA-2 100 12 B/op 0 allocs/op",  // no ns/op
		"BenchmarkA-2 100 12.5 ns/op 3",         // dangling value
		"--- FAIL: BenchmarkA-2 100 12.5 ns/op", // not a result line
	} {
		if name, _, err := parseLine(line); err == nil {
			t.Errorf("parseLine(%q) = %q, want an error", line, name)
		}
	}
}

func TestAddOutputSkipsNonResultLines(t *testing.T) {
	out := "goos: linux\ngoarch: amd64\npkg: prefetchsim/internal/sim\n" +
		"BenchmarkEngineSchedule-2 100 11.8 ns/op 0 B/op 0 allocs/op\nPASS\n"
	s := samples{}
	if err := s.addOutput(strings.NewReader(out)); err != nil {
		t.Fatal(err)
	}
	want := samples{"BenchmarkEngineSchedule": {"ns/op": {11.8}, "allocs/op": {0}}}
	if !reflect.DeepEqual(s, want) {
		t.Fatalf("addOutput = %v, want %v", s, want)
	}
	if err := s.addOutput(strings.NewReader("BenchmarkX-2 1 fast ns/op\n")); err == nil {
		t.Fatal("addOutput accepted a malformed result line")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([...], n=4) in Python 3.
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
	} {
		if q1, q2, q3 := quartiles(c.xs); q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

// ten returns the 10 pairs' samples lo, lo+step, ... in that order.
func ten(lo, step float64) []float64 {
	xs := make([]float64, pairs)
	for i := range xs {
		xs[i] = lo + float64(i)*step
	}
	return xs
}

// TestGate applies the rule: a regression needs 10/10 losses and a
// median beyond the base's interquartile range.
func TestGate(t *testing.T) {
	base := ten(100, 1) // median 104.5, IQR 101.75-107.25 = 5.5
	nineLosses := ten(200, 1)
	nineLosses[3] = base[3]
	cases := []struct {
		name    string
		head    []float64
		losses  int
		verdict string
	}{
		{"10/10 losses beyond the IQR", ten(110, 1), 10, "REGRESSION"},
		{"9/10 losses, far slower", nineLosses, 9, "ok"},
		{"10/10 losses inside the IQR", ten(100.5, 1), 10, "ok"},
		{"identical samples", ten(100, 1), 0, "ok"},
		{"faster", ten(50, 1), 0, "ok"},
	}
	for _, c := range cases {
		rows := judge(samples{"BenchmarkA": {"ns/op": base}}, samples{"BenchmarkA": {"ns/op": c.head}})
		if len(rows) != 1 || rows[0].losses != c.losses || rows[0].verdict != c.verdict {
			t.Errorf("%s: rows = %+v, want %d losses, %s", c.name, rows, c.losses, c.verdict)
		}
	}
}

// TestGateTiesAndOneSidedBenchmarks: 0 = 0 allocs counts for neither
// side, and a benchmark present on one side only is reported, not gated.
func TestGateTiesAndOneSidedBenchmarks(t *testing.T) {
	zero := make([]float64, pairs)
	base := samples{
		"BenchmarkShared": {"ns/op": ten(10, 0.1), "allocs/op": zero},
		"BenchmarkGone":   {"ns/op": ten(10, 0.1), "allocs/op": zero},
	}
	head := samples{
		"BenchmarkShared": {"ns/op": ten(10, 0.1), "allocs/op": zero},
		"BenchmarkNew":    {"ns/op": ten(1e9, 0), "allocs/op": ten(1e6, 0)},
	}
	got := map[string]string{}
	for _, r := range judge(base, head) {
		got[r.bench+" "+r.unit] = r.verdict
		if r.losses != 0 {
			t.Errorf("%s %s: %d losses, want 0", r.bench, r.unit, r.losses)
		}
	}
	want := map[string]string{
		"BenchmarkShared ns/op": "ok", "BenchmarkShared allocs/op": "ok",
		"BenchmarkGone ns/op": "gone", "BenchmarkGone allocs/op": "gone",
		"BenchmarkNew ns/op": "new", "BenchmarkNew allocs/op": "new",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("verdicts = %v, want %v", got, want)
	}
}

// TestPrintTable shows every row, one-sided ones included, with each
// side's median and quartiles, the change, the losses and the verdict.
func TestPrintTable(t *testing.T) {
	rows := judge(
		samples{"BenchmarkA": {"ns/op": ten(100, 1), "allocs/op": make([]float64, pairs)}, "BenchmarkOld": {"ns/op": ten(5, 0)}},
		samples{"BenchmarkA": {"ns/op": ten(110, 1), "allocs/op": make([]float64, pairs)}, "BenchmarkNew": {"ns/op": ten(7, 0)}},
	)
	var sb strings.Builder
	if err := printTable(&sb, rows); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	want := [][]string{
		{"benchmark", "metric", "base", "median", "base", "q1-q3", "head", "median", "head", "q1-q3", "change", "head", "losses", "verdict"},
		{"BenchmarkA", "ns/op", "104.5", "101.8-107.2", "114.5", "111.8-117.2", "+9.6%", "10/10", "REGRESSION"},
		{"BenchmarkA", "allocs/op", "0", "0-0", "0", "0-0", "0", "0/10", "ok"},
		{"BenchmarkNew", "ns/op", "-", "-", "7", "7-7", "-", "-", "new"},
		{"BenchmarkOld", "ns/op", "5", "5-5", "-", "-", "-", "-", "gone"},
	}
	if len(lines) != len(want) {
		t.Fatalf("table has %d lines, want %d:\n%s", len(lines), len(want), sb.String())
	}
	for i, l := range lines {
		if got := strings.Fields(l); !reflect.DeepEqual(got, want[i]) {
			t.Errorf("line %d = %q, want %q", i, got, want[i])
		}
	}
}
