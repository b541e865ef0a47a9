// Command benchdelta is the benchmark regression gate. It builds the
// gated benchmarks of two checkouts on the same machine, runs them in
// alternating pairs and fails when the head checkout is slower or
// allocates more than the base:
//
//	go run ./cmd/benchdelta <base checkout> <head checkout>
//
// Each gated package is compiled once per checkout (go test -c
// -trimpath, each side from its own sources). Then 10 pairs run, the
// first side alternating between pairs. For ns/op and allocs/op separately, a
// benchmark regresses when the head reads worse than the base in all
// 10 pairs and the head's median is worse than the base's by more than
// the base's interquartile range. Ties count for neither side. A
// benchmark present in only one checkout is reported as new or gone and
// is not gated.
//
// Exit status 1 means a regression; 2 means a usage, build or run
// error.
package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
)

// pairs is the number of alternating base/head pairs. With no real
// change, 10 losses in 10 pairs happen with p = 1/1024 per number. About
// 20 gated numbers can lose (0 = 0 allocs cannot), so at most about 2%
// of clean runs fail; 9 of 10, compare's gain rule, would fail 20%.
const pairs = 10

// microTime is the benchtime of every micro-benchmark: long enough for a
// steady ns/op, short enough that the whole gate takes minutes.
const microTime = "0.3s"

// gated is the benchmark set the gate runs: a package directory
// relative to the checkout, a -bench pattern and a benchtime.
var gated = []struct{ pkg, pattern, benchtime string }{
	{"internal/sim", "EngineSchedule$", microTime},
	{"internal/blockmap", "BlockTable$|BlockTableHits|BlockTableDense|SmallCycle", microTime},
	{"internal/network", "MeshSend", microTime},
	{"internal/trace", "StreamNext", microTime},
	{"internal/coherence", "DirectoryTransaction", microTime},
	{"internal/cache", "SLCLookupFill", microTime},
	{"internal/prefetch", "PrefetcherOnRead", microTime},
	// The only whole-simulator number: one 4-processor Figure-6 sweep.
	{".", "Figure6Serial$", "1x"},
}

// metrics are the gated -benchmem columns; for both, lower is better.
var metrics = []string{"ns/op", "allocs/op"}

// samples holds one checkout's readings: benchmark name, then unit,
// then one value per pair.
type samples map[string]map[string][]float64

// procSuffix is the -N GOMAXPROCS suffix go test appends to a name.
var procSuffix = regexp.MustCompile(`-\d+$`)

// parseLine decodes one result line of go test -bench output: a name,
// an iteration count, then value-unit pairs (the -benchmem columns and
// any ReportMetric units). The GOMAXPROCS suffix is dropped from the
// name.
func parseLine(line string) (name string, vals map[string]float64, err error) {
	f := strings.Fields(line)
	if len(f) < 4 || len(f)%2 != 0 || !strings.HasPrefix(f[0], "Benchmark") {
		return "", nil, fmt.Errorf("malformed benchmark line %q", line)
	}
	if _, err := strconv.ParseInt(f[1], 10, 64); err != nil {
		return "", nil, fmt.Errorf("malformed iteration count in %q", line)
	}
	vals = make(map[string]float64, len(f)/2-1)
	for i := 2; i < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return "", nil, fmt.Errorf("malformed value %q in %q", f[i], line)
		}
		vals[f[i+1]] = v
	}
	if _, ok := vals["ns/op"]; !ok {
		return "", nil, fmt.Errorf("no ns/op in %q", line)
	}
	return procSuffix.ReplaceAllString(f[0], ""), vals, nil
}

// addOutput parses a test binary's output into s. Lines that do not
// start with "Benchmark" (headers, PASS) are skipped.
func (s samples) addOutput(out io.Reader) error {
	sc := bufio.NewScanner(out)
	for sc.Scan() {
		if !strings.HasPrefix(sc.Text(), "Benchmark") {
			continue
		}
		name, vals, err := parseLine(sc.Text())
		if err != nil {
			return err
		}
		if s[name] == nil {
			s[name] = map[string][]float64{}
		}
		for _, unit := range metrics {
			if v, ok := vals[unit]; ok {
				s[name][unit] = append(s[name][unit], v)
			}
		}
	}
	return sc.Err()
}

// quartiles returns the first quartile, the median and the third
// quartile of xs by the "exclusive" method of Python's
// statistics.quantiles(xs, n=4), as bench/compare reports them; xs
// needs at least two samples. It copies Quartiles of
// bench/internal/stat, which this module cannot import.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := max(1, min(i*(n+1)/4, n-1))
		delta := i*(n+1) - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// row is one benchmark and metric under the rule.
type row struct {
	bench, unit string
	base, head  []float64
	losses      int // pairs in which head read worse than base
	verdict     string
}

// judge applies the rule to every benchmark and metric of base and
// head, sorted by name; base[b][u][k] and head[b][u][k] ran in pair k.
func judge(base, head samples) []row {
	type key struct{ bench, unit string }
	seen := map[key]bool{}
	for _, s := range []samples{base, head} {
		for name, byUnit := range s {
			for unit := range byUnit {
				seen[key{name, unit}] = true
			}
		}
	}
	rows := make([]row, 0, len(seen))
	for k := range seen {
		rows = append(rows, row{bench: k.bench, unit: k.unit, base: base[k.bench][k.unit], head: head[k.bench][k.unit]})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].bench != rows[j].bench {
			return rows[i].bench < rows[j].bench
		}
		return rows[i].unit > rows[j].unit // ns/op before allocs/op
	})
	for i := range rows {
		r := &rows[i]
		switch {
		case r.base == nil:
			r.verdict = "new"
		case r.head == nil:
			r.verdict = "gone"
		default:
			for k := range r.base {
				if r.head[k] > r.base[k] {
					r.losses++
				}
			}
			q1, medBase, q3 := quartiles(r.base)
			_, medHead, _ := quartiles(r.head)
			r.verdict = "ok"
			if r.losses == pairs && medHead-medBase > q3-q1 {
				r.verdict = "REGRESSION"
			}
		}
	}
	return rows
}

// printTable writes one line per row: each side's median and
// quartiles, the change of the medians, the head's losses and the
// verdict.
func printTable(w io.Writer, rows []row) error {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "benchmark\tmetric\tbase median\tbase q1-q3\thead median\thead q1-q3\tchange\thead losses\tverdict")
	side := func(xs []float64) string {
		if xs == nil {
			return "-\t-"
		}
		q1, q2, q3 := quartiles(xs)
		return fmt.Sprintf("%.4g\t%.4g-%.4g", q2, q1, q3)
	}
	for _, r := range rows {
		change, losses := "-", "-"
		if r.base != nil && r.head != nil {
			_, mb, _ := quartiles(r.base)
			_, mh, _ := quartiles(r.head)
			change = "0"
			if mh != mb {
				change = fmt.Sprintf("%+.1f%%", 100*(mh-mb)/mb) // +Inf% from 0
			}
			losses = fmt.Sprintf("%d/%d", r.losses, len(r.base))
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\t%s\n", r.bench, r.unit, side(r.base), side(r.head), change, losses, r.verdict)
	}
	return tw.Flush()
}

// checkout is one side of the comparison: its directory, its test
// binary per gated package (empty where the package does not exist)
// and its readings.
type checkout struct {
	name, dir string
	bins      []string
	got       samples
}

// build compiles the test binary of every gated package of c into tmp.
// -trimpath keeps the checkout's path out of the binary, so identical
// sources give identical binaries wherever they are checked out.
func (c *checkout) build(tmp string) error {
	c.bins = make([]string, len(gated))
	for i, g := range gated {
		if _, err := os.Stat(filepath.Join(c.dir, g.pkg)); errors.Is(err, fs.ErrNotExist) {
			continue
		}
		bin := filepath.Join(tmp, fmt.Sprintf("%s-%d.test", c.name, i))
		cmd := exec.Command("go", "test", "-c", "-trimpath", "-o", bin, "./"+g.pkg)
		cmd.Dir = c.dir
		if out, err := cmd.CombinedOutput(); err != nil {
			return fmt.Errorf("building %s in %s: %v\n%s", g.pkg, c.dir, err, out)
		}
		c.bins[i] = bin
	}
	return nil
}

// run runs gated package i's benchmarks once, from the package's
// directory.
func (c *checkout) run(i int) error {
	g := gated[i]
	if c.bins[i] == "" {
		return nil
	}
	cmd := exec.Command(c.bins[i], "-test.run", "^$", "-test.bench", g.pattern,
		"-test.benchtime", g.benchtime, "-test.benchmem", "-test.count", "1", "-test.timeout", "10m")
	cmd.Dir = filepath.Join(c.dir, g.pkg)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("%s benchmarks in %s: %v\n%s%s", g.pkg, c.dir, err, stdout.Bytes(), stderr.Bytes())
	}
	return c.got.addOutput(&stdout)
}

// gate builds and runs both checkouts and reports whether any row
// regressed.
func gate(baseDir, headDir string) (regressed bool, err error) {
	tmp, err := os.MkdirTemp("", "benchdelta")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(tmp)
	sides := [2]*checkout{{name: "base", dir: baseDir}, {name: "head", dir: headDir}}
	for _, c := range sides {
		if c.dir, err = filepath.Abs(c.dir); err != nil {
			return false, err
		}
		c.got = samples{}
		if err := c.build(tmp); err != nil {
			return false, err
		}
	}
	for p := 0; p < pairs; p++ {
		fmt.Fprintf(os.Stderr, "benchdelta: pair %d/%d\n", p+1, pairs)
		first := p % 2
		for i := range gated {
			for _, c := range []*checkout{sides[first], sides[1-first]} {
				if err := c.run(i); err != nil {
					return false, err
				}
			}
		}
	}
	for _, c := range sides {
		for name, byUnit := range c.got {
			for unit, xs := range byUnit {
				if len(xs) != pairs {
					return false, fmt.Errorf("%s: %s %s has %d readings, want %d", c.dir, name, unit, len(xs), pairs)
				}
			}
		}
	}
	rows := judge(sides[0].got, sides[1].got)
	if err := printTable(os.Stdout, rows); err != nil {
		return false, err
	}
	for _, r := range rows {
		if r.verdict == "REGRESSION" {
			regressed = true
		}
	}
	return regressed, nil
}

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: benchdelta <base checkout> <head checkout>")
		os.Exit(2)
	}
	regressed, err := gate(os.Args[1], os.Args[2])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdelta:", err)
		os.Exit(2)
	}
	if regressed {
		fmt.Fprintln(os.Stderr, "benchdelta: head regressed")
		os.Exit(1)
	}
}
