// Command compare runs the benchmark on two checkouts in alternating
// pairs and applies the pairing rule to every end-to-end metric:
//
//	go -C bench run ./compare -a /path/to/parent -b /path/to/change -pairs 10
//
// Each pair runs the same workload and seed once per checkout, the
// first side alternating between pairs. Every workload of a's
// BENCHMARK.json runs, for its run_seconds. For every workload and metric
// it prints each side's median and quartiles and a verdict:
//
//   - gain: b wins at least 9 of 10 pairs and the medians differ by more
//     than a's interquartile range;
//   - regression: b's median is worse than a's by more than the bound
//     in a's BENCHMARK.json;
//   - unresolved: either side's spread (IQR over median) exceeds the
//     bound, and not every run of b reads better than every run of a;
//   - same: none of the above.
//
// Runs whose outputs fail their correctness checks are counted per side.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"text/tabwriter"

	"prefetchsim/bench/internal/stat"
)

// benchmark is the part of BENCHMARK.json the comparison reads.
type benchmark struct {
	Command    []string `json:"command"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// result is the last line a benchmark run prints.
type result struct {
	Correct bool `json:"correct"`
	Failed  int  `json:"failed"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func loadBenchmark(dir string) (benchmark, error) {
	var b benchmark
	buf, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
	if err != nil {
		return b, err
	}
	return b, json.Unmarshal(buf, &b)
}

// runOnce runs the benchmark command of b in checkout dir for b's
// run_seconds.
func runOnce(b benchmark, dir, workload string, seed uint64) (result, error) {
	args := append(append([]string(nil), b.Command[1:]...),
		"--workload", workload, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.Itoa(b.RunSeconds), "--trace", "0")
	cmd := exec.Command(b.Command[0], args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	var r result
	if err := cmd.Run(); err != nil {
		return r, fmt.Errorf("%s in %s: %v\n%s", workload, dir, err, stderr.Bytes())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return r, fmt.Errorf("%s in %s: last line: %v", workload, dir, err)
	}
	return r, nil
}

// comparison is one metric's paired samples judged by the pairing rule.
type comparison struct {
	q1a, medA, q3a float64
	q1b, medB, q3b float64
	wins, pairs    int // pairs in which b reads better; ties count for neither
	verdict        string
}

// compare applies the pairing rule to one metric's paired samples: a[i]
// and b[i] ran in the same pair.
func compare(m metricDef, a, b []float64) (comparison, error) {
	c := comparison{pairs: len(a)}
	var err error
	if c.q1a, c.medA, c.q3a, err = stat.Quartiles(a); err != nil {
		return c, err
	}
	if c.q1b, c.medB, c.q3b, err = stat.Quartiles(b); err != nil {
		return c, err
	}
	sign := 1.0 // sign*(y-x) > 0 means y reads better than x
	if m.Better == "lower" {
		sign = -1
	}
	allBetter := true
	for i := range a {
		if sign*(b[i]-a[i]) > 0 {
			c.wins++
		}
		for _, y := range b {
			if sign*(y-a[i]) <= 0 {
				allBetter = false
			}
		}
	}
	spreadA, _ := stat.Spread(a)
	spreadB, _ := stat.Spread(b)
	worse := -sign * (c.medB - c.medA) / math.Abs(c.medA)
	switch {
	case c.pairs >= 10 && 10*c.wins >= 9*c.pairs && sign*(c.medB-c.medA) > c.q3a-c.q1a:
		c.verdict = "gain"
	case math.Max(spreadA, spreadB) > m.Bound && !allBetter:
		c.verdict = "unresolved"
	case worse > m.Bound:
		c.verdict = "regression"
	default:
		c.verdict = "same"
	}
	return c, nil
}

func main() {
	a := flag.String("a", ".", "checkout of the parent (its BENCHMARK.json sets the bounds)")
	b := flag.String("b", ".", "checkout of the change")
	pairs := flag.Int("pairs", 10, "alternating pairs per workload")
	seed := flag.Uint64("seed", 1, "seed of every run")
	flag.Parse()

	bench, err := loadBenchmark(*a)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(1)
	}
	if *pairs < 10 {
		fmt.Fprintf(os.Stderr, "compare: %d pairs cannot show a gain; the rule needs 10\n", *pairs)
	}

	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\ta median\ta q1-q3\tb median\tb q1-q3\tchange\tb wins\tverdict")
	for _, wl := range bench.Workloads {
		w := wl.Name
		va := make(map[string][]float64)
		vb := make(map[string][]float64)
		bad := [2]int{}
		for i := 0; i < *pairs; i++ {
			sides := []int{0, 1}
			if i%2 == 1 {
				sides = []int{1, 0}
			}
			for _, side := range sides {
				dir, into := *a, va
				if side == 1 {
					dir, into = *b, vb
				}
				r, err := runOnce(bench, dir, w, *seed)
				if err != nil {
					fmt.Fprintln(os.Stderr, "compare:", err)
					os.Exit(1)
				}
				if !r.Correct || r.Failed > 0 {
					bad[side]++
				}
				for name, m := range r.Metrics {
					into[name] = append(into[name], m.Value)
				}
			}
		}
		for _, m := range bench.EndToEnd {
			c, err := compare(m, va[m.Name], vb[m.Name])
			if err != nil {
				fmt.Fprintf(os.Stderr, "compare: %s %s: %v\n", w, m.Name, err)
				os.Exit(1)
			}
			if c.verdict == "gain" && bad[1] > bad[0] {
				c.verdict = "no gain: b failed more runs"
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g-%.4g\t%.4g\t%.4g-%.4g\t%+.1f%%\t%d/%d\t%s\n",
				w, m.Name, c.medA, c.q1a, c.q3a, c.medB, c.q1b, c.q3b, 100*(c.medB-c.medA)/c.medA, c.wins, c.pairs, c.verdict)
		}
		if bad[0]+bad[1] > 0 {
			fmt.Fprintf(tw, "%s\truns that failed their checks: a %d, b %d\n", w, bad[0], bad[1])
		}
		tw.Flush()
	}
}
