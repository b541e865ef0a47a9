// Command prefetchbench is the repository's benchmark. It runs one
// workload for a fixed time, checks every output against pinned
// digests, and prints its metrics as one JSON object, the last line of
// standard output:
//
//	bash bench/run.sh --workload fig6 --seed 1 --seconds 30 --trace 0
//
// Workloads: fig6, tables and zoo run the simulator's experiment API in
// a child process; serve drives the prefetchd job server. With -trace 1
// it prints the per-layer metrics instead of the end-to-end ones and
// writes one JSONL file of spans to -trace-dir. See bench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
)

// options are a run's settings.
type options struct {
	workload  string
	seed      uint64
	seconds   int
	trace     bool
	tiny      bool
	traceDir  string
	prefetchd string // the prefetchd binary the serve workload runs
	profile   string // where a sim child writes its CPU profile
	child     bool
}

func parseFlags(args []string) (options, string, error) {
	var o options
	fs := flag.NewFlagSet("prefetchbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload: fig6, tables, zoo or serve")
	fs.Uint64Var(&o.seed, "seed", 1, "seed the workload's inputs are made from")
	fs.IntVar(&o.seconds, "seconds", 30, "how long to measure")
	traceN := fs.Int("trace", 0, "1 prints the per-layer metrics of a traced run")
	work := fs.String("work", ".bench_build", "directory holding bin/prefetchd and the run's files")
	fs.StringVar(&o.traceDir, "trace-dir", "", "where a traced run writes its spans (default <work>/trace)")
	fs.BoolVar(&o.tiny, "tiny", false, "shrink every workload to a test size")
	fs.BoolVar(&o.child, "child", false, "run as the child process of a sim workload")
	fs.StringVar(&o.profile, "profile", "", "CPU profile path of a traced sim child")
	if err := fs.Parse(args); err != nil {
		return o, "", err
	}
	if fs.NArg() > 0 {
		return o, "", fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if _, ok := simWorkloads[o.workload]; !ok && o.workload != "serve" {
		return o, "", fmt.Errorf("unknown workload %q", o.workload)
	}
	if *traceN != 0 && *traceN != 1 {
		return o, "", fmt.Errorf("-trace must be 0 or 1")
	}
	if o.seconds < 1 {
		return o, "", fmt.Errorf("-seconds must be at least 1")
	}
	o.trace = *traceN == 1
	if o.traceDir == "" {
		o.traceDir = filepath.Join(*work, "trace")
	}
	o.prefetchd = filepath.Join(*work, "bin", "prefetchd")
	return o, *work, nil
}

func main() {
	o, work, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "prefetchbench:", err)
		os.Exit(2)
	}
	if o.child {
		if err := runChild(o); err != nil {
			fmt.Fprintln(os.Stderr, "prefetchbench child:", err)
			os.Exit(1)
		}
		return
	}
	rep, err := run(o, work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "prefetchbench:", err)
		os.Exit(1)
	}
	buf, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "prefetchbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(buf))
}

// run measures one workload. Its scratch files live in a directory of
// their own under work, removed when the run ends.
func run(o options, work string) (report, error) {
	dir, err := filepath.Abs(filepath.Join(work, "runs", strconv.Itoa(os.Getpid())))
	if err != nil {
		return report{}, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return report{}, err
	}
	defer os.RemoveAll(dir)
	if o.workload == "serve" {
		return runServe(o, dir)
	}
	o.profile = filepath.Join(dir, "cpu.pprof")
	return runSim(o)
}
