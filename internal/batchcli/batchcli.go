// Package batchcli declares the flags the batch commands (figure6,
// tables and sweep) share, seeds the prefetchsim.Spec each command
// parses its flags into, and runs that spec with the plumbing behind
// the shared flags. A failed configuration does not stop the others:
// each failure is one stderr line prefixed with the command's name, the
// totals and manifest still cover every row, and the command then
// exits with status 1.
//
//	-procs N      processor count (default 16, the paper's)
//	-scale N      data-set scale (default 1, the paper's inputs)
//	-seed N       workload seed
//	-j N          simulations to run concurrently (0 = all cores,
//	              1 = serial); the rows are identical for every -j
//	-manifest F   write the sweep's provenance manifest (JSON) to F
//	-metrics      print sweep-wide metric totals
package batchcli

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"prefetchsim"
	"prefetchsim/internal/apps/workload"
)

// Flags holds one command's shared flag values and, once Execute has
// run, the manifest recorder they asked for and the run's outcome.
type Flags struct {
	tool     string
	procs    int
	scale    int
	seed     uint64
	workers  int
	manifest string
	metrics  bool

	rec      *prefetchsim.ManifestRecorder
	start    time.Time
	rendered []string // the rows' text, for the manifest's digest
	failed   int      // configurations that failed
}

// Register declares the shared flags on the default flag set for the
// named command. Call before flag.Parse.
func Register(tool string) *Flags {
	f := &Flags{tool: tool}
	flag.IntVar(&f.procs, "procs", workload.DefaultProcs, "processor count")
	flag.IntVar(&f.scale, "scale", workload.DefaultScale, "data-set scale")
	flag.Uint64Var(&f.seed, "seed", 0, "workload seed")
	flag.IntVar(&f.workers, "j", 0, "simulations to run concurrently (0 = all cores, 1 = serial)")
	flag.StringVar(&f.manifest, "manifest", "", "write the sweep's provenance manifest (JSON) to this file")
	flag.BoolVar(&f.metrics, "metrics", false, "print sweep-wide metric totals")
	return f
}

// Spec returns a spec of the given kind carrying -procs, -scale, -seed
// and, as its applications, the positional arguments. Call after
// flag.Parse.
func (f *Flags) Spec(kind string) prefetchsim.Spec {
	return prefetchsim.Spec{Kind: kind, Apps: flag.Args(), Procs: f.procs, Scale: f.scale, Seed: f.seed}
}

// Execute runs spec on -j workers and hands each row to sink in order,
// attaching a manifest recorder when -manifest or -metrics needs one.
// A spec that cannot run at all exits at once. Each configuration that
// fails is reported on stderr and counted for Finish; the rows of the
// others still reach sink.
func (f *Flags) Execute(spec prefetchsim.Spec, sink func(row fmt.Stringer)) {
	spec, err := spec.Normalize()
	f.ExitOn(err)
	opt := prefetchsim.ExpOptions{Workers: f.workers}
	if f.manifest != "" || f.metrics {
		f.rec = &prefetchsim.ManifestRecorder{}
		opt.Record = f.rec
	}
	f.start = time.Now()
	err = spec.Execute(opt, func(_, _ int, row fmt.Stringer) {
		f.rendered = append(f.rendered, row.String())
		sink(row)
	})
	if err == nil {
		return
	}
	errs := []error{err}
	if j, ok := err.(interface{ Unwrap() []error }); ok {
		errs = j.Unwrap()
	}
	for _, e := range errs {
		fmt.Fprintf(os.Stderr, "%s: %v\n", f.tool, e)
	}
	f.failed = len(errs)
}

// Finish prints the metric totals to totals when -metrics is set and
// writes the sweep manifest of the rows Execute handed over when
// -manifest is set. If any configuration failed, it then says how many
// and exits with status 1.
func (f *Flags) Finish(totals io.Writer) {
	if f.metrics {
		printTotals(totals, f.rec.Totals())
	}
	if f.manifest != "" {
		sm := f.rec.Sweep(f.tool, os.Args[1:], f.rendered, time.Since(f.start))
		f.ExitOn(sm.WriteFile(f.manifest))
		fmt.Printf("manifest: %s (%d runs, rows digest %s)\n", f.manifest, len(sm.Runs), sm.RowsDigest)
	}
	if f.failed > 0 {
		fmt.Fprintf(os.Stderr, "%s: %d of %d configurations failed\n", f.tool, f.failed, len(f.rendered)+f.failed)
		os.Exit(1)
	}
}

// printTotals renders sweep-wide metric totals, name-sorted.
func printTotals(w io.Writer, totals map[string]int64) {
	names := make([]string, 0, len(totals))
	for n := range totals {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintln(w, "metric totals:")
	for _, n := range names {
		fmt.Fprintf(w, "  %-28s %d\n", n, totals[n])
	}
}

// ExitOn reports a non-nil err on stderr, prefixed with the command's
// name, and exits with status 1.
func (f *Flags) ExitOn(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", f.tool, err)
		os.Exit(1)
	}
}

// Ints parses a comma-separated integer list, exiting on a bad one.
func (f *Flags) Ints(csv string) []int {
	var out []int
	for _, s := range strings.Split(csv, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			f.ExitOn(fmt.Errorf("bad integer list %q: %v", csv, err))
		}
		out = append(out, v)
	}
	return out
}
