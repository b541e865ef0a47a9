// Package batchcli declares the flags the batch commands (figure6,
// tables and sweep) share, seeds the prefetchsim.Spec each command
// parses its flags into, and runs that spec with the plumbing behind
// the shared flags:
//
//	-procs N      processor count (default 16, the paper's)
//	-scale N      data-set scale (default 1, the paper's inputs)
//	-seed N       workload seed
//	-j N          simulations to run concurrently (0 = all cores,
//	              1 = serial); the rows are identical for every -j
//	-manifest F   write the sweep's provenance manifest (JSON) to F
//	-metrics      print sweep-wide metric totals
//	-http ADDR    serve a live JSON status endpoint on ADDR while the
//	              simulations run (internal/webstatus)
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
	"prefetchsim/internal/webstatus"
)

// Flags holds one command's shared flag values and, once Execute has
// run, the manifest recorder and status endpoint they asked for.
type Flags struct {
	tool     string
	procs    int
	scale    int
	seed     uint64
	workers  int
	manifest string
	metrics  bool
	httpAddr string

	rec      *prefetchsim.ManifestRecorder
	srv      *webstatus.Server
	start    time.Time
	rendered []string // the rows' text, for the manifest's digest
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
	flag.StringVar(&f.httpAddr, "http", "", "serve a live JSON status endpoint on this address while the simulations run")
	return f
}

// Spec returns a spec of the given kind carrying -procs, -scale, -seed
// and, as its applications, the positional arguments. Call after
// flag.Parse.
func (f *Flags) Spec(kind string) prefetchsim.Spec {
	return prefetchsim.Spec{Kind: kind, Apps: flag.Args(), Procs: f.procs, Scale: f.scale, Seed: f.seed}
}

// Execute runs spec on -j workers and hands each row to sink in order.
// It attaches a manifest recorder when -manifest, -metrics or -http
// needs one and serves the -http status endpoint while the spec runs.
func (f *Flags) Execute(spec prefetchsim.Spec, sink func(row fmt.Stringer)) error {
	opt := prefetchsim.ExpOptions{Workers: f.workers}
	if f.manifest != "" || f.metrics || f.httpAddr != "" {
		f.rec = &prefetchsim.ManifestRecorder{}
		opt.Record = f.rec
	}
	if f.httpAddr != "" {
		var prog webstatus.Progress
		opt.Progress = prog.Set
		srv, err := webstatus.Serve(f.httpAddr, func() webstatus.Status {
			done, total := prog.Snapshot()
			runs, totals := f.rec.Status()
			return webstatus.Status{
				Tool: f.tool, Done: done, Total: total,
				Rows: done, Runs: runs, Metrics: totals,
			}
		})
		if err != nil {
			return err
		}
		f.srv = srv
		fmt.Fprintf(os.Stderr, "%s: status endpoint on http://%s/status\n", f.tool, srv.Addr())
	}
	f.start = time.Now()
	return spec.Execute(opt, func(_, _ int, row fmt.Stringer) {
		f.rendered = append(f.rendered, row.String())
		sink(row)
	})
}

// Finish prints the metric totals to totals when -metrics is set,
// writes the sweep manifest of the rows Execute handed over when
// -manifest is set, and stops the status endpoint.
func (f *Flags) Finish(totals io.Writer) {
	if f.metrics {
		printTotals(totals, f.rec.Totals())
	}
	if f.manifest != "" {
		sm := f.rec.Sweep(f.tool, os.Args[1:], f.rendered, time.Since(f.start))
		f.ExitOn(sm.WriteFile(f.manifest))
		fmt.Printf("manifest: %s (%d runs, rows digest %s)\n", f.manifest, len(sm.Runs), sm.RowsDigest)
	}
	if f.srv != nil {
		f.srv.Close()
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
