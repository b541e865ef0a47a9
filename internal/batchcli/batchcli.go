// Package batchcli declares the flags the batch commands (figure6,
// tables and sweep) share, and runs the plumbing behind them:
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
	"prefetchsim/internal/webstatus"
)

// Flags holds one command's shared flag values and, once Start has run,
// the manifest recorder and status endpoint they asked for.
type Flags struct {
	tool string
	// opt carries -procs, -scale, -seed and -j, plus the recorder and
	// progress callback Start attaches.
	opt      prefetchsim.ExpOptions
	manifest string
	metrics  bool
	httpAddr string

	srv   *webstatus.Server
	start time.Time
}

// Register declares the shared flags on the default flag set for the
// named command. Call before flag.Parse.
func Register(tool string) *Flags {
	f := &Flags{tool: tool}
	flag.IntVar(&f.opt.Procs, "procs", 16, "processor count")
	flag.IntVar(&f.opt.Scale, "scale", 1, "data-set scale")
	flag.Uint64Var(&f.opt.Seed, "seed", 0, "workload seed")
	flag.IntVar(&f.opt.Workers, "j", 0, "simulations to run concurrently (0 = all cores, 1 = serial)")
	flag.StringVar(&f.manifest, "manifest", "", "write the sweep's provenance manifest (JSON) to this file")
	flag.BoolVar(&f.metrics, "metrics", false, "print sweep-wide metric totals")
	flag.StringVar(&f.httpAddr, "http", "", "serve a live JSON status endpoint on this address while the simulations run")
	return f
}

// Start runs after flag.Parse. It attaches a manifest recorder when
// -manifest, -metrics or -http needs one, starts the -http status
// endpoint, and returns the experiment options the flags select, with
// the positional arguments as the applications.
func (f *Flags) Start() prefetchsim.ExpOptions {
	if f.manifest != "" || f.metrics || f.httpAddr != "" {
		f.opt.Record = &prefetchsim.ManifestRecorder{}
	}
	if f.httpAddr != "" {
		var prog webstatus.Progress
		f.opt.Progress = prog.Set
		rec := f.opt.Record
		srv, err := webstatus.Serve(f.httpAddr, func() webstatus.Status {
			done, total := prog.Snapshot()
			runs, totals := rec.Status()
			return webstatus.Status{
				Tool: f.tool, Done: done, Total: total,
				Rows: done, Runs: runs, Metrics: totals,
			}
		})
		f.ExitOn(err)
		f.srv = srv
		fmt.Fprintf(os.Stderr, "%s: status endpoint on http://%s/status\n", f.tool, srv.Addr())
	}
	f.start = time.Now()
	opt := f.opt
	opt.Apps = flag.Args()
	return opt
}

// Finish prints the metric totals to totals when -metrics is set,
// writes the sweep manifest of the rendered rows when -manifest is
// set, and stops the status endpoint.
func (f *Flags) Finish(totals io.Writer, rendered []string) {
	rec := f.opt.Record
	if f.metrics {
		printTotals(totals, rec.Totals())
	}
	if f.manifest != "" {
		sm := rec.Sweep(f.tool, os.Args[1:], rendered, time.Since(f.start))
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

// Ints parses a comma-separated integer list.
func Ints(csv string) ([]int, error) {
	var out []int
	for _, s := range strings.Split(csv, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			return nil, fmt.Errorf("bad integer list %q: %v", csv, err)
		}
		out = append(out, v)
	}
	return out, nil
}
