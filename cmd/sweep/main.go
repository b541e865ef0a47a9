// Command sweep runs a factorial sweep over applications, schemes,
// degrees and cache sizes and emits one CSV row per simulation — the
// raw-data path for plotting or statistics outside this repository.
// The CSV rows stay in deterministic factorial order regardless of -j.
//
// Usage:
//
//	sweep -apps lu,water -schemes baseline,I-det,Seq -o results.csv
//	sweep -apps mp3d -schemes baseline,Seq -slc 0,16384 -degrees 1,2,4 -j 8
//	sweep -apps lu -schemes baseline,Seq -manifest sweep.json -metrics
//
// The -procs, -scale, -seed, -j, -manifest, -metrics and -http flags
// are the batch commands' shared set (internal/batchcli); sweep prints
// its metric totals on stderr, keeping stdout free for the CSV.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"prefetchsim"
	"prefetchsim/internal/batchcli"
	"prefetchsim/internal/prof"
)

// sweep runs a sweep spec through execute and writes its CSV to w. A
// failed configuration is reported on errw and skipped; the remaining
// rows are still written. It returns the number of data rows written
// and the number of failed configurations.
func sweep(spec prefetchsim.Spec, execute func(prefetchsim.Spec, func(fmt.Stringer)) error, w, errw io.Writer) (rows, failed int, err error) {
	cw := csv.NewWriter(w)
	if err := cw.Write(prefetchsim.SweepColumns()); err != nil {
		return 0, 0, err
	}
	runErr := execute(spec, func(r fmt.Stringer) {
		_ = cw.Write(r.(prefetchsim.SweepRow)) // a write error sticks; cw.Error reports it after Flush
		rows++
	})
	// Every failure is one configuration's ("app/scheme: why").
	if runErr != nil {
		errs := []error{runErr}
		if j, ok := runErr.(interface{ Unwrap() []error }); ok {
			errs = j.Unwrap()
		}
		for _, e := range errs {
			fmt.Fprintf(errw, "sweep: %v\n", e)
		}
		failed = len(errs)
	}
	cw.Flush()
	return rows, failed, cw.Error()
}

func main() {
	cli := batchcli.Register("sweep")
	apps := flag.String("apps", strings.Join(prefetchsim.Apps(), ","),
		"comma-separated applications (extras: "+strings.Join(prefetchsim.ExtraApps(), ",")+")")
	schemes := flag.String("schemes", "baseline,I-det,D-det,Seq",
		"comma-separated schemes (also: Adaptive, I-det-LA, D-det-LA, Hybrid, Markov, Perceptron, BestOffset)")
	degrees := flag.String("degrees", "1", "comma-separated prefetch degrees")
	slcs := flag.String("slc", "0", "comma-separated SLC sizes in bytes (0 = infinite)")
	ways := flag.Int("ways", 1, "SLC associativity for finite sizes")
	bw := flag.Int("bandwidth", 1, "bandwidth divisor")
	out := flag.String("o", "", "output CSV file (default stdout)")
	pf := prof.Register()
	flag.Parse()

	cli.ExitOn(pf.Start())

	var f *os.File
	w := io.Writer(os.Stdout)
	if *out != "" {
		var err error
		f, err = os.Create(*out)
		cli.ExitOn(err)
		w = f
	}

	spec := cli.Spec("sweep")
	spec.Apps, spec.Schemes = splitTrim[string](*apps), splitTrim[prefetchsim.Scheme](*schemes)
	spec.Degrees, spec.SLCs = cli.Ints(*degrees), cli.Ints(*slcs)
	spec.Ways, spec.Bandwidths = []int{*ways}, []int{*bw}
	// A spec the sweep cannot run at all is not a failed configuration.
	spec, err := spec.Normalize()
	cli.ExitOn(err)

	rows, failed, err := sweep(spec, cli.Execute, w, os.Stderr)
	cli.ExitOn(err)
	cli.ExitOn(pf.Stop())
	if f != nil {
		cli.ExitOn(f.Close())
		fmt.Printf("wrote %d rows to %s\n", rows, *out)
	}
	cli.Finish(os.Stderr)
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "sweep: %d of %d configurations failed\n", failed, rows+failed)
		os.Exit(1)
	}
}

func splitTrim[T ~string](csvList string) []T {
	var out []T
	for _, f := range strings.Split(csvList, ",") {
		out = append(out, T(strings.TrimSpace(f)))
	}
	return out
}
