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
// The -procs, -scale, -seed, -j, -manifest and -metrics flags are the
// batch commands' shared set (internal/batchcli); sweep prints its
// metric totals on stderr, keeping stdout free for the CSV. A failed
// configuration is reported on stderr and skipped; the remaining rows
// are still written, and sweep then exits with status 1.
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

// sweep runs a sweep spec through execute and writes its CSV to w,
// returning the number of data rows written. The header waits in the
// CSV writer's buffer until the end, so a spec execute rejects outright
// leaves w empty.
func sweep(spec prefetchsim.Spec, execute func(prefetchsim.Spec, func(fmt.Stringer)), w io.Writer) (rows int, err error) {
	cw := csv.NewWriter(w)
	if err := cw.Write(prefetchsim.SweepColumns()); err != nil {
		return 0, err
	}
	execute(spec, func(r fmt.Stringer) {
		_ = cw.Write(r.(prefetchsim.SweepRow)) // a write error sticks; cw.Error reports it after Flush
		rows++
	})
	cw.Flush()
	return rows, cw.Error()
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

	rows, err := sweep(spec, cli.Execute, w)
	cli.ExitOn(err)
	cli.ExitOn(pf.Stop())
	if f != nil {
		cli.ExitOn(f.Close())
		fmt.Printf("wrote %d rows to %s\n", rows, *out)
	}
	cli.Finish(os.Stderr)
}

func splitTrim[T ~string](csvList string) []T {
	var out []T
	for _, f := range strings.Split(csvList, ",") {
		out = append(out, T(strings.TrimSpace(f)))
	}
	return out
}
