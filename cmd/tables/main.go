// Command tables regenerates the paper's Tables 2, 3 and 4: the
// application characteristics that predict the relative performance of
// stride and sequential prefetching.
//
// Usage:
//
//	tables -table 2            # infinite SLC characteristics
//	tables -table 3            # finite 16 KB SLC characteristics
//	tables -table 4            # larger-data-set trends
//	tables -table 3 -j 4 -manifest t3.json -metrics lu ocean
//
// The -procs, -scale, -seed, -j, -manifest, -metrics and -http flags
// are the batch commands' shared set (internal/batchcli).
package main

import (
	"flag"
	"fmt"
	"os"

	"prefetchsim"
	"prefetchsim/internal/batchcli"
)

func main() {
	cli := batchcli.Register("tables")
	table := flag.Int("table", 2, "table to regenerate: 2, 3 or 4")
	flag.Parse()

	opt := cli.Start()
	var rendered []string

	switch *table {
	case 2:
		fmt.Println("Table 2: application characteristics, infinite second-level cache")
		rows, err := prefetchsim.Table2(opt)
		cli.ExitOn(err)
		rendered = emit(rows)
	case 3:
		fmt.Printf("Table 3: application characteristics, finite %d-byte direct-mapped SLC\n",
			prefetchsim.FiniteSLCBytes)
		rows, err := prefetchsim.Table3(opt)
		cli.ExitOn(err)
		rendered = emit(rows)
	case 4:
		fmt.Println("Table 4: characteristics trend with larger data sets, infinite SLC")
		rows, err := prefetchsim.Table4(opt)
		cli.ExitOn(err)
		rendered = emit(rows)
	default:
		fmt.Fprintln(os.Stderr, "tables: -table must be 2, 3 or 4")
		os.Exit(2)
	}

	cli.Finish(os.Stdout, rendered)
}

// emit prints each row indented and returns the rendered lines for the
// manifest's row digest.
func emit[R fmt.Stringer](rows []R) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
		fmt.Println(" ", r)
	}
	return out
}
