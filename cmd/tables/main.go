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
// The -procs, -scale, -seed, -j, -manifest and -metrics flags are the
// batch commands' shared set (internal/batchcli).
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

	titles := map[int]string{
		2: "Table 2: application characteristics, infinite second-level cache",
		3: fmt.Sprintf("Table 3: application characteristics, finite %d-byte direct-mapped SLC", prefetchsim.FiniteSLCBytes),
		4: "Table 4: characteristics trend with larger data sets, infinite SLC",
	}
	title, ok := titles[*table]
	if !ok {
		fmt.Fprintln(os.Stderr, "tables: -table must be 2, 3 or 4")
		os.Exit(2)
	}
	fmt.Println(title)
	cli.Execute(cli.Spec(fmt.Sprintf("table%d", *table)), func(r fmt.Stringer) {
		fmt.Println(" ", r)
	})
	cli.Finish(os.Stdout)
}
