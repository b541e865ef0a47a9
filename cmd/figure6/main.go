// Command figure6 regenerates the paper's Figure 6 — read misses,
// prefetch efficiency and read stall time of I-detection, D-detection
// and sequential prefetching relative to the baseline — plus the
// ablations discussed in §5.4 and §6.
//
// Usage:
//
//	figure6                      # the three Figure 6 panels, all apps
//	figure6 -finite              # same under the 16 KB SLC of §5.3
//	figure6 -adaptive            # include adaptive sequential prefetching
//	figure6 -degrees 1,2,4,8 -app lu -scheme Seq
//	figure6 -slcsweep 8192,16384,65536 -app ocean -scheme I-det
//	figure6 -extensions -app lu
//	figure6 -consistency mp3d ocean
//	figure6 -stalls              # busy/read/write/sync stall decomposition
//	figure6 -j 8 -manifest fig6.json -metrics -http :8080
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
	cli := batchcli.Register("figure6")
	finite := flag.Bool("finite", false, "use the 16 KB SLC of §5.3 instead of an infinite SLC")
	adaptive := flag.Bool("adaptive", false, "also run adaptive sequential prefetching")
	app := flag.String("app", "lu", "application for -degrees / -slcsweep")
	scheme := flag.String("scheme", "Seq", "scheme for -degrees / -slcsweep")
	degrees := flag.String("degrees", "", "comma-separated degree sweep (ablation)")
	slcsweep := flag.String("slcsweep", "", "comma-separated SLC byte sizes (ablation)")
	extensions := flag.Bool("extensions", false, "compare the §6 extension schemes (lookahead, hybrid) on -app")
	zoo := flag.Bool("zoo", false, "compare the modern prefetcher zoo (Markov, Perceptron, BestOffset) against the paper's schemes on -app")
	bandwidth := flag.String("bandwidth", "", "comma-separated bandwidth divisors for the §7 limitation study on -app")
	assoc := flag.String("assoc", "", "comma-separated SLC associativities for the finite-cache ablation on -app")
	consistency := flag.Bool("consistency", false, "compare release vs sequential consistency")
	bars := flag.Bool("bars", false, "render the three panels as bar charts, as in the paper")
	stalls := flag.Bool("stalls", false, "print the execution-time stall decomposition (busy/read/write/sync) per app and scheme")
	flag.Parse()

	opt := cli.Start()
	var rendered []string

	switch {
	case *stalls:
		fmt.Println("Execution-time stall decomposition (fractions of summed per-node time)")
		rows, err := prefetchsim.StallBreakdown(opt)
		cli.ExitOn(err)
		rendered = render(rows)
		prev := ""
		for _, r := range rows {
			if r.App != prev && prev != "" {
				fmt.Println()
			}
			prev = r.App
			fmt.Println(" ", r)
		}
	case *bandwidth != "":
		fs, err := batchcli.Ints(*bandwidth)
		cli.ExitOn(err)
		fmt.Printf("Bandwidth-limitation study (§7) on %s\n", *app)
		rows, err := prefetchsim.BandwidthSweep(*app, fs, opt)
		cli.ExitOn(err)
		rendered = render(rows)
		for _, r := range rows {
			fmt.Println(" ", r)
		}
	case *assoc != "":
		ws, err := batchcli.Ints(*assoc)
		cli.ExitOn(err)
		fmt.Printf("SLC associativity ablation (16 KB) on %s\n", *app)
		rows, err := prefetchsim.AssocSweep(*app, ws, opt)
		cli.ExitOn(err)
		rendered = render(rows)
		for _, r := range rows {
			fmt.Println(" ", r)
		}
	case *extensions:
		fmt.Printf("Extension schemes (§6) on %s\n", *app)
		rows, err := prefetchsim.ExtensionCompare(*app, opt)
		cli.ExitOn(err)
		rendered = render(rows)
		print(rows)
	case *zoo:
		fmt.Printf("Prefetcher zoo vs the paper's schemes on %s\n", *app)
		rows, err := prefetchsim.ZooCompare(*app, opt)
		cli.ExitOn(err)
		rendered = render(rows)
		print(rows)
	case *consistency:
		fmt.Println("Release vs sequential consistency (the paper assumes RC)")
		rows, err := prefetchsim.ConsistencyCompare(opt)
		cli.ExitOn(err)
		rendered = render(rows)
		for _, r := range rows {
			fmt.Println(" ", r)
		}
	case *degrees != "":
		ds, err := batchcli.Ints(*degrees)
		cli.ExitOn(err)
		fmt.Printf("Degree sweep: %s on %s\n", *scheme, *app)
		rows, err := prefetchsim.DegreeSweep(*app, prefetchsim.Scheme(*scheme), ds, opt)
		cli.ExitOn(err)
		rendered = render(rows)
		print(rows)
	case *slcsweep != "":
		ss, err := batchcli.Ints(*slcsweep)
		cli.ExitOn(err)
		fmt.Printf("SLC-size sweep: %s on %s\n", *scheme, *app)
		rows, err := prefetchsim.SLCSweep(*app, prefetchsim.Scheme(*scheme), ss, opt)
		cli.ExitOn(err)
		rendered = render(rows)
		print(rows)
	default:
		schemes := prefetchsim.Schemes()
		if *adaptive {
			schemes = append(schemes, prefetchsim.Adaptive)
		}
		var rows []prefetchsim.Fig6Row
		var err error
		if *finite {
			fmt.Printf("Figure 6 (finite %d-byte SLC): relative read misses, prefetch efficiency, relative read stall\n",
				prefetchsim.FiniteSLCBytes)
			rows, err = prefetchsim.Figure6Finite(opt, schemes...)
		} else {
			fmt.Println("Figure 6: relative read misses, prefetch efficiency, relative read stall (infinite SLC, d=1)")
			rows, err = prefetchsim.Figure6(opt, schemes...)
		}
		cli.ExitOn(err)
		rendered = render(rows)
		if *bars {
			fmt.Print(prefetchsim.RenderBars(rows))
		} else {
			print(rows)
		}
	}

	cli.Finish(os.Stdout, rendered)
}

// render flattens a row slice to its String() forms, in row order, for
// the sweep manifest's digest.
func render[R fmt.Stringer](rows []R) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	return out
}

func print(rows []prefetchsim.Fig6Row) {
	prev := ""
	for _, r := range rows {
		if r.App != prev && prev != "" {
			fmt.Println()
		}
		prev = r.App
		fmt.Println(" ", r)
	}
}
