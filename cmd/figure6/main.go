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
//	figure6 -j 8 -manifest fig6.json -metrics
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

	// Each mode is one spec kind; the single-application modes study
	// -app instead of the positional applications.
	spec := cli.Spec("figure6")
	on := func(kind string) {
		spec.Kind, spec.Apps = kind, []string{*app}
	}
	var title string
	switch {
	case *stalls:
		spec.Kind = "stalls"
		title = "Execution-time stall decomposition (fractions of summed per-node time)"
	case *bandwidth != "":
		on("bandwidth")
		spec.Bandwidths = cli.Ints(*bandwidth)
		title = fmt.Sprintf("Bandwidth-limitation study (§7) on %s", *app)
	case *assoc != "":
		on("assoc")
		spec.Ways = cli.Ints(*assoc)
		title = fmt.Sprintf("SLC associativity ablation (16 KB) on %s", *app)
	case *extensions:
		on("extensions")
		title = fmt.Sprintf("Extension schemes (§6) on %s", *app)
	case *zoo:
		on("zoo")
		title = fmt.Sprintf("Prefetcher zoo vs the paper's schemes on %s", *app)
	case *consistency:
		spec.Kind = "consistency"
		title = "Release vs sequential consistency (the paper assumes RC)"
	case *degrees != "":
		on("degrees")
		spec.Schemes, spec.Degrees = []prefetchsim.Scheme{prefetchsim.Scheme(*scheme)}, cli.Ints(*degrees)
		title = fmt.Sprintf("Degree sweep: %s on %s", *scheme, *app)
	case *slcsweep != "":
		on("slc")
		spec.Schemes, spec.SLCs = []prefetchsim.Scheme{prefetchsim.Scheme(*scheme)}, cli.Ints(*slcsweep)
		title = fmt.Sprintf("SLC-size sweep: %s on %s", *scheme, *app)
	default:
		if *adaptive {
			spec.Schemes = append(prefetchsim.Schemes(), prefetchsim.Adaptive)
		}
		spec.Finite = *finite
		title = "Figure 6: relative read misses, prefetch efficiency, relative read stall (infinite SLC, d=1)"
		if *finite {
			title = fmt.Sprintf("Figure 6 (finite %d-byte SLC): relative read misses, prefetch efficiency, relative read stall",
				prefetchsim.FiniteSLCBytes)
		}
	}
	fmt.Println(title)

	// Rows print as they complete, a blank line between applications;
	// -bars draws the Figure 6 panels once every row is in.
	var fig6 []prefetchsim.Fig6Row
	drawBars := *bars && spec.Kind == "figure6"
	prev := ""
	cli.Execute(spec, func(r fmt.Stringer) {
		if drawBars {
			fig6 = append(fig6, r.(prefetchsim.Fig6Row))
			return
		}
		app := ""
		switch r := r.(type) {
		case prefetchsim.Fig6Row:
			app = r.App
		case prefetchsim.StallRow:
			app = r.App
		}
		if app != prev && prev != "" {
			fmt.Println()
		}
		prev = app
		fmt.Println(" ", r)
	})
	if drawBars {
		fmt.Print(prefetchsim.RenderBars(fig6))
	}
	cli.Finish(os.Stdout)
}
