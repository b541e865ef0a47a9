// Command prefetchsim runs one simulation of the paper's machine and
// prints its statistics.
//
// Usage:
//
//	prefetchsim -app lu -scheme Seq -degree 1
//	prefetchsim -app ocean -scheme I-det -slc 16384 -chars
//	prefetchsim -app water -representativeness -procs 4
//	prefetchsim -app lu -scheme Seq -manifest run.json -metrics
//	prefetchsim -app ocean -scheme Seq -spans spans.jsonl -timeline tl.jsonl
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"prefetchsim"
	"prefetchsim/internal/apps/workload"
	"prefetchsim/internal/prof"
)

func main() {
	app := flag.String("app", "lu", "application: "+strings.Join(prefetchsim.Apps(), ", ")+
		" (extras: "+strings.Join(prefetchsim.ExtraApps(), ", ")+")")
	scheme := flag.String("scheme", "baseline",
		"prefetching scheme: baseline, I-det, D-det, Seq, Adaptive, Markov, Perceptron, BestOffset")
	degree := flag.Int("degree", 1, "degree of prefetching d")
	procs := flag.Int("procs", workload.DefaultProcs, "processor count")
	slc := flag.Int("slc", 0, "SLC size in bytes (0 = infinite)")
	scale := flag.Int("scale", workload.DefaultScale, "data-set scale (1 = paper inputs)")
	seed := flag.Uint64("seed", 0, "workload seed")
	chars := flag.Bool("chars", false, "print the Table 2/3 stride-sequence analysis of processor 0: stride distribution and top load sites")
	repr := flag.Bool("representativeness", false, "compare the Table 2 metrics across all processors (§5.1 check) and exit")
	record := flag.String("record", "", "record the application's reference trace to this file and exit")
	replay := flag.String("replay", "", "simulate a trace file recorded with -record instead of -app")
	manifest := flag.String("manifest", "", "write the run's provenance manifest (JSON) to this file")
	spans := flag.String("spans", "", "write transaction/stall spans as JSONL to this file (analyze with traceview)")
	spanSample := flag.Int("span-sample", 1, "keep one in N raw spans (aggregates stay exact)")
	spanCap := flag.Int("span-cap", 0, "raw-span ring capacity (0 = default)")
	timeline := flag.String("timeline", "", "write the windowed time-series as JSONL to this file")
	timelineWindow := flag.Int64("timeline-window", 10000, "timeline window in pclocks")
	metrics := flag.Bool("metrics", false, "print the run's metric snapshot")
	pf := prof.Register()
	flag.Parse()

	exitOn(pf.Start())
	defer func() { exitOn(pf.Stop()) }()

	if *repr {
		row, err := prefetchsim.Representativeness(*app, prefetchsim.ExpOptions{
			Procs: *procs, Scale: *scale, Seed: *seed,
		})
		exitOn(err)
		fmt.Println(row)
		return
	}

	if *record != "" {
		prog, err := prefetchsim.BuildApp(*app, prefetchsim.Params{
			Procs: *procs, Scale: *scale, Seed: *seed,
		})
		exitOn(err)
		f, err := os.Create(*record)
		exitOn(err)
		exitOn(prefetchsim.WriteProgram(f, prog))
		exitOn(f.Close())
		fmt.Printf("recorded %s (%d processors) to %s\n", *app, *procs, *record)
		return
	}

	var program *prefetchsim.Program
	if *replay != "" {
		f, err := os.Open(*replay)
		exitOn(err)
		program, err = prefetchsim.ReadProgram(f)
		exitOn(err)
		exitOn(f.Close())
	}

	cfg := prefetchsim.Config{
		App:                    *app,
		Program:                program,
		Scheme:                 prefetchsim.Scheme(*scheme),
		Degree:                 *degree,
		Processors:             *procs,
		SLCBytes:               *slc,
		Scale:                  *scale,
		Seed:                   *seed,
		CollectCharacteristics: *chars,
		CollectMetrics:         *metrics || *manifest != "",
	}
	var spanFile *os.File
	if *spans != "" {
		f, err := os.Create(*spans)
		exitOn(err)
		spanFile = f
		cfg.Spans = &prefetchsim.SpanConfig{W: f, Cap: *spanCap, Sample: *spanSample}
	}
	var timelineFile *os.File
	if *timeline != "" {
		f, err := os.Create(*timeline)
		exitOn(err)
		timelineFile = f
		cfg.Timeline = &prefetchsim.TimelineConfig{Window: *timelineWindow, W: f}
	}

	start := time.Now()
	res, err := prefetchsim.Run(cfg)
	exitOn(err)
	wall := time.Since(start)
	fmt.Printf("%s / %s (d=%d, %d processors", res.App, res.Scheme, *degree, *procs)
	if *slc == 0 {
		fmt.Printf(", infinite SLC)\n")
	} else {
		fmt.Printf(", %d-byte SLC)\n", *slc)
	}
	fmt.Print(res.Stats)
	if res.Chars != nil {
		printChars(res)
	}
	if *metrics {
		fmt.Println("metrics:")
		for _, s := range res.Metrics {
			fmt.Printf("  %-28s %d\n", s.Name, s.Value)
		}
	}
	if spanFile != nil {
		exitOn(spanFile.Close())
		if sum := res.SpanTrace; sum != nil {
			fmt.Printf("spans: %d seen, %d kept, %d dropped -> %s\n",
				sum.Seen, sum.Kept, sum.Dropped, *spans)
		}
		if st := res.Spans; st != nil {
			fmt.Println("span classes:")
			for c := prefetchsim.SpanClass(0); c < prefetchsim.NumSpanClasses; c++ {
				cs := st.Class(c)
				if cs.Count == 0 {
					continue
				}
				fmt.Printf("  %-16s count %8d  mean %8.1f  wait %12d\n",
					c, cs.Count, float64(cs.TotalPclocks)/float64(cs.Count), cs.WaitPclocks)
			}
			if st.IdleCount > 0 {
				fmt.Printf("  prefetch fill-to-use idle: %d consumed, mean %.1f pclocks\n",
					st.IdleCount, float64(st.IdlePclocks)/float64(st.IdleCount))
			}
		}
	}
	if timelineFile != nil {
		exitOn(timelineFile.Close())
		fmt.Printf("timeline: %d windows of %d pclocks -> %s\n",
			len(res.Timeline), *timelineWindow, *timeline)
	}
	if *manifest != "" {
		m := prefetchsim.NewManifest(cfg, res, wall)
		exitOn(m.WriteFile(*manifest))
		fmt.Printf("manifest: %s (stats digest %s)\n", *manifest, m.StatsDigest)
	}
}

// printChars prints the stride-sequence analysis of processor 0's SLC
// read-miss stream — the methodology behind Tables 2 and 3 — with the
// stride distribution and the load sites that miss most.
func printChars(res *prefetchsim.Result) {
	c := res.Chars
	fmt.Printf("%s: processor-0 read-miss characteristics\n"+
		"  total read misses:            %d\n"+
		"  within stride sequences:      %.1f%%\n"+
		"  stride sequences:             %d\n"+
		"  average sequence length:      %.1f references\n"+
		"  stride distribution (blocks, share of stride-sequence misses):\n",
		res.App, c.TotalMisses, 100*c.FracInSequences(), c.Sequences, c.AvgSeqLen())
	for i, s := range c.Strides() {
		if i == 10 || s.Share < 0.01 {
			break
		}
		fmt.Printf("    %6d  %5.1f%%\n", s.Stride, 100*s.Share)
	}
	fmt.Println("  top load sites (PC, misses, in-stride, dominant stride):")
	for i, site := range res.Sites {
		if i == 8 {
			break
		}
		fmt.Printf("    pc=%-5d %7d misses  %5.1f%% in-stride  stride %d\n",
			site.PC, site.Misses,
			100*float64(site.StrideMisses)/float64(site.Misses), site.Dominant)
	}
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "prefetchsim:", err)
		os.Exit(1)
	}
}
