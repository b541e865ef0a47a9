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
	"strconv"
	"strings"

	"prefetchsim"
	"prefetchsim/internal/batchcli"
	"prefetchsim/internal/prof"
)

var header = []string{
	"app", "scheme", "degree", "slc_bytes", "slc_ways", "procs", "scale", "bandwidth_factor",
	"exec_pclocks", "reads", "writes", "read_misses", "delayed_hits",
	"cold_misses", "coherence_misses", "replacement_misses",
	"read_stall", "write_stall", "sync_stall",
	"prefetches_issued", "prefetches_useful", "prefetch_efficiency",
	"net_messages", "net_flits", "net_flit_hops",
}

// spec is one sweep's full parameterization, decoded from the flags.
type spec struct {
	apps    []string
	schemes []string
	degrees []int
	slcs    []int
	ways    int
	procs   int
	scale   int
	seed    uint64
	bw      int
	workers int
}

// configs expands the factorial design into one Config per CSV row, in
// the deterministic order the rows are emitted.
func (s spec) configs() []prefetchsim.Config {
	var cfgs []prefetchsim.Config
	for _, app := range s.apps {
		for _, slc := range s.slcs {
			for _, scheme := range s.schemes {
				ds := s.degrees
				if scheme == "baseline" {
					ds = []int{1} // degree is meaningless without prefetching
				}
				for _, d := range ds {
					cfgs = append(cfgs, prefetchsim.Config{
						App:        app,
						Scheme:     prefetchsim.Scheme(scheme),
						Degree:     d,
						Processors: s.procs, Scale: s.scale, Seed: s.seed,
						SLCBytes: slc, SLCWays: s.ways, BandwidthFactor: s.bw,
					})
				}
			}
		}
	}
	return cfgs
}

// sweep runs the factorial design across spec.workers goroutines and
// writes the CSV to w. A failed configuration is reported on errw and
// skipped; the remaining rows are still written. It returns the number
// of data rows written, the number of failed configurations and the
// rendered rows (for the sweep manifest's digest). rec, when non-nil,
// receives one provenance manifest per simulation; progress, when
// non-nil, is called after each simulation with (done, total).
func sweep(s spec, w, errw io.Writer, rec *prefetchsim.ManifestRecorder, progress func(done, total int)) (rows, failed int, rendered []string, err error) {
	cw := csv.NewWriter(w)
	if err := cw.Write(header); err != nil {
		return 0, 0, nil, err
	}
	cfgs := s.configs()
	var results []*prefetchsim.Result
	var errs []error
	if rec != nil {
		results, errs = prefetchsim.RunManyRecorded(cfgs, s.workers, rec, progress)
	} else {
		results, errs = prefetchsim.RunMany(cfgs, s.workers, progress)
	}
	for i, res := range results {
		if errs[i] != nil {
			failed++
			fmt.Fprintf(errw, "sweep: %s/%s: %v\n", cfgs[i].App, cfgs[i].Scheme, errs[i])
			continue
		}
		fields := record(res, cfgs[i])
		if err := cw.Write(fields); err != nil {
			return rows, failed, rendered, err
		}
		rendered = append(rendered, strings.Join(fields, ","))
		rows++
	}
	cw.Flush()
	return rows, failed, rendered, cw.Error()
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

	degreeList, err := batchcli.Ints(*degrees)
	cli.ExitOn(err)
	slcList, err := batchcli.Ints(*slcs)
	cli.ExitOn(err)

	opt := cli.Start()
	s := spec{
		apps:    splitTrim(*apps),
		schemes: splitTrim(*schemes),
		degrees: degreeList,
		slcs:    slcList,
		ways:    *ways, procs: opt.Procs, scale: opt.Scale, seed: opt.Seed, bw: *bw,
		workers: opt.Workers,
	}
	rows, failed, rendered, err := sweep(s, w, os.Stderr, opt.Record, opt.Progress)
	cli.ExitOn(err)
	cli.ExitOn(pf.Stop())
	if f != nil {
		cli.ExitOn(f.Close())
		fmt.Printf("wrote %d rows to %s\n", rows, *out)
	}
	cli.Finish(os.Stderr, rendered)
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "sweep: %d of %d configurations failed\n", failed, rows+failed)
		os.Exit(1)
	}
}

func record(res *prefetchsim.Result, cfg prefetchsim.Config) []string {
	st := res.Stats
	var writes, delayed, cold, coh, repl, rstall, wstall, sstall, useful int64
	for i := range st.Nodes {
		n := &st.Nodes[i]
		writes += n.Writes
		delayed += n.DelayedHits
		cold += n.ColdMisses
		coh += n.CoherenceMisses
		repl += n.ReplacementMisses
		rstall += int64(n.ReadStall)
		wstall += int64(n.WriteStall)
		sstall += int64(n.SyncStall)
		useful += n.PrefetchesUseful
	}
	i := strconv.Itoa
	i64 := func(v int64) string { return strconv.FormatInt(v, 10) }
	return []string{
		res.App, string(res.Scheme), i(cfg.Degree), i(cfg.SLCBytes), i(cfg.SLCWays),
		i(cfg.Processors), i(cfg.Scale), i(cfg.BandwidthFactor),
		i64(int64(st.ExecTime)), i64(st.TotalReads()), i64(writes),
		i64(st.TotalReadMisses()), i64(delayed),
		i64(cold), i64(coh), i64(repl),
		i64(rstall), i64(wstall), i64(sstall),
		i64(st.TotalPrefetchesIssued()), i64(useful),
		strconv.FormatFloat(st.PrefetchEfficiency(), 'f', 4, 64),
		i64(st.NetMessages), i64(st.NetFlits), i64(st.NetFlitHops),
	}
}

func splitTrim(csvList string) []string {
	var out []string
	for _, f := range strings.Split(csvList, ",") {
		out = append(out, strings.TrimSpace(f))
	}
	return out
}
