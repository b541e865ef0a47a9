package prefetchsim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"prefetchsim/internal/apps"
	"prefetchsim/internal/apps/workload"
	"prefetchsim/internal/machine"
)

// Spec describes one experiment as a JSON-stable value: a single run,
// one of the paper's tables or figures, an ablation sweep or a
// factorial CSV sweep. Every front end parses into it — figure6, tables
// and sweep from their flags, prefetchd from a POSTed body, prefetchctl
// by marshaling one — and Execute is the one way any of them runs.
// kinds below lists the kinds, the fields each reads (every kind but
// run also takes procs, scale and seed) and the function it runs.
type Spec struct {
	// Kind selects the experiment. Empty means run when Config is set
	// and figure6 when Apps or Schemes are.
	Kind string `json:"kind,omitempty"`
	// Config is a run's simulation; Spans adds its span summary.
	Config *RunConfig `json:"config,omitempty"`
	Spans  bool       `json:"spans,omitempty"`
	// Apps default to the paper's six, Schemes to the Figure 6 schemes
	// (figure6) or those and the baseline (stalls, sweep), Procs and
	// Scale to the paper's machine and data sets.
	Apps    []string `json:"apps,omitempty"`
	Schemes []Scheme `json:"schemes,omitempty"`
	Procs   int      `json:"procs,omitempty"`
	Scale   int      `json:"scale,omitempty"`
	Seed    uint64   `json:"seed,omitempty"`
	// Finite runs Figure 6 under the §5.3 16 KB SLC.
	Finite bool `json:"finite,omitempty"`
	// Metrics asks for metric totals beside the rows. It is part of the
	// digest, but Execute does not read it: the caller attaches
	// ExpOptions.Record.
	Metrics bool `json:"metrics,omitempty"`
	// The ablations' and the sweep's values: prefetch degrees, SLC
	// sizes in bytes (0 = infinite), SLC associativities and bandwidth
	// divisors. A sweep defaults each to {0}, the Config default.
	Degrees    []int `json:"degrees,omitempty"`
	SLCs       []int `json:"slcs,omitempty"`
	Ways       []int `json:"ways,omitempty"`
	Bandwidths []int `json:"bandwidths,omitempty"`
}

// maxScale bounds a spec's data sets (Table 4 builds one scale above),
// so a submitted spec cannot ask for more than a host holds.
const maxScale = 8

// maxDegree bounds a spec's prefetch degrees at the SLWB depth, the
// most prefetches that can be in flight. Without it one spec could
// hold a job slot indefinitely: a run at degree 1<<30 does not finish.
const maxDegree = 16

// kind is one experiment: the fields it reads, those of them that take
// exactly one value (one) or at least one (need), and how it runs.
type kind struct {
	uses, one, need string
	run             func(s Spec, o ExpOptions) ([]fmt.Stringer, error)
}

var kinds = map[string]kind{
	"run": {uses: "config spans", need: "config", run: runSpec},
	"figure6": {uses: "apps schemes finite", run: func(s Spec, o ExpOptions) ([]fmt.Stringer, error) {
		if s.Finite {
			return rows(Figure6Finite(o, s.Schemes...))
		}
		return rows(Figure6(o, s.Schemes...))
	}},
	"stalls":      {uses: "apps schemes", run: func(s Spec, o ExpOptions) ([]fmt.Stringer, error) { return rows(StallBreakdown(o, s.Schemes...)) }},
	"table2":      {uses: "apps", run: func(_ Spec, o ExpOptions) ([]fmt.Stringer, error) { return rows(Table2(o)) }},
	"table3":      {uses: "apps", run: func(_ Spec, o ExpOptions) ([]fmt.Stringer, error) { return rows(Table3(o)) }},
	"table4":      {uses: "apps", run: func(_ Spec, o ExpOptions) ([]fmt.Stringer, error) { return rows(Table4(o)) }},
	"consistency": {uses: "apps", run: func(_ Spec, o ExpOptions) ([]fmt.Stringer, error) { return rows(ConsistencyCompare(o)) }},
	"zoo":         {uses: "apps", one: "apps", run: func(s Spec, o ExpOptions) ([]fmt.Stringer, error) { return rows(ZooCompare(s.Apps[0], o)) }},
	"extensions":  {uses: "apps", one: "apps", run: func(s Spec, o ExpOptions) ([]fmt.Stringer, error) { return rows(ExtensionCompare(s.Apps[0], o)) }},
	"degrees": {uses: "apps schemes degrees", one: "apps schemes", need: "degrees", run: func(s Spec, o ExpOptions) ([]fmt.Stringer, error) {
		return rows(DegreeSweep(s.Apps[0], s.Schemes[0], s.Degrees, o))
	}},
	"slc": {uses: "apps schemes slcs", one: "apps schemes", need: "slcs", run: func(s Spec, o ExpOptions) ([]fmt.Stringer, error) {
		return rows(SLCSweep(s.Apps[0], s.Schemes[0], s.SLCs, o))
	}},
	"bandwidth": {uses: "apps bandwidths", one: "apps", need: "bandwidths", run: func(s Spec, o ExpOptions) ([]fmt.Stringer, error) {
		return rows(BandwidthSweep(s.Apps[0], s.Bandwidths, o))
	}},
	"assoc": {uses: "apps ways", one: "apps", need: "ways", run: func(s Spec, o ExpOptions) ([]fmt.Stringer, error) { return rows(AssocSweep(s.Apps[0], s.Ways, o)) }},
	"sweep": {uses: "apps schemes degrees slcs ways bandwidths", run: func(s Spec, o ExpOptions) ([]fmt.Stringer, error) { return rows(factorial(s, o)) }},
}

// DecodeSpec reads one JSON spec. Unknown fields are an error, so a
// misspelled option is rejected instead of silently defaulted.
func DecodeSpec(r io.Reader) (Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return s, fmt.Errorf("decode spec: %w", err)
	}
	return s, nil
}

// Normalize validates the spec and applies the defaults, so equivalent
// spellings of one experiment normalize (and digest) alike. It rejects
// a field the kind does not read, a processor count outside 1..64, a
// data set beyond scale 8, a prefetch degree outside 1..16 (0 stands
// for the default, 1) and an application that cannot be built with the
// spec's parameters. Unknown application and scheme names pass: they
// fail only the jobs that name them. Normalize is idempotent.
func (s Spec) Normalize() (Spec, error) {
	if s.Kind == "" {
		switch {
		case s.Config != nil:
			s.Kind = "run"
		case len(s.Apps) > 0 || len(s.Schemes) > 0:
			s.Kind = "figure6"
		default:
			return s, fmt.Errorf("empty spec: set kind, config or apps")
		}
	}
	k, ok := kinds[s.Kind]
	if !ok {
		return s, fmt.Errorf("unknown spec kind %q", s.Kind)
	}
	uses := k.uses
	if s.Kind != "run" {
		uses += " procs scale seed"
	}
	b := map[bool]int{true: 1}
	for _, f := range []struct {
		name string
		n    int
	}{
		{"config", b[s.Config != nil]}, {"spans", b[s.Spans]}, {"apps", len(s.Apps)}, {"schemes", len(s.Schemes)},
		{"finite", b[s.Finite]}, {"degrees", len(s.Degrees)}, {"slcs", len(s.SLCs)}, {"ways", len(s.Ways)},
		{"bandwidths", len(s.Bandwidths)}, {"procs", b[s.Procs != 0]}, {"scale", b[s.Scale != 0]}, {"seed", b[s.Seed != 0]},
	} {
		switch {
		case f.n > 0 && !has(uses, f.name):
			return s, fmt.Errorf("%s spec: %s is not one of its fields (%s)", s.Kind, f.name, uses)
		case has(k.one, f.name) && f.n != 1:
			return s, fmt.Errorf("%s spec: needs exactly one of %s", s.Kind, f.name)
		case has(k.need, f.name) && f.n == 0:
			return s, fmt.Errorf("%s spec: needs %s", s.Kind, f.name)
		}
	}

	degrees := s.Degrees
	if s.Config != nil {
		degrees = []int{s.Config.Degree}
	}
	for _, d := range degrees {
		if d < 0 || d > maxDegree {
			return s, fmt.Errorf("%s spec: prefetch degree %d out of range 1..%d", s.Kind, d, maxDegree)
		}
	}

	if s.Kind == "run" {
		if s.Config.App == "" {
			return s, fmt.Errorf("run spec: config.app is required")
		}
		c := configOf(*s.Config).withDefaults()
		rc := c.runConfig(c.App)
		s.Config = &rc
		return s, checkApps([]string{c.App}, workload.Params{Procs: c.Processors, Scale: c.Scale, Seed: c.Seed})
	}

	o := ExpOptions{Procs: s.Procs, Scale: s.Scale, Apps: s.Apps}.withDefaults()
	s.Procs, s.Scale, s.Apps = o.Procs, o.Scale, o.Apps
	if len(s.Schemes) == 0 && has(uses, "schemes") {
		s.Schemes = stallSchemes()
		if s.Kind == "figure6" {
			s.Schemes = Schemes()
		}
	}
	if s.Kind == "sweep" {
		for _, l := range []*[]int{&s.Degrees, &s.SLCs, &s.Ways, &s.Bandwidths} {
			if len(*l) == 0 {
				*l = []int{0}
			}
		}
	}
	return s, checkApps(s.Apps, workload.Params{Procs: s.Procs, Scale: s.Scale, Seed: s.Seed})
}

// has reports whether the space-separated list holds name.
func has(list, name string) bool { return slices.Contains(strings.Fields(list), name) }

// checkApps rejects a machine size or scale out of range and any known
// application that cannot be built with p.
func checkApps(names []string, p workload.Params) error {
	if err := machine.CheckProcessors(p.Procs); err != nil {
		return err
	}
	if p.Scale < 1 || p.Scale > maxScale {
		return fmt.Errorf("data-set scale %d out of range 1..%d", p.Scale, maxScale)
	}
	for _, a := range names {
		if err := apps.Check(a, p); err != nil {
			return err
		}
	}
	return nil
}

// Digest is a normalized spec's content address, the key prefetchd's
// result cache stores its rows under. A run spec leads with its
// configuration's digest (the address run manifests record), suffixed
// -m and -s for the metrics and spans options; every other kind hashes
// the whole spec, under "fig6-" for figure6 and "<kind>-" otherwise.
func (s Spec) Digest() string {
	if s.Kind == "run" {
		d := "run-" + s.Config.Digest()
		if s.Metrics {
			d += "-m"
		}
		if s.Spans {
			d += "-s"
		}
		return d
	}
	buf, err := json.Marshal(s)
	if err != nil {
		panic("prefetchsim: marshal Spec: " + err.Error())
	}
	sum := sha256.Sum256(buf)
	prefix := s.Kind
	if prefix == "figure6" {
		prefix = "fig6"
	}
	return prefix + "-" + hex.EncodeToString(sum[:])
}

// Execute normalizes the spec and runs it under o's context, workers,
// progress callback and manifest recorder (the spec sets o's Procs,
// Scale, Seed and Apps). It hands each row to sink, serialized, as soon
// as every row before it is in: the order a serial run prints, at any
// worker count; i is the row's index and total the sweep's job count.
// Rows of failed jobs are skipped and their errors come back joined.
func (s Spec) Execute(o ExpOptions, sink func(i, total int, row fmt.Stringer)) error {
	s, err := s.Normalize()
	if err != nil {
		return err
	}
	o.Procs, o.Scale, o.Seed, o.Apps = s.Procs, s.Scale, s.Seed, s.Apps

	// Jobs land in completion order; landed holds those past the first
	// unfinished one (nil for a failed job) until it lands.
	sent, next := 0, 0
	landed := make(map[int]fmt.Stringer)
	o.emit = func(i, total int, row fmt.Stringer, err error) {
		if err != nil {
			row = nil
		}
		for landed[i] = row; ; next++ {
			row, ok := landed[next]
			if !ok {
				return
			}
			delete(landed, next)
			if row != nil {
				sink(next, total, row)
				sent++
			}
		}
	}
	all, err := kinds[s.Kind].run(s, o)
	// Kinds that do not stream (a run, AssocSweep's normalization after
	// its fan-out) hand their rows over here.
	for ; sent < len(all); sent++ {
		sink(sent, len(all), all[sent])
	}
	return err
}

// rows erases a sweep's row type.
func rows[R fmt.Stringer](rs []R, err error) ([]fmt.Stringer, error) {
	out := make([]fmt.Stringer, len(rs))
	for i, r := range rs {
		out[i] = r
	}
	return out, err
}

// line is one row of a run spec: a StatsLines line.
type line string

func (l line) String() string { return string(l) }

// runSpec runs a run spec's single simulation.
func runSpec(s Spec, o ExpOptions) ([]fmt.Stringer, error) {
	if err := o.ctx().Err(); err != nil {
		return nil, err
	}
	cfg := configOf(*s.Config)
	if s.Spans {
		cfg.Spans = &SpanConfig{}
	}
	res, err := o.run(cfg)
	if err != nil {
		return nil, err
	}
	if o.Progress != nil {
		o.Progress(1, 1)
	}
	lines := StatsLines(res.Stats)
	out := make([]fmt.Stringer, len(lines))
	for i, l := range lines {
		out[i] = line(l)
	}
	return out, nil
}

// SweepColumns is the header of a sweep spec's CSV: the column order of
// every SweepRow.
func SweepColumns() []string {
	return strings.Fields(`app scheme degree slc_bytes slc_ways procs scale bandwidth_factor
		exec_pclocks reads writes read_misses delayed_hits cold_misses coherence_misses replacement_misses
		read_stall write_stall sync_stall prefetches_issued prefetches_useful prefetch_efficiency
		net_messages net_flits net_flit_hops`)
}

// SweepRow is one simulation of a sweep spec: a CSV record in
// SweepColumns order. Its app column is the program's self-reported
// name (Matmul-96x96x96), not the configuration's.
type SweepRow []string

func (r SweepRow) String() string { return strings.Join(r, ",") }

// factorial runs a sweep spec's design, one SweepRow per configuration
// in the order app, SLC size, associativity, bandwidth, scheme, degree.
// The baseline runs once per tuple: degree means nothing without
// prefetching.
func factorial(s Spec, o ExpOptions) ([]SweepRow, error) {
	var cfgs []Config
	for _, app := range s.Apps {
		for _, slc := range s.SLCs {
			for _, ways := range s.Ways {
				for _, bw := range s.Bandwidths {
					for _, scheme := range s.Schemes {
						ds := s.Degrees
						if scheme == Baseline {
							ds = []int{1}
						}
						for _, d := range ds {
							cfgs = append(cfgs, Config{
								App: app, Scheme: scheme, Degree: d,
								Processors: s.Procs, Scale: s.Scale, Seed: s.Seed,
								SLCBytes: slc, SLCWays: ways, BandwidthFactor: bw,
							})
						}
					}
				}
			}
		}
	}
	return mapRows(o, cfgs, func(_ int, c Config) (SweepRow, error) {
		res, err := o.run(c)
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", c.App, c.Scheme, err)
		}
		return sweepRow(res, c.withDefaults()), nil
	})
}

func sweepRow(res *Result, cfg Config) SweepRow {
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
	return SweepRow{
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
