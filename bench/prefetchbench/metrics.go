package main

import (
	"fmt"
	"sort"
	"strings"
)

// metricDef declares one metric the benchmark prints. BENCHMARK.json at
// the repository root declares the same names and units; a test keeps
// the two in step.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a run with -trace 0 prints, on every
// workload. A pass is one unit of the workload's work: one pass of its
// experiment calls, or one block of the serve schedule.
var endToEnd = []metricDef{
	{"wall_s", "s"},              // median host time of one pass
	{"sim_refs_per_s", "refs/s"}, // simulated references per host second
	{"cpu_s", "s"},               // median user+sys time of one pass, all threads
	{"peak_rss_mb", "MB"},        // the measured process's peak resident set
	{"setup_s", "s"},             // median time from exec to ready
}

// perLayer are the metrics a run with -trace 1 prints, on every
// workload. A layer a workload does not exercise reads 0.
var perLayer = []metricDef{
	// Workload generators and streams, timed at the consumer.
	{"apps.build_s", "s"},
	{"trace.next_batch_s", "s"},
	{"trace.ops", "count"},
	{"trace.ops_per_batch", "count"},
	// Prefetch schemes, timed around every OnRead.
	{"prefetch.on_read_calls", "count"},
	{"prefetch.on_read_s", "s"},
	{"prefetch.on_read_ns", "ns"},
	// The Table 2/3 miss-stream analysis.
	{"analysis.s", "s"},
	// The processor loop and everything it drives.
	{"machine.run_s", "s"},
	{"machine.self_s", "s"},
	{"host_ns_per_ref", "ns"},
	{"host_ns_per_event", "ns"},
	// Share of CPU profile samples, by package.
	{"cpu.sim", "fraction"},
	{"cpu.blockmap", "fraction"},
	{"cpu.machine", "fraction"},
	{"cpu.coherence", "fraction"},
	{"cpu.network", "fraction"},
	{"cpu.cache", "fraction"},
	{"cpu.memsys", "fraction"},
	{"cpu.prefetch", "fraction"},
	{"cpu.trace", "fraction"},
	{"cpu.apps", "fraction"},
	{"cpu.analysis", "fraction"},
	{"cpu.serve", "fraction"},
	{"cpu.runtime_gc", "fraction"},
	{"cpu.runtime_other", "fraction"},
	{"cpu.other", "fraction"},
	{"cpu.samples", "count"},
	// Go heap.
	{"go.alloc_bytes_per_ref", "B"},
	{"go.gc_cycles", "count"},
	// Experiment orchestration.
	{"exp.sims", "count"},
	{"exp.rows", "count"},
	{"exp.sim_wall_p50_s", "s"},
	{"exp.sim_wall_max_s", "s"},
	// The simulated machine: exact, and unchanged by host-only changes.
	{"sim.refs", "count"},
	{"sim.events", "count"},
	{"sim.events_per_ref", "events/ref"},
	{"sim.read_misses", "count"},
	{"sim.miss_cold", "count"},
	{"sim.miss_coherence", "count"},
	{"sim.miss_replacement", "count"},
	{"sim.prefetch_issued", "count"},
	{"sim.prefetch_useful", "count"},
	{"sim.prefetch_late", "count"},
	{"sim.prefetch_efficiency", "fraction"},
	{"sim.exec_pclocks", "pclocks"},
	// The job service.
	{"serve.jobs_per_s", "1/s"},
	{"serve.hit_p50_ms", "ms"},
	{"serve.hit_hi_ms", "ms"},
	{"serve.hit_hi_pct", "%"},
	{"serve.hit_n", "count"},
	{"serve.miss_p50_ms", "ms"},
	{"serve.miss_hi_ms", "ms"},
	{"serve.miss_hi_pct", "%"},
	{"serve.miss_n", "count"},
	{"serve.hit_ttfb_ms", "ms"},
	{"serve.hit_overhead_ms", "ms"},
	{"serve.miss_first_row_ms", "ms"},
	{"serve.miss_tail_ms", "ms"},
	{"runner.wait_ms_p50", "ms"},
	{"runner.wait_ms_hi", "ms"},
	{"runner.run_ms_p50", "ms"},
	{"resultcache.get_us_p50", "us"},
	{"resultcache.put_us_p50", "us"},
	{"cache.hit_ratio", "fraction"},
	{"stream.rows_per_job", "count"},
	{"stream.bytes_per_job", "B"},
	// What tracing costs: traced pass time over untraced, minus 1.
	{"trace.overhead", "fraction"},
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the JSON object a run prints as the last line of stdout.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// values collects a run's metrics by name.
type values map[string]float64

// render checks that vals holds exactly the declared metrics and
// attaches their units.
func render(defs []metricDef, vals values) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	if len(out) != len(vals) {
		var extra []string
		for k := range vals {
			if _, ok := out[k]; !ok {
				extra = append(extra, k)
			}
		}
		sort.Strings(extra)
		return nil, fmt.Errorf("undeclared metrics %v", extra)
	}
	return out, nil
}

// serviceLayers prefixes the per-layer metrics only the serve workload
// measures.
var serviceLayers = []string{"serve.", "runner.", "resultcache.", "cache.", "stream."}

// zeroLayers sets every per-layer metric under the given prefixes to 0:
// the layers a workload does not exercise.
func zeroLayers(vals values, prefixes ...string) {
	for _, d := range perLayer {
		for _, p := range prefixes {
			if strings.HasPrefix(d.name, p) {
				vals[d.name] = 0
			}
		}
	}
}
