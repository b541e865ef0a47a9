package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"prefetchsim"
	"prefetchsim/bench/internal/stat"
	"prefetchsim/internal/resultcache"
)

// The serve workload runs the prefetchd binary with one execution slot
// (-max-jobs 1 -j 1) and a fresh cache, and drives it from two
// closed-loop clients: each sends its next job only once the previous
// one's stream reached its done line. The jobs are single simulations
// at 4 processors with Seq. They come in blocks with a fixed mix, 80%
// hits on specs warmed after set-up and 20% misses on seeds never
// submitted before, shuffled by the run's seed; a pass is one block.

// serveSize shapes the serve schedule.
type serveSize struct {
	apps         []string // applications of the hit and miss specs
	hitSeeds     int      // hit specs per application: seeds 1..hitSeeds
	hitsPerSpec  int      // times each hit spec appears in a block
	missesPerApp int      // misses per application in a block
	maxBlocks    int      // blocks before the miss pool runs dry
}

var (
	serveFull = serveSize{apps: []string{"cholesky", "listchase", "hashjoin", "bfs", "ocean", "water"},
		hitSeeds: 4, hitsPerSpec: 8, missesPerApp: 8, maxBlocks: 10}
	serveTiny = serveSize{apps: []string{"listchase"}, hitSeeds: 4, hitsPerSpec: 4, missesPerApp: 4, maxBlocks: 2}
)

// missSeedBase offsets the miss pool's seeds past the hit specs'.
const missSeedBase = 1000

// spec is one single-run job.
type spec struct {
	App  string
	Seed uint64
}

func (s spec) config() prefetchsim.RunConfig {
	return prefetchsim.RunConfig{App: s.App, Scheme: string(prefetchsim.Seq), Degree: 1, Processors: 4, Scale: 1, Seed: s.Seed}
}

// schedJob is one scheduled submission.
type schedJob struct {
	spec spec
	hit  bool // scheduled as a hit on a warmed spec
}

// hitSpecs are the specs warmed before timing starts.
func (z serveSize) hitSpecs() []spec {
	var out []spec
	for _, app := range z.apps {
		for s := 1; s <= z.hitSeeds; s++ {
			out = append(out, spec{app, uint64(s)})
		}
	}
	return out
}

// missPool is every spec a run may submit as a miss.
func (z serveSize) missPool() []spec {
	var out []spec
	for _, app := range z.apps {
		for s := 1; s <= z.maxBlocks*z.missesPerApp; s++ {
			out = append(out, spec{app, uint64(missSeedBase + s)})
		}
	}
	return out
}

// block returns block b of the schedule for seed: every hit spec
// hitsPerSpec times and missesPerApp fresh misses per application, in
// a seed-shuffled order. No miss spec repeats within a run.
func (z serveSize) block(seed uint64, b int) []schedJob {
	var jobs []schedJob
	for _, s := range z.hitSpecs() {
		for k := 0; k < z.hitsPerSpec; k++ {
			jobs = append(jobs, schedJob{s, true})
		}
	}
	pool := z.maxBlocks * z.missesPerApp
	for i, app := range z.apps {
		perm := rand.New(rand.NewPCG(seed, uint64(i))).Perm(pool)
		for k := 0; k < z.missesPerApp; k++ {
			jobs = append(jobs, schedJob{spec{app, uint64(missSeedBase + 1 + perm[b*z.missesPerApp+k])}, false})
		}
	}
	r := rand.New(rand.NewPCG(seed, 1<<32|uint64(b)))
	r.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	return jobs
}

// server is a running prefetchd.
type server struct {
	cmd   *exec.Cmd
	out   *bufio.Reader
	base  string // http://host:port
	ready time.Duration
	log   string
}

// startServer execs prefetchd on a fresh cache in dir and waits for
// its first 200 from /readyz.
func startServer(o options, hc *http.Client, dir string) (*server, error) {
	args := []string{"-http", "127.0.0.1:0", "-cache-dir", filepath.Join(dir, "cache"), "-max-jobs", "1", "-j", "1"}
	if o.trace {
		args = append(args, "-pprof")
	}
	s := &server{log: filepath.Join(dir, "prefetchd.log")}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	logf, err := os.Create(s.log)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	s.cmd = exec.Command(o.prefetchd, args...)
	s.cmd.Stderr = logf
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := s.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	s.out = bufio.NewReader(stdout)
	line, err := s.out.ReadString('\n')
	const banner = "prefetchd: serving on "
	if err != nil || !strings.HasPrefix(line, banner) {
		s.kill()
		return nil, fmt.Errorf("prefetchd did not start (%q): %v; log %s", line, err, s.tail())
	}
	s.base = strings.TrimSpace(strings.TrimPrefix(line, banner))
	for {
		resp, err := hc.Get(s.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(start) > 10*time.Second {
			s.kill()
			return nil, fmt.Errorf("prefetchd never became ready: %v", err)
		}
		time.Sleep(100 * time.Microsecond)
	}
	s.ready = time.Since(start)
	return s, nil
}

func (s *server) tail() string {
	b, _ := os.ReadFile(s.log)
	return string(b[max(0, len(b)-2000):])
}

// kill stops prefetchd with SIGKILL and waits for it. It ends the
// servers that only measure set-up: they ran no job, so there is nothing
// to drain, and prefetchd reports ready before it handles SIGTERM.
func (s *server) kill() {
	s.cmd.Process.Kill()
	s.cmd.Wait()
}

// stop drains prefetchd with SIGTERM and waits for it to exit cleanly.
func (s *server) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		s.kill()
		return err
	}
	io.Copy(io.Discard, s.out)
	if err := s.cmd.Wait(); err != nil {
		return fmt.Errorf("prefetchd: %w; log %s", err, s.tail())
	}
	return nil
}

func (s *server) pid() string { return strconv.Itoa(s.cmd.Process.Pid) }

// outcome is what a client saw of one job.
type outcome struct {
	schedJob
	err                    error
	id                     string
	submit, first, done    time.Time
	status, cache          string
	payload                []byte // the lines between the job and done lines
	serverWall             time.Duration
	spans                  jobSpans // traced blocks only
	rows                   int
	refs                   int64
	statsDigest, cfgDigest string
}

// jobSpans mirrors the lifecycle stamps of GET /jobs/{id}.
type jobSpans struct {
	SubmitUnixNS   int64 `json:"submit_unix_ns"`
	QueuedUnixNS   int64 `json:"queued_unix_ns"`
	AdmittedUnixNS int64 `json:"admitted_unix_ns"`
	DoneUnixNS     int64 `json:"done_unix_ns"`
	WaitUS         int64 `json:"wait_us"`
	RunUS          int64 `json:"run_us"`
}

// submit posts one job with ?stream=1 and reads its stream to the done
// line. Only the line type is looked at until then, so the latency is
// the service's, not the client's parsing.
func submit(hc *http.Client, base string, j schedJob) outcome {
	o := outcome{schedJob: j}
	body, err := json.Marshal(map[string]any{"config": j.spec.config()})
	if err != nil {
		o.err = err
		return o
	}
	o.submit = time.Now()
	resp, err := hc.Post(base+"/jobs?stream=1", "application/json", bytes.NewReader(body))
	if err != nil {
		o.err = err
		return o
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		o.err = fmt.Errorf("POST /jobs: %s: %s", resp.Status, bytes.TrimSpace(msg))
		return o
	}
	rd := bufio.NewReader(resp.Body)
	var payload bytes.Buffer
	var jobLine, doneLine []byte
	for {
		line, err := rd.ReadBytes('\n')
		if err != nil {
			o.err = fmt.Errorf("stream ended before its done line: %v", err)
			return o
		}
		switch {
		case bytes.HasPrefix(line, []byte(`{"type":"job"`)):
			jobLine = line
		case bytes.HasPrefix(line, []byte(`{"type":"done"`)):
			o.done = time.Now()
			doneLine = line
		default:
			if o.first.IsZero() {
				o.first = time.Now()
			}
			payload.Write(line)
		}
		if doneLine != nil {
			break
		}
	}
	io.Copy(io.Discard, rd)
	o.payload = payload.Bytes()
	o.err = o.parse(jobLine, doneLine)
	return o
}

var refsInRow = regexp.MustCompile(`Reads:(\d+) Writes:(\d+)`)

// parse decodes the stream's framing lines and payload.
func (o *outcome) parse(jobLine, doneLine []byte) error {
	var head struct {
		ID string `json:"id"`
	}
	var done struct {
		Status string `json:"status"`
		Cache  string `json:"cache"`
		WallNS int64  `json:"wall_ns"`
		Error  string `json:"error"`
	}
	if err := json.Unmarshal(jobLine, &head); err != nil {
		return fmt.Errorf("job line: %v", err)
	}
	if err := json.Unmarshal(doneLine, &done); err != nil {
		return fmt.Errorf("done line: %v", err)
	}
	o.id, o.status, o.cache, o.serverWall = head.ID, done.Status, done.Cache, time.Duration(done.WallNS)
	if done.Error != "" {
		return fmt.Errorf("job %s: %s", o.id, done.Error)
	}
	for _, line := range bytes.Split(o.payload, []byte{'\n'}) {
		var l struct {
			Type         string `json:"type"`
			Text         string `json:"text"`
			StatsDigest  string `json:"stats_digest"`
			ConfigDigest string `json:"config_digest"`
		}
		if len(line) == 0 {
			continue
		}
		if err := json.Unmarshal(line, &l); err != nil {
			return fmt.Errorf("payload line: %v", err)
		}
		switch l.Type {
		case "row":
			o.rows++
			if m := refsInRow.FindStringSubmatch(l.Text); m != nil {
				r, _ := strconv.ParseInt(m[1], 10, 64)
				w, _ := strconv.ParseInt(m[2], 10, 64)
				o.refs += r + w
			}
		case "result":
			o.statsDigest, o.cfgDigest = l.StatsDigest, l.ConfigDigest
		}
	}
	return nil
}

// fetchSpans reads the job's lifecycle stamps.
func fetchSpans(hc *http.Client, base, id string) (jobSpans, error) {
	var rec struct {
		Spans jobSpans `json:"spans"`
	}
	resp, err := hc.Get(base + "/jobs/" + id)
	if err != nil {
		return rec.Spans, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return rec.Spans, fmt.Errorf("GET /jobs/%s: %s", id, resp.Status)
	}
	err = json.NewDecoder(resp.Body).Decode(&rec)
	return rec.Spans, err
}

// blockResult is one replayed block: its outcomes in schedule order,
// its wall time and prefetchd's CPU time over it.
type blockResult struct {
	out       []outcome
	wall, cpu time.Duration
	rss       int64 // prefetchd's peak resident set during the block
}

// clients is the number of closed-loop clients.
const clients = 2

// runBlock replays one block with the closed-loop clients and returns
// the outcomes in schedule order and the block's wall time. Traced, each
// client also fetches every job's spans before sending its next job.
func runBlock(hc *http.Client, base string, jobs []schedJob, traced bool) ([]outcome, time.Duration) {
	out := make([]outcome, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(jobs) {
					return
				}
				out[i] = submit(hc, base, jobs[i])
				if traced && out[i].err == nil {
					out[i].spans, out[i].err = fetchSpans(hc, base, out[i].id)
				}
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

// checkOutcome counts one job against the warm-up payloads and pins.
func checkOutcome(o outcome, warm map[spec][]byte, chk *checker) {
	chk.attempt(1)
	cd := o.spec.config().Digest()
	switch {
	case o.err != nil:
		chk.fail(1, "job %v: %v", o.spec, o.err)
	case o.status != "done":
		chk.fail(1, "job %v: status %q", o.spec, o.status)
	case o.hit && o.cache != "hit":
		chk.fail(1, "job %v: scheduled hit came back %q", o.spec, o.cache)
	case o.hit && !bytes.Equal(o.payload, warm[o.spec]):
		chk.fail(1, "job %v: hit payload differs from its warm-up payload", o.spec)
	case !o.hit && o.cache != "miss":
		chk.fail(1, "job %v: scheduled miss came back %q", o.spec, o.cache)
	case !o.hit && o.cfgDigest != cd:
		chk.fail(1, "job %v: config digest %s, want %s", o.spec, pin(o.cfgDigest), pin(cd))
	case !o.hit:
		chk.stats(cd, o.statsDigest) // counts a mismatch as a failure itself
	}
}

// scrape reads the named counters from prefetchd's /metrics.
func scrape(hc *http.Client, base string, names ...string) (map[string]float64, error) {
	resp, err := hc.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	got := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 2 && want[f[0]] {
			v, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return nil, fmt.Errorf("/metrics %q: %v", sc.Text(), err)
			}
			got[f[0]] = v
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, n := range names {
		if _, ok := got[n]; !ok {
			return nil, fmt.Errorf("/metrics has no %s", n)
		}
	}
	return got, nil
}

var serveCounters = []string{"jobs_cache_hits_total", "jobs_cache_misses_total", "stream_rows_total", "stream_bytes_total"}

// runServe runs the serve workload.
func runServe(o options, dir string) (report, error) {
	z := serveFull
	if o.tiny {
		z = serveTiny
	}
	chk, err := newChecker()
	if err != nil {
		return report{}, err
	}
	sp := newSpanLog()
	hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients}}
	defer hc.CloseIdleConnections()

	// Set up setupStarts times: half before the measured server and half
	// after it.
	var setups []float64
	starts := 0
	start := func() (*server, error) {
		s, err := startServer(o, hc, filepath.Join(dir, fmt.Sprintf("prefetchd-%d", starts)))
		starts++
		if err != nil {
			return nil, err
		}
		setups = append(setups, s.ready.Seconds())
		return s, nil
	}
	setupOnly := func() error {
		for i := 0; i < setupStarts/2; i++ {
			s, err := start()
			if err != nil {
				return err
			}
			s.kill()
		}
		return nil
	}
	if err := setupOnly(); err != nil {
		return report{}, err
	}
	srv, err := start()
	if err != nil {
		return report{}, err
	}
	stopped := false
	defer func() {
		if !stopped {
			srv.kill()
		}
	}()

	// Warm the hit specs, untimed.
	warm := make(map[spec][]byte)
	for _, s := range z.hitSpecs() {
		oc := submit(hc, srv.base, schedJob{spec: s})
		checkOutcome(oc, nil, chk)
		warm[s] = oc.payload
	}

	budget := time.Duration(o.seconds) * time.Second
	limit := z.maxBlocks
	if o.trace {
		budget /= 2
		limit /= 2
	}
	blocks := 0
	runBlocks := func(traced bool) ([]blockResult, error) {
		var res []blockResult
		err := repeat(budget, func() (time.Duration, error) {
			if err := resetPeakRSS(srv.pid()); err != nil {
				return 0, err
			}
			cpu0, err := procCPU(srv.pid())
			if err != nil {
				return 0, err
			}
			out, wall := runBlock(hc, srv.base, z.block(o.seed, blocks), traced)
			cpu1, err := procCPU(srv.pid())
			if err != nil {
				return 0, err
			}
			rss, err := peakRSS(srv.pid())
			if err != nil {
				return 0, err
			}
			blocks++
			for _, oc := range out {
				checkOutcome(oc, warm, chk)
			}
			res = append(res, blockResult{out, wall, cpu1 - cpu0, rss})
			if len(res) == limit {
				return budget, nil // the miss pool has no more fresh specs
			}
			return wall, nil
		})
		return res, err
	}

	var profErr chan error
	profile := filepath.Join(dir, "cpu.pprof")
	if o.trace {
		profErr = make(chan error, 1)
		go func() { profErr <- fetchProfile(srv.base, max(1, int(budget/time.Second)), profile) }()
	}
	untraced, err := runBlocks(false)
	if err != nil {
		return report{}, err
	}

	if !o.trace {
		var walls, cpus, rss, rates []float64
		for _, b := range untraced {
			walls = append(walls, b.wall.Seconds())
			cpus = append(cpus, b.cpu.Seconds())
			rss = append(rss, float64(b.rss)/(1<<20))
			var refs int64
			for _, oc := range b.out {
				if !oc.hit {
					refs += oc.refs
				}
			}
			rates = append(rates, float64(refs)/b.wall.Seconds())
		}
		fmt.Fprintf(os.Stderr, "prefetchbench: serve/%d: %d blocks, wall %.3f s each\n", o.seed, len(walls), walls)
		err := srv.stop()
		stopped = true
		if err != nil {
			return report{}, err
		}
		if err := setupOnly(); err != nil {
			return report{}, err
		}
		chk.printUnverified()
		m, err := render(endToEnd, values{
			"wall_s":         stat.Median(walls),
			"sim_refs_per_s": stat.Median(rates),
			"cpu_s":          stat.Median(cpus),
			"peak_rss_mb":    stat.Median(rss),
			"setup_s":        stat.Median(setups),
		})
		if err != nil {
			return report{}, err
		}
		return report{Correct: chk.failed == 0, Attempted: chk.attempted, Failed: chk.failed, Metrics: m}, nil
	}

	if err := <-profErr; err != nil {
		return report{}, err
	}
	before, err := scrape(hc, srv.base, serveCounters...)
	if err != nil {
		return report{}, err
	}
	traced, err := runBlocks(true)
	if err != nil {
		return report{}, err
	}
	after, err := scrape(hc, srv.base, serveCounters...)
	if err != nil {
		return report{}, err
	}
	err = srv.stop()
	stopped = true
	if err != nil {
		return report{}, err
	}

	vals, err := serveLayers(untraced, traced, warm, before, after, dir, sp, chk)
	if err != nil {
		return report{}, err
	}
	if err := sp.write(o.traceDir, fmt.Sprintf("serve-seed%d.spans.jsonl", o.seed)); err != nil {
		return report{}, err
	}
	shares, err := profileShares(profile)
	if err != nil {
		return report{}, err
	}
	for k, v := range shares {
		vals[k] = v
	}
	chk.printUnverified()
	m, err := render(perLayer, vals)
	if err != nil {
		return report{}, err
	}
	return report{Correct: chk.failed == 0, Attempted: chk.attempted, Failed: chk.failed, Metrics: m}, nil
}

// fetchProfile saves a CPU profile of prefetchd over the next seconds.
func fetchProfile(base string, seconds int, path string) error {
	resp, err := http.Get(fmt.Sprintf("%s/debug/pprof/profile?seconds=%d", base, seconds))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("CPU profile: %s", resp.Status)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := io.Copy(f, resp.Body); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// tailMS is the highest percentile of xs with stat.MinBeyond samples
// beyond it, or zeros when there are too few samples for one.
func tailMS(xs []float64) (pct, v float64) {
	pct, v, err := stat.Tail(xs)
	if err != nil {
		return 0, 0
	}
	return pct, v
}

// serveLayers computes the serve workload's per-layer metrics: the
// service's view from the untraced blocks, the job split from the
// traced blocks, the result store replayed in-process, and the
// simulator's layers from an in-process traced replay of one miss per
// application.
func serveLayers(untraced, traced []blockResult, warm map[spec][]byte, before, after map[string]float64,
	dir string, sp *spanLog, chk *checker) (values, error) {
	vals := values{}

	var walls, hits, misses, missWalls []float64
	for _, b := range untraced {
		walls = append(walls, b.wall.Seconds())
		for _, oc := range b.out {
			if oc.hit {
				hits = append(hits, ms(oc.done.Sub(oc.submit)))
			} else {
				misses = append(misses, ms(oc.done.Sub(oc.submit)))
				missWalls = append(missWalls, oc.serverWall.Seconds())
			}
		}
	}
	vals["serve.jobs_per_s"] = float64(len(untraced[0].out)) / stat.Median(walls)
	var tw []float64
	for _, b := range traced {
		tw = append(tw, b.wall.Seconds())
	}
	vals["trace.overhead"] = stat.Median(tw)/stat.Median(walls) - 1
	vals["serve.hit_p50_ms"] = stat.Median(hits)
	vals["serve.hit_hi_pct"], vals["serve.hit_hi_ms"] = tailMS(hits)
	vals["serve.hit_n"] = float64(len(hits))
	vals["serve.miss_p50_ms"] = stat.Median(misses)
	vals["serve.miss_hi_pct"], vals["serve.miss_hi_ms"] = tailMS(misses)
	vals["serve.miss_n"] = float64(len(misses))
	rows, sims := 0, 0
	for _, oc := range untraced[0].out {
		rows += oc.rows
		if !oc.hit {
			sims++
		}
	}
	vals["exp.sims"] = float64(sims)
	vals["exp.rows"] = float64(rows)
	vals["exp.sim_wall_p50_s"] = stat.Median(missWalls)
	vals["exp.sim_wall_max_s"] = maxOf(missWalls)

	var ttfb, overhead, firstRow, tail, wait, run []float64
	payloads := make(map[string][]byte)
	for s, p := range warm {
		payloads["run-"+s.config().Digest()] = p
	}
	jobs := 0
	for _, b := range traced {
		for _, oc := range b.out {
			jobs++
			sv := oc.spans
			job := sp.interval(0, "job", oc.submit, oc.done, map[string]string{
				"app": oc.spec.App, "seed": strconv.FormatUint(oc.spec.Seed, 10), "cache": oc.cache, "id": oc.id})
			if oc.hit {
				ttfb = append(ttfb, ms(oc.first.Sub(oc.submit)))
				overhead = append(overhead, ms(oc.done.Sub(oc.submit)-time.Duration(sv.DoneUnixNS-sv.SubmitUnixNS)))
			} else {
				firstRow = append(firstRow, ms(oc.first.Sub(oc.submit)))
				tail = append(tail, ms(oc.done.Sub(oc.first)))
				wait = append(wait, float64(sv.WaitUS)/1e3)
				run = append(run, float64(sv.RunUS)/1e3)
				sp.interval(job, "queue", time.Unix(0, sv.QueuedUnixNS), time.Unix(0, sv.AdmittedUnixNS), nil)
				sp.interval(job, "run", time.Unix(0, sv.AdmittedUnixNS), time.Unix(0, sv.DoneUnixNS), nil)
				payloads["run-"+oc.cfgDigest] = oc.payload
			}
			sp.interval(job, "first_row", oc.submit, oc.first, nil)
			sp.interval(job, "tail", oc.first, oc.done, nil)
		}
	}
	vals["serve.hit_ttfb_ms"] = stat.Median(ttfb)
	vals["serve.hit_overhead_ms"] = stat.Median(overhead)
	vals["serve.miss_first_row_ms"] = stat.Median(firstRow)
	vals["serve.miss_tail_ms"] = stat.Median(tail)
	vals["runner.wait_ms_p50"] = stat.Median(wait)
	_, vals["runner.wait_ms_hi"] = tailMS(wait)
	vals["runner.run_ms_p50"] = stat.Median(run)

	dh := after["jobs_cache_hits_total"] - before["jobs_cache_hits_total"]
	dm := after["jobs_cache_misses_total"] - before["jobs_cache_misses_total"]
	vals["cache.hit_ratio"] = ratio(dh, dh+dm)
	vals["stream.rows_per_job"] = (after["stream_rows_total"] - before["stream_rows_total"]) / float64(jobs)
	vals["stream.bytes_per_job"] = (after["stream_bytes_total"] - before["stream_bytes_total"]) / float64(jobs)

	var gets []string
	for _, oc := range traced[0].out {
		if oc.hit {
			gets = append(gets, "run-"+oc.spec.config().Digest())
		}
	}
	getUS, putUS, err := replayStore(filepath.Join(dir, "store"), payloads, gets)
	if err != nil {
		return nil, err
	}
	vals["resultcache.get_us_p50"] = stat.Median(getUS)
	vals["resultcache.put_us_p50"] = stat.Median(putUS)

	// The simulator's layers: the first miss of each application again,
	// in-process and traced. Its stats and references must match what
	// the service returned.
	var lt layerTimes
	var sc simCounts
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	seen := make(map[string]bool)
	for _, b := range traced {
		for _, oc := range b.out {
			if oc.hit || seen[oc.spec.App] {
				continue
			}
			seen[oc.spec.App] = true
			cfg := oc.spec.config()
			digest, l, c, err := tracedSim(cfg, false, sp, map[string]string{
				"app": cfg.App, "scheme": cfg.Scheme, "config": pin(oc.cfgDigest)})
			chk.attempt(1)
			switch {
			case err != nil:
				chk.fail(1, "traced replay of %v: %v", oc.spec, err)
			case pin(digest) != pin(oc.statsDigest) || c.Refs != oc.refs:
				chk.fail(1, "traced replay of %v: digest %s and %d refs, served %s and %d refs",
					oc.spec, pin(digest), c.Refs, pin(oc.statsDigest), oc.refs)
			default:
				lt.add(l)
				sc.add(c)
			}
		}
	}
	runtime.ReadMemStats(&m1)
	for k, v := range layerValues([]layerTimes{lt}, sc) {
		vals[k] = v
	}
	vals["go.alloc_bytes_per_ref"] = ratio(float64(m1.TotalAlloc-m0.TotalAlloc), float64(sc.Refs))
	vals["go.gc_cycles"] = float64(m1.NumGC - m0.NumGC)
	return vals, nil
}

// replayStore times Put of every payload and then Get of every key in
// gets on a fresh in-process result store in dir.
func replayStore(dir string, payloads map[string][]byte, gets []string) (getUS, putUS []float64, err error) {
	st, err := resultcache.Open(dir, 0)
	if err != nil {
		return nil, nil, err
	}
	keys := make([]string, 0, len(payloads))
	for k := range payloads {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		start := time.Now()
		if err := st.Put(k, payloads[k]); err != nil {
			st.Close()
			return nil, nil, err
		}
		putUS = append(putUS, float64(time.Since(start))/1e3)
	}
	for _, k := range gets {
		start := time.Now()
		p, ok := st.Get(k)
		getUS = append(getUS, float64(time.Since(start))/1e3)
		if !ok || !bytes.Equal(p, payloads[k]) {
			st.Close()
			return nil, nil, fmt.Errorf("result store replay: %s did not read back", k)
		}
	}
	return getUS, putUS, st.Close()
}
