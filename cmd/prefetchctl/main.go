// Command prefetchctl is the prefetchd client: submit jobs, follow
// their rows, list and cancel them.
//
//	prefetchctl -addr 127.0.0.1:8080 submit -app matmul -scheme Seq -stream
//	prefetchctl submit -figure6 -apps lu,mp3d -schemes Seq -procs 4
//	prefetchctl fetch j1
//	prefetchctl cancel j1
//	prefetchctl list
//	prefetchctl status
//	prefetchctl submit -spec '{"kind":"table2","apps":["lu"],"procs":4}'
//
// submit builds a prefetchsim.Spec from flags — a single run or a
// Figure-6 sweep — or takes a spec of any kind verbatim via -spec / -f.
// With -stream the NDJSON stream goes to stdout and the exit status
// reflects the job's terminal state; without it the submission record
// prints and the job runs server-side. fetch follows such a job the
// same way: a live job's rows until it settles, a settled job's payload
// replayed from the server's result cache, and a non-zero exit unless
// the job ended done.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"

	"prefetchsim"
)

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "prefetchctl: "+format+"\n", args...)
	os.Exit(1)
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: prefetchctl [-addr host:port] <command> [flags]

commands:
  submit   submit a job (see prefetchctl submit -h)
  fetch    follow a job's NDJSON stream        (fetch <id>)
  cancel   cancel a job                        (cancel <id>)
  list     list jobs
  status   print the server status snapshot
`)
	os.Exit(2)
}

func main() {
	addr := flag.String("addr", envOr("PREFETCHD_ADDR", "127.0.0.1:8080"), "prefetchd address")
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() == 0 {
		usage()
	}
	base := "http://" + *addr
	cmd, args := flag.Arg(0), flag.Args()[1:]
	// job is the URL of the job the command's one argument names.
	job := func() string {
		if len(args) != 1 {
			fatalf("usage: %s <id>", cmd)
		}
		return base + "/jobs/" + args[0]
	}
	switch cmd {
	case "submit":
		cmdSubmit(base, args)
	case "fetch":
		copyStream(do(http.MethodGet, job()+"/stream", nil))
	case "cancel":
		copyBody(do(http.MethodDelete, job(), nil))
	case "list":
		copyBody(do(http.MethodGet, base+"/jobs", nil))
	case "status":
		copyBody(do(http.MethodGet, base+"/status", nil))
	default:
		usage()
	}
}

// do sends one request, exiting on a transport error.
func do(method, url string, body io.Reader) *http.Response {
	req, err := http.NewRequest(method, url, body)
	if err == nil {
		var resp *http.Response
		if resp, err = http.DefaultClient.Do(req); err == nil {
			return resp
		}
	}
	fatalf("%s %s: %v", method, url, err)
	return nil
}

func envOr(key, def string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return def
}

func splitList[T ~string](s string) []T {
	var out []T
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, T(f))
		}
	}
	return out
}

func cmdSubmit(base string, args []string) {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	var (
		specJSON = fs.String("spec", "", "job spec JSON (verbatim; overrides the other flags)")
		specFile = fs.String("f", "", "read the job spec JSON from a file (- = stdin)")
		stream   = fs.Bool("stream", false, "stream the job's NDJSON to stdout")

		figure6 = fs.Bool("figure6", false, "submit a Figure-6 sweep instead of a single run (other kinds: -spec)")
		apps    = fs.String("apps", "", "sweep: comma-separated applications (default: all)")
		schemes = fs.String("schemes", "", "sweep: comma-separated schemes (default: I-det,D-det,Seq)")
		finite  = fs.Bool("finite", false, "sweep: finite §5.3 SLC")

		app    = fs.String("app", "", "run: application")
		scheme = fs.String("scheme", "", "run: prefetch scheme (default baseline)")
		degree = fs.Int("degree", 0, "run: prefetch degree")
		slc    = fs.Int("slc", 0, "run: SLC bytes (0 = infinite)")
		ways   = fs.Int("ways", 0, "run: SLC associativity")
		sc     = fs.Bool("sc", false, "run: sequential consistency")
		bw     = fs.Int("bw", 0, "run: bandwidth division factor")
		spans  = fs.Bool("spans", false, "run: include the span summary")

		procs   = fs.Int("procs", 0, "processors (0 = the paper's)")
		scale   = fs.Int("scale", 0, "data-set scale (0 = the paper's)")
		seed    = fs.Uint64("seed", 0, "workload seed")
		metrics = fs.Bool("metrics", false, "include metric totals")
	)
	fs.Parse(args)

	var body []byte
	switch {
	case *specJSON != "":
		body = []byte(*specJSON)
	case *specFile != "":
		var err error
		if *specFile == "-" {
			body, err = io.ReadAll(os.Stdin)
		} else {
			body, err = os.ReadFile(*specFile)
		}
		if err != nil {
			fatalf("read spec: %v", err)
		}
	case *figure6:
		body = mustMarshal(prefetchsim.Spec{
			Kind: "figure6", Apps: splitList[string](*apps), Schemes: splitList[prefetchsim.Scheme](*schemes),
			Procs: *procs, Scale: *scale, Seed: *seed, Finite: *finite, Metrics: *metrics,
		})
	case *app != "":
		// Zero fields take the server's defaults.
		body = mustMarshal(prefetchsim.Spec{Kind: "run", Config: &prefetchsim.RunConfig{
			App: *app, Scheme: *scheme, Degree: *degree, Processors: *procs,
			SLCBytes: *slc, SLCWays: *ways, Scale: *scale, Seed: *seed,
			SequentialConsistency: *sc, BandwidthFactor: *bw,
		}, Spans: *spans, Metrics: *metrics})
	default:
		fatalf("submit: need -app, -figure6, -spec or -f (see submit -h)")
	}

	url := base + "/jobs"
	if *stream {
		url += "?stream=1"
	}
	resp := do(http.MethodPost, url, bytes.NewReader(body))
	if *stream {
		copyStream(resp)
		return
	}
	copyBody(resp)
}

// copyStream relays an NDJSON stream to stdout and exits non-zero
// unless the done trailer reports a successful job.
func copyStream(resp *http.Response) {
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(os.Stderr, resp.Body)
		fatalf("server returned %s", resp.Status)
	}
	status := ""
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 1<<20)
	out := bufio.NewWriter(os.Stdout)
	for sc.Scan() {
		out.Write(sc.Bytes())
		out.WriteByte('\n')
		var probe struct {
			Type   string `json:"type"`
			Status string `json:"status"`
		}
		if json.Unmarshal(sc.Bytes(), &probe) == nil && probe.Type == "done" {
			status = probe.Status
		}
	}
	out.Flush()
	if err := sc.Err(); err != nil {
		fatalf("stream: %v", err)
	}
	if status != "done" {
		fatalf("job ended %q", status)
	}
}

// copyBody relays a JSON response to stdout, failing on error codes.
func copyBody(resp *http.Response) {
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		fatalf("read response: %v", err)
	}
	if resp.StatusCode >= 400 {
		os.Stderr.Write(body)
		fatalf("server returned %s", resp.Status)
	}
	os.Stdout.Write(body)
}

func mustMarshal(v any) []byte {
	buf, err := json.Marshal(v)
	if err != nil {
		fatalf("marshal spec: %v", err)
	}
	return buf
}
