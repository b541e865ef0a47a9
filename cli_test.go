package prefetchsim_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// cliPin is one command-line run and the SHA-256 digests of what it
// must produce. The same digests hold for every -j.
type cliPin struct {
	cmd    string
	args   []string // flags; the trailing app, if any, goes in apps
	apps   []string
	jobs   bool   // the command takes -j (and -http)
	stdout string // sha256 of stdout
	stderr string // sha256 of stderr, minus the status-endpoint line
	csv    string // sha256 of the -o file; "" when the run writes none
	// digest is the manifest's rows_digest (stats_digest for a single
	// prefetchsim run).
	digest string
}

var cliPins = []cliPin{
	{
		cmd:    "figure6",
		args:   []string{"-procs", "4", "-manifest", "m.json", "-metrics"},
		apps:   []string{"matmul"},
		jobs:   true,
		stdout: "194d9f587469bec22c28cb7005b15c8eb71e008bdba7f4d81b3b6fabecee5538",
		stderr: "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
		digest: "ea5b492c5ab12e2ac536698f002870a3622e615c00136bf40a6678833efda82f",
	},
	{
		cmd:    "tables",
		args:   []string{"-table", "3", "-procs", "4", "-manifest", "m.json", "-metrics"},
		apps:   []string{"matmul"},
		jobs:   true,
		stdout: "c6b774e0a61e1249386764dc66f0d1006bfb285cf3e298fef1fca1e0e96e197d",
		stderr: "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
		digest: "d0e36ad50f71569345764a167256cc96ab1103c8e2f508ecf729990210491fe7",
	},
	{
		cmd:    "sweep",
		args:   []string{"-apps", "matmul", "-schemes", "baseline,Seq", "-procs", "4", "-o", "out.csv", "-manifest", "m.json", "-metrics"},
		jobs:   true,
		stdout: "298d98df57460353aa5ec827e707ee40f227ca3d11cf00df9651f891c1953673",
		stderr: "99325bc4e9fe92ba19cdae7ea7a58a426059ba0718da169558b756b28a478f32",
		csv:    "2ffcf87505b85550d3cd5ebf46a4c3f5967990a26286c0934e7ec250f3e2b7d2",
		digest: "1ab42de36e4053c46d450090f491123614ede05ec705c598304a25a523d2fd5a",
	},
	{
		cmd:    "prefetchsim",
		args:   []string{"-app", "matmul", "-scheme", "Seq", "-procs", "4", "-manifest", "m.json", "-metrics"},
		stdout: "a0cc02aa471bb39390e56bfe68bce40c15c1c16e9e22fb28fefd070cca56aa26",
		stderr: "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
		digest: "2bd2665425f74648b22d6b81bdaf0177e1a4ca369d0d9246088f3c5a89f313eb",
	},
}

// TestCLIOutputPinned builds the four batch commands and runs each on a
// small fixed configuration with the manifest and metric totals on,
// serially and across four workers with the status endpoint up. Their
// stdout, stderr, CSV and manifest digests are pinned: the figures and
// tables a reader regenerates must not drift byte-for-byte. -short
// runs only the four-worker slice.
func TestCLIOutputPinned(t *testing.T) {
	bin := t.TempDir()
	gocmd := filepath.Join(runtime.GOROOT(), "bin", "go")
	args := []string{"build", "-o", bin + string(filepath.Separator)}
	for _, p := range cliPins {
		args = append(args, "./cmd/"+p.cmd)
	}
	if out, err := exec.Command(gocmd, args...).CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	jobs := []int{1, 4}
	if testing.Short() {
		jobs = []int{4}
	}
	for _, p := range cliPins {
		for _, j := range jobs {
			argv := append([]string(nil), p.args...)
			if p.jobs {
				argv = append(argv, "-j", strconv.Itoa(j))
				if j > 1 {
					argv = append(argv, "-http", "127.0.0.1:0")
				}
			} else if j > 1 {
				continue
			}
			argv = append(argv, p.apps...)
			t.Run(p.cmd+"/j="+strconv.Itoa(j), func(t *testing.T) {
				runPinned(t, filepath.Join(bin, p.cmd), argv, p)
			})
		}
	}
}

func runPinned(t *testing.T, exe string, argv []string, p cliPin) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	c := exec.Command(exe, argv...)
	c.Dir = dir
	c.Stdout, c.Stderr = &stdout, &stderr
	if err := c.Run(); err != nil {
		t.Fatalf("%s %s: %v\nstderr:\n%s", p.cmd, strings.Join(argv, " "), err, stderr.String())
	}
	var errLines []string
	for _, l := range strings.SplitAfter(stderr.String(), "\n") {
		if !strings.Contains(l, "status endpoint on") {
			errLines = append(errLines, l)
		}
	}
	check := func(what string, got []byte, want string) {
		t.Helper()
		if sum := sha256.Sum256(got); hex.EncodeToString(sum[:]) != want {
			t.Errorf("%s sha256 = %x, want %s\n%s", what, sum, want, got)
		}
	}
	check("stdout", stdout.Bytes(), p.stdout)
	check("stderr", []byte(strings.Join(errLines, "")), p.stderr)
	if p.csv != "" {
		data, err := os.ReadFile(filepath.Join(dir, "out.csv"))
		if err != nil {
			t.Fatal(err)
		}
		check("csv", data, p.csv)
	}

	data, err := os.ReadFile(filepath.Join(dir, "m.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		RowsDigest  string `json:"rows_digest"`
		StatsDigest string `json:"stats_digest"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if got := m.RowsDigest + m.StatsDigest; got != p.digest {
		t.Errorf("manifest digest = %s, want %s", got, p.digest)
	}
}
