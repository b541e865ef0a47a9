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
	mode   string   // subtest name suffix telling apart pins of one command
	args   []string // flags; the trailing app, if any, goes in apps
	apps   []string
	jobs   bool   // the command takes -j
	stdout string // sha256 of stdout
	stderr string // sha256 of stderr
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
	// One pin per remaining figure6 and tables mode, on matmul.
	{
		cmd:    "figure6",
		mode:   "finite",
		args:   []string{"-finite", "-procs", "4", "-manifest", "m.json"},
		apps:   []string{"matmul"},
		jobs:   true,
		stdout: "3dfa47dfa01ec672a640eccbb5b1f223c2e6f11e8520c29b9b052519c94b91c8",
		stderr: "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
		digest: "24ffd21c0d889981acdf07369bbbd7ac57492b9b6f703517f283922d22fe2619",
	},
	{
		cmd:    "figure6",
		mode:   "adaptive",
		args:   []string{"-adaptive", "-procs", "4", "-manifest", "m.json"},
		apps:   []string{"matmul"},
		jobs:   true,
		stdout: "397bc891d47158b74bf2956d4eaddb3a9f3f82c4425d70b8cdb7179f06ef5790",
		stderr: "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
		digest: "6930c6a4b6fb1c9648dbee5d90156e9106e44bfa0f34577c932fe2548eb7bd3b",
	},
	{
		cmd:    "figure6",
		mode:   "bars",
		args:   []string{"-bars", "-procs", "4", "-manifest", "m.json"},
		apps:   []string{"matmul"},
		jobs:   true,
		stdout: "1cce3258c30acf5168c2c1fe6def01d706a58d1e4ad28cfd8d79a698a2ac158d",
		stderr: "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
		digest: "ea5b492c5ab12e2ac536698f002870a3622e615c00136bf40a6678833efda82f",
	},
	{
		cmd:    "figure6",
		mode:   "stalls",
		args:   []string{"-stalls", "-procs", "4", "-manifest", "m.json"},
		apps:   []string{"matmul"},
		jobs:   true,
		stdout: "38ecbb98873f87aae1b2a6592884198e0a871bbd41e8b79b7919b696602abbbc",
		stderr: "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
		digest: "24090731579ec473574c33f07325ee3cb6896c1a276caebdcb69dd5dd969908e",
	},
	{
		cmd:    "figure6",
		mode:   "degrees",
		args:   []string{"-degrees", "1,2", "-app", "matmul", "-procs", "4", "-manifest", "m.json"},
		jobs:   true,
		stdout: "cf1f8c60b44e6cdad9c47dae279bf1840c60fc0b232e1d9f13156bbc1a1a1dd5",
		stderr: "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
		digest: "be17582270463c2b5ee89e682411c7f9cd5a46833a6f8ff22cc8aa1fa222dc5e",
	},
	{
		cmd:    "figure6",
		mode:   "slcsweep",
		args:   []string{"-slcsweep", "8192,16384", "-app", "matmul", "-procs", "4", "-manifest", "m.json"},
		jobs:   true,
		stdout: "1a8014c250dac1efb78130dfd1a9ac49790798c105b3198e783502c5a6c12068",
		stderr: "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
		digest: "407a0a7f9c7aead2ca9d72f7ac4cb50362404c63a50459ca49994b25c21f46d1",
	},
	{
		cmd:    "figure6",
		mode:   "extensions",
		args:   []string{"-extensions", "-app", "matmul", "-procs", "4", "-manifest", "m.json"},
		jobs:   true,
		stdout: "aeb35514ddba05c0c61cc496f232f5eee85af9fa4789034fe95594e33df3131f",
		stderr: "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
		digest: "b72477362ca6bacacc7f8de70ccc6b24117ec00caa6498f5da9c62f844d0b924",
	},
	{
		cmd:    "figure6",
		mode:   "zoo",
		args:   []string{"-zoo", "-app", "matmul", "-procs", "4", "-manifest", "m.json"},
		jobs:   true,
		stdout: "9882e7917b5ba0e58fa5a773c4cbc4320629612060fd2f980ae3408e36ddd501",
		stderr: "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
		digest: "fcd02158a6ef31e0c9c440785897e79a9d27d3d2b014f3b95081803861ffc88e",
	},
	{
		cmd:    "figure6",
		mode:   "bandwidth",
		args:   []string{"-bandwidth", "1,2", "-app", "matmul", "-procs", "4", "-manifest", "m.json"},
		jobs:   true,
		stdout: "758611bb7abd2f0a041b7dfe133e6b419def594a59288f46e17d6bdb458d4d01",
		stderr: "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
		digest: "2d5d266f7641bddd75bdfc2837cf008db6f4648ad6e2e40558dd9bcb4200d0b2",
	},
	{
		cmd:    "figure6",
		mode:   "assoc",
		args:   []string{"-assoc", "1,2", "-app", "matmul", "-procs", "4", "-manifest", "m.json"},
		jobs:   true,
		stdout: "3e32aa6cd178a341d4fa11bd61e876d12b783c6c526b73c5f3897f2c029b655a",
		stderr: "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
		digest: "e4f3402799103b89f556f5d165d1905a26fe7053d0adeca701746ec59c4fcfdc",
	},
	{
		cmd:    "figure6",
		mode:   "consistency",
		args:   []string{"-consistency", "-procs", "4", "-manifest", "m.json"},
		apps:   []string{"matmul"},
		jobs:   true,
		stdout: "74b360c7b2a3f16eaebc1e54200576bb80f14d8a4f3da7b5115b5fd4338bba15",
		stderr: "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
		digest: "50fc19730599ee4de814821ffde3b1ec41b571b549ee12975957dfe466507bf5",
	},
	{
		cmd:    "tables",
		mode:   "table2",
		args:   []string{"-table", "2", "-procs", "4", "-manifest", "m.json"},
		apps:   []string{"matmul"},
		jobs:   true,
		stdout: "a9764e24c1419adc65a12c305ac7a2e52803ab2d6ddc9d099d49e6455f6d7390",
		stderr: "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
		digest: "d6d7c4beba135bd73d403fb23f762bcbe192ea4986e288164668dbc92126e66e",
	},
	{
		cmd:    "tables",
		mode:   "table4",
		args:   []string{"-table", "4", "-procs", "4", "-manifest", "m.json"},
		apps:   []string{"matmul"},
		jobs:   true,
		stdout: "f72b3cdbe6d0d0bd10fd5507cb57f5af2b1bdb0a69ea3ebd0b5b02e03161c757",
		stderr: "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
		digest: "34b79ec7c8db708343ba7e5ad606e35802789ea9e969254030b986ae155a6344",
	},
}

// TestCLIOutputPinned builds the four batch commands and runs each (and
// every figure6 and tables mode) on a small fixed configuration with the manifest and metric totals on,
// serially and across four workers. Their stdout, stderr, CSV and
// manifest digests are pinned: the figures and tables a reader
// regenerates must not drift byte-for-byte. -short runs only the
// four-worker slice.
func TestCLIOutputPinned(t *testing.T) {
	var cmds []string
	for _, p := range cliPins {
		cmds = append(cmds, p.cmd)
	}
	bin := buildCommands(t, cmds)

	jobs := []int{1, 4}
	if testing.Short() {
		jobs = []int{4}
	}
	for _, p := range cliPins {
		for _, j := range jobs {
			argv := append([]string(nil), p.args...)
			if p.jobs {
				argv = append(argv, "-j", strconv.Itoa(j))
			} else if j > 1 {
				continue
			}
			argv = append(argv, p.apps...)
			name := p.cmd
			if p.mode != "" {
				name += "-" + p.mode
			}
			t.Run(name+"/j="+strconv.Itoa(j), func(t *testing.T) {
				runPinned(t, filepath.Join(bin, p.cmd), argv, p)
			})
		}
	}
}

// buildCommands builds the named commands into a temporary directory
// and returns it.
func buildCommands(t *testing.T, cmds []string) string {
	t.Helper()
	bin := t.TempDir()
	args := []string{"build", "-o", bin + string(filepath.Separator)}
	built := map[string]bool{}
	for _, c := range cmds {
		if !built[c] {
			built[c] = true
			args = append(args, "./cmd/"+c)
		}
	}
	gocmd := filepath.Join(runtime.GOROOT(), "bin", "go")
	if out, err := exec.Command(gocmd, args...).CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestCLIFailedConfigurations runs each batch command on one good and
// one unknown application: the good rows still print, every stderr line
// but sweep's metric totals names the command, the last one counts the
// failures, the manifest is still written, and the command exits with
// status 1.
func TestCLIFailedConfigurations(t *testing.T) {
	cases := []struct {
		cmd  string
		argv []string
		last string // the final stderr line
	}{
		{"figure6", []string{"-procs", "4", "-j", "1", "-manifest", "m.json", "-metrics", "matmul", "nosuchapp"},
			"figure6: 3 of 6 configurations failed"},
		{"tables", []string{"-procs", "4", "-manifest", "m.json", "-metrics", "matmul", "nosuchapp"},
			"tables: 1 of 2 configurations failed"},
		{"sweep", []string{"-apps", "matmul,nosuchapp", "-schemes", "baseline,Seq", "-procs", "4", "-manifest", "m.json", "-metrics"},
			"sweep: 2 of 4 configurations failed"},
	}
	var cmds []string
	for _, c := range cases {
		cmds = append(cmds, c.cmd)
	}
	bin := buildCommands(t, cmds)
	for _, c := range cases {
		t.Run(c.cmd, func(t *testing.T) {
			dir := t.TempDir()
			var stdout, stderr bytes.Buffer
			cmd := exec.Command(filepath.Join(bin, c.cmd), c.argv...)
			cmd.Dir = dir
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
				t.Fatalf("exit: %v, want status 1\nstderr:\n%s", err, stderr.String())
			}
			lines := strings.Split(strings.TrimSuffix(stderr.String(), "\n"), "\n")
			for _, l := range lines {
				if l != "metric totals:" && !strings.HasPrefix(l, "  ") && !strings.HasPrefix(l, c.cmd+": ") {
					t.Errorf("stderr line %q lacks the %q prefix", l, c.cmd+": ")
				}
			}
			if got := lines[len(lines)-1]; got != c.last {
				t.Errorf("last stderr line = %q, want %q", got, c.last)
			}
			out := stdout.String() + stderr.String()
			if !strings.Contains(out, "Matmul") && !strings.Contains(out, "matmul") {
				t.Errorf("the good application's rows are missing:\n%s", out)
			}
			if !strings.Contains(out, "metric totals:") {
				t.Errorf("metric totals missing:\n%s", out)
			}
			data, err := os.ReadFile(filepath.Join(dir, "m.json"))
			if err != nil {
				t.Fatalf("manifest not written: %v", err)
			}
			var m struct {
				Runs []json.RawMessage `json:"runs"`
			}
			if err := json.Unmarshal(data, &m); err != nil || len(m.Runs) == 0 {
				t.Errorf("manifest has no runs (%v):\n%s", err, data)
			}
		})
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
	check := func(what string, got []byte, want string) {
		t.Helper()
		if sum := sha256.Sum256(got); hex.EncodeToString(sum[:]) != want {
			t.Errorf("%s sha256 = %x, want %s\n%s", what, sum, want, got)
		}
	}
	check("stdout", stdout.Bytes(), p.stdout)
	check("stderr", stderr.Bytes(), p.stderr)
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
