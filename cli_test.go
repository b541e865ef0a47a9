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
		stdout: "0ead64cba9404dc5d3f82080ce15f3ab939f1e8b99653279db19c2a4dbad52c7",
		stderr: "0b7d3d4056d30935f2883e3c18709e913204ba15e58805fe140833db58b29065",
		digest: "ea5b492c5ab12e2ac536698f002870a3622e615c00136bf40a6678833efda82f",
	},
	{
		cmd:    "tables",
		args:   []string{"-table", "3", "-procs", "4", "-manifest", "m.json", "-metrics"},
		apps:   []string{"matmul"},
		jobs:   true,
		stdout: "294fdffa8394d3cd24ac2c90460416e635d11b6edac5d8e33272f51a178727ac",
		stderr: "83fafeff65b1bbec3a170242cfaf3ff21abf503670b38856d1ce639c38c678bc",
		digest: "d0e36ad50f71569345764a167256cc96ab1103c8e2f508ecf729990210491fe7",
	},
	{
		cmd:    "sweep",
		args:   []string{"-apps", "matmul", "-schemes", "baseline,Seq", "-procs", "4", "-o", "out.csv", "-manifest", "m.json", "-metrics"},
		jobs:   true,
		stdout: "eb651d397f0d4f9ee00e35cb590246b954fc27a65601fa9f47c9a83960abc08d",
		stderr: "612ae655a96ace0f253c857635ef32d7b108fc506217d5327013a08c338b4495",
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
		stdout: "8bde81282d600d1eb7984f7275eb738ec233acd64b81a8cc7510544b654374e5",
		stderr: "a621360f195dff7a6c8fe6964d04a0160ee7ea4dbb077f5a6d1aeb5ad3f9ee01",
		digest: "24ffd21c0d889981acdf07369bbbd7ac57492b9b6f703517f283922d22fe2619",
	},
	{
		cmd:    "figure6",
		mode:   "adaptive",
		args:   []string{"-adaptive", "-procs", "4", "-manifest", "m.json"},
		apps:   []string{"matmul"},
		jobs:   true,
		stdout: "8b0ba43af28fca5cb0f45e7628fea8ed0845d441a03a4caade880f556311ba44",
		stderr: "3cbb1b8ed2877d608f0dc86a41ce429b8c3e994ef6289e8e1b5ed6d6f82cceea",
		digest: "6930c6a4b6fb1c9648dbee5d90156e9106e44bfa0f34577c932fe2548eb7bd3b",
	},
	{
		cmd:    "figure6",
		mode:   "bars",
		args:   []string{"-bars", "-procs", "4", "-manifest", "m.json"},
		apps:   []string{"matmul"},
		jobs:   true,
		stdout: "3683a653014295e6eeb4fc3245e755087691f651e3a889ee7dd31ff0af2c909d",
		stderr: "0b7d3d4056d30935f2883e3c18709e913204ba15e58805fe140833db58b29065",
		digest: "ea5b492c5ab12e2ac536698f002870a3622e615c00136bf40a6678833efda82f",
	},
	{
		cmd:    "figure6",
		mode:   "stalls",
		args:   []string{"-stalls", "-procs", "4", "-manifest", "m.json"},
		apps:   []string{"matmul"},
		jobs:   true,
		stdout: "c047c46bc5a41242364aaadd6a50ebb6721b23760e9a4cd295aa9adf2586a511",
		stderr: "ef9e2ce93fdc0a0aefb6656ab46bea3d6b16b4d0a66a49100177989143cda050",
		digest: "24090731579ec473574c33f07325ee3cb6896c1a276caebdcb69dd5dd969908e",
	},
	{
		cmd:    "figure6",
		mode:   "degrees",
		args:   []string{"-degrees", "1,2", "-app", "matmul", "-procs", "4", "-manifest", "m.json"},
		jobs:   true,
		stdout: "b413bbbb8968348cd934b917b288f076ee020b9d8f22575ee2317e83bc6efd25",
		stderr: "5942e98f75598a385955fe23f933f16f0d32ad05a9aa3622de8ac072a95f2ce4",
		digest: "be17582270463c2b5ee89e682411c7f9cd5a46833a6f8ff22cc8aa1fa222dc5e",
	},
	{
		cmd:    "figure6",
		mode:   "slcsweep",
		args:   []string{"-slcsweep", "8192,16384", "-app", "matmul", "-procs", "4", "-manifest", "m.json"},
		jobs:   true,
		stdout: "006f57bd33656be329377600a95d8fec40e4a376cd2a5dca60c43c44c9005eb5",
		stderr: "8c50feddfa0886d4b59dfb69d5e7a6913638cc17f119fd5a58c9c55258bf6dd6",
		digest: "407a0a7f9c7aead2ca9d72f7ac4cb50362404c63a50459ca49994b25c21f46d1",
	},
	{
		cmd:    "figure6",
		mode:   "extensions",
		args:   []string{"-extensions", "-app", "matmul", "-procs", "4", "-manifest", "m.json"},
		jobs:   true,
		stdout: "747aa9b14870fcdb5633267ffe0f58c6666ecf464744aaf6a87f09b42265285e",
		stderr: "7e7cad58f3869a133d4f2409bef268c5d64af7c44370eec8267241883e121b1f",
		digest: "b72477362ca6bacacc7f8de70ccc6b24117ec00caa6498f5da9c62f844d0b924",
	},
	{
		cmd:    "figure6",
		mode:   "zoo",
		args:   []string{"-zoo", "-app", "matmul", "-procs", "4", "-manifest", "m.json"},
		jobs:   true,
		stdout: "c237dc7f54d96bd635a946592c399dd4f036a7e912047d6498b0ba54bfd9ede6",
		stderr: "d1a49eb06f2087336a435e8eb995c72a5ba9cd80ac8ad65e6c7556d0af0a3c51",
		digest: "fcd02158a6ef31e0c9c440785897e79a9d27d3d2b014f3b95081803861ffc88e",
	},
	{
		cmd:    "figure6",
		mode:   "bandwidth",
		args:   []string{"-bandwidth", "1,2", "-app", "matmul", "-procs", "4", "-manifest", "m.json"},
		jobs:   true,
		stdout: "672815995cbd1ca5c694839ef98c9fd764f1a08467dde98f8d2635fb01f62c44",
		stderr: "de5c03162cd67281f79897627c9f601155ac1ffc6b373ceea3f1ba484a56b97d",
		digest: "2d5d266f7641bddd75bdfc2837cf008db6f4648ad6e2e40558dd9bcb4200d0b2",
	},
	{
		cmd:    "figure6",
		mode:   "assoc",
		args:   []string{"-assoc", "1,2", "-app", "matmul", "-procs", "4", "-manifest", "m.json"},
		jobs:   true,
		stdout: "49df65811ba17622dfe6b87398b550479abc530cd513238c4d3b26f0d5549f96",
		stderr: "4b9b9a8e2cf7dea479f227be0e7864c5c1b012b98ee1e260f04888157919b4d0",
		digest: "e4f3402799103b89f556f5d165d1905a26fe7053d0adeca701746ec59c4fcfdc",
	},
	{
		cmd:    "figure6",
		mode:   "consistency",
		args:   []string{"-consistency", "-procs", "4", "-manifest", "m.json"},
		apps:   []string{"matmul"},
		jobs:   true,
		stdout: "da0eeb6e8bb975bf47b28365ccedcc00c034d8c7b25d428895da4d82fdbf454e",
		stderr: "90987ce16ea0a152baeb3707959f0f6f45c9f4d03d1a55a655c91d3e7f6b1842",
		digest: "50fc19730599ee4de814821ffde3b1ec41b571b549ee12975957dfe466507bf5",
	},
	{
		cmd:    "tables",
		mode:   "table2",
		args:   []string{"-table", "2", "-procs", "4", "-manifest", "m.json"},
		apps:   []string{"matmul"},
		jobs:   true,
		stdout: "75ecdb1018edc1427d4a37cb2f6dfd6c84ca391b3afa0de1fb557be3e71195a3",
		stderr: "1ae5452e42d59633ddc0a0f6ecb447f2caf24b9f2efca8782a35a5b1ea4d0776",
		digest: "d6d7c4beba135bd73d403fb23f762bcbe192ea4986e288164668dbc92126e66e",
	},
	{
		cmd:    "tables",
		mode:   "table4",
		args:   []string{"-table", "4", "-procs", "4", "-manifest", "m.json"},
		apps:   []string{"matmul"},
		jobs:   true,
		stdout: "57a2fc78ba42c26b0f6cde1c8927b61c34e1d06d65a285ba515b5c27418249b5",
		stderr: "bc0a80c318df9753a223a77543c5b744cee336525340ecd5e8307c0d3cd06e23",
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

// TestSweepStdoutIsCSV runs the pinned sweep without -o: its stdout must
// be exactly the CSV that -o writes, the header plus one row per run,
// with the manifest line on stderr.
func TestSweepStdoutIsCSV(t *testing.T) {
	var p cliPin
	for _, c := range cliPins {
		if c.cmd == "sweep" {
			p = c
		}
	}
	var argv []string
	for i := 0; i < len(p.args); i++ {
		if p.args[i] == "-o" {
			i++
			continue
		}
		argv = append(argv, p.args[i])
	}
	bin := buildCommands(t, []string{"sweep"})
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	c := exec.Command(filepath.Join(bin, "sweep"), append(argv, "-j", "4")...)
	c.Dir = dir
	c.Stdout, c.Stderr = &stdout, &stderr
	if err := c.Run(); err != nil {
		t.Fatalf("sweep %s: %v\nstderr:\n%s", strings.Join(argv, " "), err, stderr.String())
	}
	if sum := sha256.Sum256(stdout.Bytes()); hex.EncodeToString(sum[:]) != p.csv {
		t.Errorf("stdout is not the pinned CSV:\n%s", stdout.String())
	}
	data, err := os.ReadFile(filepath.Join(dir, "m.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Runs []json.RawMessage `json:"runs"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(stdout.String(), "\n"); len(m.Runs) == 0 || lines != 1+len(m.Runs) {
		t.Errorf("stdout has %d lines, want the header and %d rows", lines, len(m.Runs))
	}
	if !strings.Contains(stderr.String(), "sweep: manifest: m.json (") {
		t.Errorf("stderr lacks the manifest line:\n%s", stderr.String())
	}
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
