package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
)

// cpuGroups maps the simulator's packages to the cpu.* metric that
// counts their profile samples. Packages not listed here are grouped by
// cpuGroup.
var cpuGroups = map[string]string{
	"prefetchsim/internal/sim":         "cpu.sim",
	"prefetchsim/internal/blockmap":    "cpu.blockmap",
	"prefetchsim/internal/machine":     "cpu.machine",
	"prefetchsim/internal/coherence":   "cpu.coherence",
	"prefetchsim/internal/network":     "cpu.network",
	"prefetchsim/internal/cache":       "cpu.cache",
	"prefetchsim/internal/memsys":      "cpu.memsys",
	"prefetchsim/internal/prefetch":    "cpu.prefetch",
	"prefetchsim/internal/trace":       "cpu.trace",
	"prefetchsim/internal/analysis":    "cpu.analysis",
	"prefetchsim/internal/resultcache": "cpu.serve",
	"prefetchsim/internal/webstatus":   "cpu.serve",
	"prefetchsim/internal/runner":      "cpu.serve",
	"main":                             "cpu.serve",
}

// gcFuncs marks runtime functions that belong to the garbage
// collector rather than to allocation, scheduling or system calls.
var gcFuncs = regexp.MustCompile(`gc[A-Z]|\.gc|[sS]can|[mM]ark|[sS]weep|greyobject|findObject|wbBuf|heapBits`)

// cpuGroup names the cpu.* metric of one profiled function.
func cpuGroup(fn string) string {
	pkg := fn
	if i := strings.IndexByte(pkg, '['); i >= 0 {
		pkg = pkg[:i]
	}
	slash := strings.LastIndexByte(pkg, '/')
	if i := strings.IndexByte(pkg[slash+1:], '.'); i >= 0 {
		pkg = pkg[:slash+1+i]
	}
	switch {
	case cpuGroups[pkg] != "":
		return cpuGroups[pkg]
	case strings.HasPrefix(pkg, "prefetchsim/internal/apps"):
		return "cpu.apps"
	case strings.HasPrefix(pkg, "net/"), pkg == "net", strings.HasPrefix(pkg, "encoding/"):
		return "cpu.serve"
	case pkg == "runtime", strings.HasPrefix(pkg, "runtime/"), strings.HasPrefix(pkg, "internal/runtime/"):
		if gcFuncs.MatchString(fn[len(pkg):]) && !strings.Contains(fn, "malloc") {
			return "cpu.runtime_gc"
		}
		return "cpu.runtime_other"
	}
	return "cpu.other"
}

// topLine is one row of `go tool pprof -top -unit=ms`: flat time, four
// more columns, then the function.
var topLine = regexp.MustCompile(`^\s*([0-9.]+)(?:ms)?\s+\S+\s+\S+\s+\S+\s+\S+\s+(.+?)(?: \(inline\))?$`)

// profileShares groups a CPU profile's flat samples by cpu.* metric and
// returns each group's share, plus cpu.samples, the number of 10 ms
// samples taken.
func profileShares(path string) (values, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-unit=ms", "-nodecount=1000000", "-nodefraction=0", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, stderr.Bytes())
	}
	return groupTop(out)
}

// groupTop sums the flat column of a pprof -top listing by cpu.* group.
func groupTop(listing []byte) (values, error) {
	vals := values{}
	for _, d := range perLayer {
		if strings.HasPrefix(d.name, "cpu.") {
			vals[d.name] = 0
		}
	}
	var total float64
	sc := bufio.NewScanner(bytes.NewReader(listing))
	for sc.Scan() {
		m := topLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		ms, err := strconv.ParseFloat(m[1], 64)
		if err != nil {
			return nil, fmt.Errorf("pprof line %q: %v", sc.Text(), err)
		}
		vals[cpuGroup(m[2])] += ms
		total += ms
	}
	if total == 0 {
		return nil, fmt.Errorf("CPU profile holds no samples")
	}
	for k := range vals {
		vals[k] /= total
	}
	vals["cpu.samples"] = total / 10
	return vals, nil
}
