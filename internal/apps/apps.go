// Package apps registers the six applications the paper evaluates
// (§4): MP3D, Cholesky, Water and PTHOR from the SPLASH suite plus the
// Stanford LU and Ocean codes, all re-implemented as program-driven
// reference generators (see DESIGN.md §4 for the substitutions).
package apps

import (
	"fmt"
	"sort"

	"prefetchsim/internal/apps/bfs"
	"prefetchsim/internal/apps/cholesky"
	"prefetchsim/internal/apps/hashjoin"
	"prefetchsim/internal/apps/listchase"
	"prefetchsim/internal/apps/lu"
	"prefetchsim/internal/apps/matmul"
	"prefetchsim/internal/apps/mp3d"
	"prefetchsim/internal/apps/ocean"
	"prefetchsim/internal/apps/pthor"
	"prefetchsim/internal/apps/water"
	"prefetchsim/internal/apps/workload"
	"prefetchsim/internal/trace"
)

// Maker builds one application's program for the given parameters, or
// reports why it cannot.
type Maker func(workload.Params) (*trace.Program, error)

// app is one registered application: its parameter check, which costs
// nothing to run, and its program builder.
type app struct {
	check func(workload.Params) error
	make  Maker
}

// register binds an application package's DefaultConfig to its Check
// and New.
func register[C interface{ Check() error }](config func(workload.Params) C, build func(C) (*trace.Program, error)) app {
	return app{
		check: func(p workload.Params) error { return config(p).Check() },
		make:  func(p workload.Params) (*trace.Program, error) { return build(config(p)) },
	}
}

var registry = map[string]app{
	"mp3d":     register(mp3d.DefaultConfig, mp3d.New),
	"cholesky": register(cholesky.DefaultConfig, cholesky.New),
	"water":    register(water.DefaultConfig, water.New),
	"lu":       register(lu.DefaultConfig, lu.New),
	"ocean":    register(ocean.DefaultConfig, ocean.New),
	"pthor":    register(pthor.DefaultConfig, pthor.New),
	// matmul is the paper's §3.1 illustrative example, registered as an
	// extra workload; it is not part of the paper's six-application
	// evaluation and therefore not in the default sweeps.
	"matmul": register(matmul.DefaultConfig, matmul.New),
	// The pointer-heavy kernels below are likewise extras: irregular
	// workloads the paper's §7 conclusions call out as beyond stride and
	// sequential detection, used to evaluate the correlation-based zoo
	// schemes.
	"listchase": register(listchase.DefaultConfig, listchase.New),
	"hashjoin":  register(hashjoin.DefaultConfig, hashjoin.New),
	"bfs":       register(bfs.DefaultConfig, bfs.New),
}

// paperOrder is the column order of the paper's tables.
var paperOrder = []string{"mp3d", "cholesky", "water", "lu", "ocean", "pthor"}

// extraOrder lists the registered workloads outside the paper's six:
// the §3.1 matmul example and the irregular pointer kernels.
var extraOrder = []string{"matmul", "listchase", "hashjoin", "bfs"}

// Names returns the application names in the paper's table order.
func Names() []string { return append([]string(nil), paperOrder...) }

// Extras returns the registered workloads outside the paper's
// six-application evaluation (runnable by name, excluded from default
// sweeps).
func Extras() []string { return append([]string(nil), extraOrder...) }

// Get returns the maker for name.
func Get(name string) (Maker, error) {
	a, ok := registry[name]
	if !ok {
		known := append(Names(), Extras()...)
		sort.Strings(known)
		return nil, fmt.Errorf("apps: unknown application %q (known: %v)", name, known)
	}
	return a.make, nil
}

// Check reports why the application name cannot be built with p,
// without building it. An unknown name passes: Get reports it when the
// program is built, so it fails only the jobs that name it.
func Check(name string, p workload.Params) error {
	if a, ok := registry[name]; ok {
		return a.check(p)
	}
	return nil
}

// hints mirrors the registry for the §6 hybrid (software-assisted)
// scheme: the stride table the "compiler" would hand the hardware.
var hints = map[string]func(workload.Params) map[trace.PC]int64{
	"mp3d":     func(workload.Params) map[trace.PC]int64 { return mp3d.StrideHints() },
	"cholesky": func(workload.Params) map[trace.PC]int64 { return cholesky.StrideHints() },
	"water":    func(workload.Params) map[trace.PC]int64 { return water.StrideHints() },
	"lu":       func(workload.Params) map[trace.PC]int64 { return lu.StrideHints() },
	"ocean":    func(workload.Params) map[trace.PC]int64 { return ocean.StrideHints() },
	"pthor":    func(workload.Params) map[trace.PC]int64 { return pthor.StrideHints() },
	"matmul": func(p workload.Params) map[trace.PC]int64 {
		return matmul.StrideHints(matmul.DefaultConfig(p).M)
	},
	"listchase": func(workload.Params) map[trace.PC]int64 { return listchase.StrideHints() },
	"hashjoin":  func(workload.Params) map[trace.PC]int64 { return hashjoin.StrideHints() },
	"bfs":       func(workload.Params) map[trace.PC]int64 { return bfs.StrideHints() },
}

// StrideHints returns the application's compile-time stride table for
// the given parameters (may be empty, as for PTHOR).
func StrideHints(name string, p workload.Params) (map[trace.PC]int64, error) {
	h, ok := hints[name]
	if !ok {
		return nil, fmt.Errorf("apps: unknown application %q", name)
	}
	return h(p), nil
}
