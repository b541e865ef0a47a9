package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"sync"
)

// expected.json pins the outputs of every workload: the digest of one
// pass's rendered rows for pinned seeds, and the stats digest of every
// simulation those passes and the serve pools run.
//
//go:embed expected.json
var expectedJSON []byte

// pinLen is how many hex digits of a SHA-256 digest a pin keeps.
const pinLen = 16

// pins are the digests a run's outputs must match.
type pins struct {
	// Rows maps "<workload>/<seed>" to the rows digest of one pass.
	Rows map[string]string `json:"rows"`
	// Stats maps a simulation's config digest to its stats digest.
	Stats map[string]string `json:"stats"`
}

func pin(digest string) string { return digest[:min(pinLen, len(digest))] }

func loadPins() (pins, error) {
	var p pins
	if err := json.Unmarshal(expectedJSON, &p); err != nil {
		return p, fmt.Errorf("expected.json: %w", err)
	}
	return p, nil
}

// maxReported bounds the failure messages printed per run.
const maxReported = 10

// checker counts a run's attempted and failed operations against the
// pins. Digests the pins do not cover are collected as unverified; the
// operations that produced them still count as attempted and are
// checked for repeatability.
type checker struct {
	pins pins

	mu         sync.Mutex
	attempted  int
	failed     int
	reported   int
	first      map[string]string // first digest seen per key, for repeatability
	unverified pins
}

func newChecker() (*checker, error) {
	p, err := loadPins()
	if err != nil {
		return nil, err
	}
	return &checker{
		pins:       p,
		first:      make(map[string]string),
		unverified: pins{Rows: map[string]string{}, Stats: map[string]string{}},
	}, nil
}

// attempt counts n operations.
func (c *checker) attempt(n int) {
	c.mu.Lock()
	c.attempted += n
	c.mu.Unlock()
}

// fail counts n failed operations and reports why.
func (c *checker) fail(n int, format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failed += n
	if c.reported < maxReported {
		fmt.Fprintf(os.Stderr, "prefetchbench: FAIL "+format+"\n", args...)
	}
	c.reported++
}

// stats checks one simulation's stats digest; false means it failed.
func (c *checker) stats(cfgDigest, statsDigest string) bool {
	return c.check(c.pins.Stats, c.unverified.Stats, "sim", pin(cfgDigest), statsDigest)
}

// rows checks one pass's rows digest, keyed "<workload>/<seed>"; false
// means it failed.
func (c *checker) rows(key, rowsDigest string) bool {
	return c.check(c.pins.Rows, c.unverified.Rows, "rows", key, rowsDigest)
}

// check compares digest with the pin for key or, without one, with the
// first digest this run saw for key.
func (c *checker) check(pinned, unverified map[string]string, what, key, digest string) bool {
	got := pin(digest)
	c.mu.Lock()
	want, ok := pinned[key]
	if !ok {
		want, ok = c.first[what+" "+key]
		if !ok {
			c.first[what+" "+key] = got
			unverified[key] = got
		}
	}
	c.mu.Unlock()
	if ok && got != want {
		c.fail(1, "%s %s: digest %s, want %s", what, key, got, want)
		return false
	}
	return true
}

// printUnverified writes the digests no pin covered to stderr, in the
// format of expected.json.
func (c *checker) printUnverified() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.unverified.Rows)+len(c.unverified.Stats) == 0 {
		return
	}
	buf, err := json.Marshal(c.unverified)
	if err != nil {
		return
	}
	fmt.Fprintf(os.Stderr, "prefetchbench: unverified (no pin; checked for repeatability only): %d rows and %d stats digests: %s\n",
		len(c.unverified.Rows), len(c.unverified.Stats), buf)
}
