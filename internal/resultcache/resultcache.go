// Package resultcache is a persistent, content-addressed result store:
// the server-side generalization of internal/runner's in-process
// singleflight cache. Values are opaque byte blobs (prefetchd stores
// the full NDJSON transcript of a job) keyed by a content address —
// the obs.RunConfig config+seed digest for single runs, a spec digest
// for whole sweeps — so a repeated identical request costs one file
// read instead of a simulation.
//
// Design:
//
//   - One object per file, under objects/<key[:2]>/<key>. Writes go to
//     a temp file in the same directory tree and are renamed into
//     place, so a crash mid-write never leaves a readable-but-partial
//     object: readers see the old state or the new one, nothing else.
//   - Each object file starts with a header: a format magic and the
//     SHA-256 of the payload. Get verifies it and treats a mismatch, a
//     truncated file or an old-format object as corrupt: the entry is
//     dropped and the read is a miss, so damaged bytes are never
//     served.
//   - A size budget enforced by LRU eviction: Put evicts the
//     least-recently-used objects (never the one just written) until
//     the store fits.
//   - An index file (index.json) persisting recency across restarts.
//     The index is a hint, not the truth: Open rescans the objects
//     directory, adopts objects the index missed (mtime stands in for
//     recency) and drops index rows whose object vanished, so a stale
//     or deleted index degrades recency, never correctness.
package resultcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"prefetchsim/internal/obs"
)

// IndexSchema versions index.json; unknown schemas are ignored and the
// index rebuilt from the objects on disk.
const IndexSchema = 1

// objectMagic opens every object file, ahead of the payload's SHA-256;
// headerLen is the whole header. Entry sizes count payload bytes only.
const (
	objectMagic = "prefetchsim-rc1\n"
	headerLen   = len(objectMagic) + sha256.Size
)

// objectHeader returns the header stored ahead of data.
func objectHeader(data []byte) []byte {
	sum := sha256.Sum256(data)
	return append([]byte(objectMagic), sum[:]...)
}

// payload returns the verified payload of an object file's contents,
// or false when the file is truncated, of another format, or does not
// match its checksum.
func payload(file []byte) ([]byte, bool) {
	if len(file) < headerLen || string(file[:len(objectMagic)]) != objectMagic {
		return nil, false
	}
	data := file[headerLen:]
	sum := sha256.Sum256(data)
	return data, bytes.Equal(sum[:], file[len(objectMagic):headerLen])
}

// Store is an open result cache. It is safe for concurrent use.
type Store struct {
	dir      string
	maxBytes int64 // <= 0 means unbounded

	mu      sync.Mutex
	entries map[string]*entry
	bytes   int64
	clock   int64 // logical recency counter (advances per touch)

	// Evictions counts objects removed by the size budget since Open —
	// an observability hook for the server's status page.
	evictions int64

	// m, when set by Instrument, mirrors the store's state into
	// exported metric instruments. nil means no metrics.
	m *Metrics
}

// Metrics is the store's instrument pack. All instruments are atomic:
// the store is concurrency-safe and its callers scrape mid-operation.
type Metrics struct {
	// Hits and Misses count Get outcomes (a key whose object file
	// cannot be read counts as a miss and an open error).
	Hits   obs.AtomicCounter
	Misses obs.AtomicCounter
	// Evictions counts objects removed by the size budget.
	Evictions obs.AtomicCounter
	// OpenErrors counts object files that existed in the entry table
	// but could not be read back.
	OpenErrors obs.AtomicCounter
	// Corrupt counts objects that were read back but failed their
	// checksum (or were truncated or of another format) and were
	// dropped; each also counts as a miss.
	Corrupt obs.AtomicCounter
	// Objects and Bytes track the stored object count and summed size.
	Objects obs.AtomicGauge
	Bytes   obs.AtomicGauge
}

// Bind registers every instrument under prefix (e.g. "resultcache").
func (m *Metrics) Bind(r *obs.Registry, prefix string) {
	r.BindAtomicCounter(prefix+".hits", &m.Hits)
	r.BindAtomicCounter(prefix+".misses", &m.Misses)
	r.BindAtomicCounter(prefix+".evictions", &m.Evictions)
	r.BindAtomicCounter(prefix+".open.errors", &m.OpenErrors)
	r.BindAtomicCounter(prefix+".corrupt", &m.Corrupt)
	r.BindAtomicGauge(prefix+".objects", &m.Objects)
	r.BindAtomicGauge(prefix+".bytes", &m.Bytes)
}

// Instrument attaches m to the store: the object/byte gauges snap to
// the current state (including what Open recovered from disk) and
// every later Get/Put/eviction keeps them current. Call it once,
// before the store sees traffic.
func (s *Store) Instrument(m *Metrics) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m = m
	m.Objects.Set(int64(len(s.entries)))
	m.Bytes.Set(s.bytes)
	m.Evictions.Add(s.evictions)
}

// syncSize mirrors the entry table into the gauges. Callers hold s.mu.
func (s *Store) syncSize() {
	if s.m != nil {
		s.m.Objects.Set(int64(len(s.entries)))
		s.m.Bytes.Set(s.bytes)
	}
}

type entry struct {
	Key  string `json:"key"`
	Size int64  `json:"size"`
	// LastUsedUnixNS orders entries for eviction across restarts; within
	// a process the logical clock below breaks ties exactly.
	LastUsedUnixNS int64 `json:"last_used_unix_ns"`
	used           int64 // logical recency, process-local
}

type index struct {
	Schema  int      `json:"schema"`
	Entries []*entry `json:"entries"`
}

// Open opens (creating if needed) the store rooted at dir with the
// given size budget in bytes (maxBytes <= 0 means unbounded). Leftover
// temp files from a crashed writer are deleted; the object tree is
// rescanned and reconciled with the persisted index.
func Open(dir string, maxBytes int64) (*Store, error) {
	s := &Store{dir: dir, maxBytes: maxBytes, entries: make(map[string]*entry)}
	for _, d := range []string{dir, s.objectsDir(), s.tmpDir()} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("resultcache: %w", err)
		}
	}
	// A crash can strand temp files; none is ever a valid object.
	if tmps, err := os.ReadDir(s.tmpDir()); err == nil {
		for _, t := range tmps {
			os.Remove(filepath.Join(s.tmpDir(), t.Name()))
		}
	}

	recency := s.loadIndex()
	if err := s.scanObjects(recency); err != nil {
		return nil, err
	}
	s.evict("")
	return s, nil
}

func (s *Store) objectsDir() string { return filepath.Join(s.dir, "objects") }
func (s *Store) tmpDir() string     { return filepath.Join(s.dir, "tmp") }
func (s *Store) indexPath() string  { return filepath.Join(s.dir, "index.json") }

func (s *Store) objectPath(key string) string {
	return filepath.Join(s.objectsDir(), key[:2], key)
}

// validKey guards object paths: keys are content digests (hex), so
// anything outside [0-9a-zA-Z_-] — separators especially — is a bug.
func validKey(key string) error {
	if len(key) < 3 {
		return fmt.Errorf("resultcache: key %q too short", key)
	}
	for _, c := range key {
		switch {
		case c >= '0' && c <= '9', c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == '-':
		default:
			return fmt.Errorf("resultcache: invalid key %q", key)
		}
	}
	return nil
}

// loadIndex reads the recency hints of a previous process. Any failure
// (missing file, bad JSON, unknown schema) yields an empty map — the
// scan then falls back to file mtimes.
func (s *Store) loadIndex() map[string]int64 {
	recency := make(map[string]int64)
	data, err := os.ReadFile(s.indexPath())
	if err != nil {
		return recency
	}
	var idx index
	if json.Unmarshal(data, &idx) != nil || idx.Schema != IndexSchema {
		return recency
	}
	for _, e := range idx.Entries {
		if e != nil {
			recency[e.Key] = e.LastUsedUnixNS
		}
	}
	return recency
}

// scanObjects walks the object tree and builds the entry table: the
// files are the truth, the index only supplies recency.
func (s *Store) scanObjects(recency map[string]int64) error {
	buckets, err := os.ReadDir(s.objectsDir())
	if err != nil {
		return fmt.Errorf("resultcache: %w", err)
	}
	for _, b := range buckets {
		if !b.IsDir() {
			continue
		}
		files, err := os.ReadDir(filepath.Join(s.objectsDir(), b.Name()))
		if err != nil {
			continue
		}
		for _, f := range files {
			info, err := f.Info()
			if err != nil || !info.Mode().IsRegular() {
				continue
			}
			e := &entry{Key: f.Name(), Size: max(info.Size()-int64(headerLen), 0)}
			if ns, ok := recency[e.Key]; ok {
				e.LastUsedUnixNS = ns
			} else {
				e.LastUsedUnixNS = info.ModTime().UnixNano()
			}
			s.entries[e.Key] = e
			s.bytes += e.Size
		}
	}
	// Seed the logical clock in persisted-recency order so in-process
	// eviction agrees with the restored ordering.
	ordered := make([]*entry, 0, len(s.entries))
	for _, e := range s.entries {
		ordered = append(ordered, e)
	}
	sort.Slice(ordered, func(i, j int) bool {
		return ordered[i].LastUsedUnixNS < ordered[j].LastUsedUnixNS
	})
	for _, e := range ordered {
		s.clock++
		e.used = s.clock
	}
	return nil
}

// Get returns the object stored under key and whether it was present,
// bumping its recency. A key whose object file cannot be read, or
// fails its checksum, counts as absent (the entry is dropped), never
// as an error: the cache's contract is best-effort — a miss just
// means simulating again.
func (s *Store) Get(key string) ([]byte, bool) {
	if validKey(key) != nil {
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[key]
	if !ok {
		if s.m != nil {
			s.m.Misses.Inc()
		}
		return nil, false
	}
	file, err := os.ReadFile(s.objectPath(key))
	if err != nil {
		s.drop(e)
		s.syncSize()
		if s.m != nil {
			s.m.OpenErrors.Inc()
			s.m.Misses.Inc()
		}
		return nil, false
	}
	data, ok := payload(file)
	if !ok {
		s.drop(e)
		s.syncSize()
		if s.m != nil {
			s.m.Corrupt.Inc()
			s.m.Misses.Inc()
		}
		return nil, false
	}
	s.touch(e)
	if s.m != nil {
		s.m.Hits.Inc()
	}
	return data, true
}

// Contains reports whether key is present without reading the object
// or bumping recency.
func (s *Store) Contains(key string) bool {
	if validKey(key) != nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.entries[key]
	return ok
}

// Put stores data under key: write the header and data to a temp
// file, rename into place, then evict least-recently-used objects
// (never this one) until the store fits its budget. Overwriting an
// existing key is allowed and idempotent for content-addressed use.
func (s *Store) Put(key string, data []byte) error {
	if err := validKey(key); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()

	tmp, err := os.CreateTemp(s.tmpDir(), "put-*")
	if err != nil {
		return fmt.Errorf("resultcache: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(append(objectHeader(data), data...)); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("resultcache: %w", err)
	}
	// Sync before rename: the rename must never be visible with the
	// object's bytes still in flight, or a crash could surface a
	// corrupt committed object.
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("resultcache: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("resultcache: %w", err)
	}
	dst := s.objectPath(key)
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("resultcache: %w", err)
	}
	if err := os.Rename(tmpName, dst); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("resultcache: %w", err)
	}

	if old, ok := s.entries[key]; ok {
		s.bytes -= old.Size
		old.Size = int64(len(data))
		s.bytes += old.Size
		s.touch(old)
	} else {
		e := &entry{Key: key, Size: int64(len(data))}
		s.entries[key] = e
		s.bytes += e.Size
		s.touch(e)
	}
	s.evict(key)
	s.syncSize()
	return nil
}

// touch marks e most recently used. Callers hold s.mu.
func (s *Store) touch(e *entry) {
	s.clock++
	e.used = s.clock
	e.LastUsedUnixNS = time.Now().UnixNano()
}

// drop removes e's bookkeeping and object file. Callers hold s.mu.
func (s *Store) drop(e *entry) {
	delete(s.entries, e.Key)
	s.bytes -= e.Size
	os.Remove(s.objectPath(e.Key))
}

// evict removes least-recently-used entries until the store fits its
// budget, sparing keep (the key just written). Callers hold s.mu.
func (s *Store) evict(keep string) {
	if s.maxBytes <= 0 {
		return
	}
	for s.bytes > s.maxBytes {
		var victim *entry
		for _, e := range s.entries {
			if e.Key == keep {
				continue
			}
			if victim == nil || e.used < victim.used {
				victim = e
			}
		}
		if victim == nil {
			return // only the spared key remains; an oversized object stays
		}
		s.drop(victim)
		s.evictions++
		if s.m != nil {
			s.m.Evictions.Inc()
		}
	}
}

// Len reports the number of stored objects.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Bytes reports the summed object size.
func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// Evictions reports how many objects the size budget has evicted since
// Open.
func (s *Store) Evictions() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.evictions
}

// Close persists the recency index (atomically, like objects). The
// store must not be used after Close; objects remain on disk for the
// next Open.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	idx := index{Schema: IndexSchema}
	for _, e := range s.entries {
		idx.Entries = append(idx.Entries, e)
	}
	sort.Slice(idx.Entries, func(i, j int) bool {
		return idx.Entries[i].used < idx.Entries[j].used
	})
	data, err := json.MarshalIndent(&idx, "", "  ")
	if err != nil {
		return fmt.Errorf("resultcache: %w", err)
	}
	tmp, err := os.CreateTemp(s.tmpDir(), "index-*")
	if err != nil {
		return fmt.Errorf("resultcache: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("resultcache: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("resultcache: %w", err)
	}
	if err := os.Rename(tmpName, s.indexPath()); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("resultcache: %w", err)
	}
	return nil
}
