package resultcache

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"prefetchsim/internal/obs"
)

// key builds a distinct, valid test key.
func key(i int) string { return fmt.Sprintf("%02x-test-key-%04d", i%256, i) }

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	want := []byte("rows\nand more rows\n")
	if err := s.Put(key(1), want); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(key(1))
	if !ok || !bytes.Equal(got, want) {
		t.Fatalf("Get = (%q, %v), want (%q, true)", got, ok, want)
	}
	if _, ok := s.Get(key(2)); ok {
		t.Fatal("missing key reported present")
	}
	if s.Len() != 1 || s.Bytes() != int64(len(want)) {
		t.Fatalf("Len/Bytes = %d/%d, want 1/%d", s.Len(), s.Bytes(), len(want))
	}

	// Overwrite is idempotent and re-reads the new content.
	want2 := []byte("replacement")
	if err := s.Put(key(1), want2); err != nil {
		t.Fatal(err)
	}
	got, _ = s.Get(key(1))
	if !bytes.Equal(got, want2) {
		t.Fatalf("after overwrite Get = %q, want %q", got, want2)
	}
	if s.Len() != 1 || s.Bytes() != int64(len(want2)) {
		t.Fatalf("after overwrite Len/Bytes = %d/%d", s.Len(), s.Bytes())
	}
}

func TestInvalidKeysRejected(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, k := range []string{"", "ab", "../../etc/passwd", "a/b", "a b", "key\x00"} {
		if err := s.Put(k, []byte("x")); err == nil {
			t.Errorf("Put(%q) accepted", k)
		}
		if _, ok := s.Get(k); ok {
			t.Errorf("Get(%q) hit", k)
		}
	}
}

// TestLRUEviction: the size budget evicts least-recently-used objects
// first, and Get bumps recency, changing the victim.
func TestLRUEviction(t *testing.T) {
	blob := bytes.Repeat([]byte("x"), 100)
	s, err := Open(t.TempDir(), 250) // fits two 100-byte objects
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	s.Put(key(1), blob)
	s.Put(key(2), blob)
	s.Get(key(1)) // key 1 is now more recent than key 2
	s.Put(key(3), blob)

	if _, ok := s.Get(key(2)); ok {
		t.Fatal("LRU victim (key 2) survived")
	}
	for _, k := range []string{key(1), key(3)} {
		if _, ok := s.Get(k); !ok {
			t.Fatalf("recently used %s evicted", k)
		}
	}
	if s.Evictions() != 1 {
		t.Fatalf("Evictions = %d, want 1", s.Evictions())
	}
}

// TestOversizedObjectSpared: an object larger than the whole budget
// evicts everything else but is itself kept (the caller just paid to
// compute it; throwing it away helps no one).
func TestOversizedObjectSpared(t *testing.T) {
	s, err := Open(t.TempDir(), 50)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Put(key(1), bytes.Repeat([]byte("a"), 40))
	s.Put(key(2), bytes.Repeat([]byte("b"), 200))
	if _, ok := s.Get(key(1)); ok {
		t.Fatal("small object survived the oversized put")
	}
	if _, ok := s.Get(key(2)); !ok {
		t.Fatal("oversized object was evicted with nothing to gain")
	}
}

// TestPersistAcrossReopen: objects and LRU order survive Close/Open —
// the crash-safe restart path of a long-lived server.
func TestPersistAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	blob := bytes.Repeat([]byte("y"), 100)
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	s.Put(key(1), blob)
	s.Put(key(2), blob)
	s.Get(key(1)) // 2 is the LRU at close time
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, 250)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 2 || s2.Bytes() != 200 {
		t.Fatalf("reopened Len/Bytes = %d/%d, want 2/200", s2.Len(), s2.Bytes())
	}
	// The persisted recency must drive the next eviction: key 2 falls.
	s2.Put(key(3), blob)
	if _, ok := s2.Get(key(2)); ok {
		t.Fatal("persisted LRU order ignored: key 2 survived")
	}
	if _, ok := s2.Get(key(1)); !ok {
		t.Fatal("persisted MRU (key 1) evicted")
	}
}

// TestCrashArtifactsIgnored: stranded temp files are cleaned up, a
// corrupt index is discarded, and orphan objects (index lost entirely)
// are adopted from the scan — a crashed writer never corrupts reads.
func TestCrashArtifactsIgnored(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte("survives crashes")
	s.Put(key(7), want)
	s.Close()

	// Simulate a crash mid-write and a torn index.
	if err := os.WriteFile(filepath.Join(dir, "tmp", "put-crash"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "index.json"), []byte(`{"schema":1,"entr`), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, ok := s2.Get(key(7))
	if !ok || !bytes.Equal(got, want) {
		t.Fatalf("object lost after crash artifacts: (%q, %v)", got, ok)
	}
	if s2.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (temp file adopted?)", s2.Len())
	}
	tmps, err := os.ReadDir(filepath.Join(dir, "tmp"))
	if err != nil {
		t.Fatal(err)
	}
	if len(tmps) != 0 {
		t.Fatalf("stranded temp files not cleaned: %d left", len(tmps))
	}
}

// TestDisappearedObjectIsAMiss: deleting an object file behind the
// store's back degrades to a miss, not an error.
func TestDisappearedObjectIsAMiss(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	k := key(9)
	s.Put(k, []byte("volatile"))
	if err := os.Remove(filepath.Join(dir, "objects", k[:2], k)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(k); ok {
		t.Fatal("vanished object reported present")
	}
	if s.Len() != 0 {
		t.Fatalf("entry not dropped after vanish: Len = %d", s.Len())
	}
}

// TestConcurrentAccess: parallel Put/Get across overlapping keys keeps
// the bookkeeping consistent (run under -race in CI).
func TestConcurrentAccess(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 25; i++ {
				k := key(i % 10)
				if err := s.Put(k, []byte(strings.Repeat("z", i+1))); err != nil {
					t.Errorf("Put: %v", err)
				}
				s.Get(k)
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	if s.Len() != 10 {
		t.Fatalf("Len = %d, want 10", s.Len())
	}
}

// TestMetricsMirrorStore: an instrumented store keeps its metric pack
// exactly in step with the bookkeeping — hits/misses per Get outcome,
// object/byte gauges after Put and eviction, open errors when an
// object file vanishes underneath the entry table.
func TestMetricsMirrorStore(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 30)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var m Metrics
	s.Instrument(&m)

	if _, ok := s.Get(key(0)); ok {
		t.Fatal("empty store reported a hit")
	}
	if m.Misses.Value() != 1 || m.Hits.Value() != 0 {
		t.Fatalf("after cold Get: hits=%d misses=%d, want 0/1", m.Hits.Value(), m.Misses.Value())
	}

	if err := s.Put(key(0), []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	if m.Objects.Value() != 1 || m.Bytes.Value() != 10 {
		t.Fatalf("after Put: objects=%d bytes=%d, want 1/10", m.Objects.Value(), m.Bytes.Value())
	}
	if _, ok := s.Get(key(0)); !ok {
		t.Fatal("stored object reported absent")
	}
	if m.Hits.Value() != 1 {
		t.Fatalf("hits = %d, want 1", m.Hits.Value())
	}

	// Three 10-byte objects against a 30-byte budget: the fourth Put
	// evicts the least recently used.
	for i := 1; i < 4; i++ {
		if err := s.Put(key(i), []byte("0123456789")); err != nil {
			t.Fatal(err)
		}
	}
	if m.Evictions.Value() != 1 || m.Objects.Value() != 3 || m.Bytes.Value() != 30 {
		t.Fatalf("after eviction: evictions=%d objects=%d bytes=%d, want 1/3/30",
			m.Evictions.Value(), m.Objects.Value(), m.Bytes.Value())
	}

	// Remove an object file behind the store's back: the Get is a miss,
	// an open error, and the gauges shrink with the dropped entry.
	k := key(3)
	if err := os.Remove(filepath.Join(dir, "objects", k[:2], k)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(k); ok {
		t.Fatal("vanished object reported present")
	}
	if m.OpenErrors.Value() != 1 {
		t.Fatalf("open errors = %d, want 1", m.OpenErrors.Value())
	}
	if m.Objects.Value() != 2 || m.Bytes.Value() != 20 {
		t.Fatalf("after vanish: objects=%d bytes=%d, want 2/20", m.Objects.Value(), m.Bytes.Value())
	}

	// A reopened, re-instrumented store restores the gauges (and the
	// prior process's evictions are not replayed into the counter).
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, 30)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	var m2 Metrics
	s2.Instrument(&m2)
	if m2.Objects.Value() != 2 || m2.Bytes.Value() != 20 || m2.Evictions.Value() != 0 {
		t.Fatalf("reopened: objects=%d bytes=%d evictions=%d, want 2/20/0",
			m2.Objects.Value(), m2.Bytes.Value(), m2.Evictions.Value())
	}
}

// TestCorruptObjectNeverServed: a flipped payload byte, a flipped
// checksum byte, a truncated object and an object in the old
// headerless format all fail verification. Each Get is a miss that
// drops the entry and counts as corrupt, never an error or a hit, and
// a re-Put of the key serves again.
func TestCorruptObjectNeverServed(t *testing.T) {
	want := []byte("row 1\nrow 2\nrow 3\n")
	for _, tc := range []struct {
		name   string
		damage func(file []byte) []byte
	}{
		{"flipped payload byte", func(f []byte) []byte { f[len(f)-3] ^= 0x01; return f }},
		{"flipped checksum byte", func(f []byte) []byte { f[len(objectMagic)] ^= 0x80; return f }},
		{"truncated payload", func(f []byte) []byte { return f[:len(f)-1] }},
		{"truncated header", func(f []byte) []byte { return f[:headerLen-1] }},
		{"old format", func([]byte) []byte { return append([]byte(nil), want...) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			r := obs.NewRegistry()
			var m Metrics
			m.Bind(r, "resultcache")
			s.Instrument(&m)

			k := key(5)
			if err := s.Put(k, want); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, "objects", k[:2], k)
			file, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.damage(file), 0o644); err != nil {
				t.Fatal(err)
			}

			if got, ok := s.Get(k); ok || got != nil {
				t.Fatalf("damaged object served: (%q, %v)", got, ok)
			}
			if m.Corrupt.Value() != 1 || m.Misses.Value() != 1 || m.Hits.Value() != 0 || m.OpenErrors.Value() != 0 {
				t.Fatalf("corrupt=%d misses=%d hits=%d open errors=%d, want 1/1/0/0",
					m.Corrupt.Value(), m.Misses.Value(), m.Hits.Value(), m.OpenErrors.Value())
			}
			if s.Len() != 0 || s.Bytes() != 0 || m.Objects.Value() != 0 {
				t.Fatalf("corrupt entry kept: Len=%d Bytes=%d objects=%d", s.Len(), s.Bytes(), m.Objects.Value())
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("corrupt object file not removed: %v", err)
			}
			var b strings.Builder
			if err := r.WritePrometheus(&b); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(b.String(), "\nresultcache_corrupt_total 1\n") {
				t.Fatalf("exposition lacks resultcache_corrupt_total 1:\n%s", b.String())
			}

			if err := s.Put(k, want); err != nil {
				t.Fatal(err)
			}
			if got, ok := s.Get(k); !ok || !bytes.Equal(got, want) {
				t.Fatalf("after re-Put Get = (%q, %v), want (%q, true)", got, ok, want)
			}
		})
	}
}

// TestCorruptObjectAfterReopen: an object damaged while the store was
// closed is adopted by the scan, then caught by the first Get.
func TestCorruptObjectAfterReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	k := key(6)
	s.Put(k, []byte("persisted"))
	s.Close()
	path := filepath.Join(dir, "objects", k[:2], k)
	if err := os.WriteFile(path, []byte("persisted"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	var m Metrics
	s2.Instrument(&m)
	if s2.Len() != 1 || s2.Bytes() != 0 {
		t.Fatalf("reopened Len/Bytes = %d/%d, want 1/0 (headerless file counts no payload)", s2.Len(), s2.Bytes())
	}
	if _, ok := s2.Get(k); ok {
		t.Fatal("headerless object served after reopen")
	}
	if m.Corrupt.Value() != 1 || s2.Len() != 0 {
		t.Fatalf("corrupt=%d Len=%d, want 1/0", m.Corrupt.Value(), s2.Len())
	}
}
