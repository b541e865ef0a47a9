package trace

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func sampleProgram() *Program {
	return &Program{
		Name: "sample",
		Streams: []Stream{
			NewSliceStream([]Op{
				{Kind: Read, PC: 1, Addr: 4096, Gap: 3},
				{Kind: Read, PC: 1, Addr: 4128, Gap: 3},
				{Kind: Write, PC: 2, Addr: 4096, Gap: 1},
				{Kind: Acquire, Addr: 8192},
				{Kind: Release, Addr: 8192},
				{Kind: Barrier, Addr: 0},
			}),
			NewSliceStream([]Op{
				{Kind: Read, PC: 9, Addr: 1 << 40, Gap: 0}, // large address
				{Kind: Read, PC: 9, Addr: 64, Gap: 0},      // negative delta
				{Kind: Barrier, Addr: 0},
			}),
		},
	}
}

func drain(s Stream) []Op {
	var ops []Op
	for {
		op := s.Next()
		if op.Kind == End {
			return ops
		}
		ops = append(ops, op)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteProgram(&buf, sampleProgram()); err != nil {
		t.Fatal(err)
	}
	got, err := ReadProgram(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := sampleProgram()
	if got.Name != "sample" || len(got.Streams) != 2 {
		t.Fatalf("header: name=%q streams=%d", got.Name, len(got.Streams))
	}
	for i := range want.Streams {
		w, g := drain(want.Streams[i]), drain(got.Streams[i])
		if len(w) != len(g) {
			t.Fatalf("stream %d: %d ops, want %d", i, len(g), len(w))
		}
		for j := range w {
			if w[j] != g[j] {
				t.Fatalf("stream %d op %d: %+v, want %+v", i, j, g[j], w[j])
			}
		}
	}
}

func TestRoundTripRandomPrograms(t *testing.T) {
	f := func(raw []uint32, procsRaw uint8) bool {
		procs := int(procsRaw%4) + 1
		want := &Program{Name: "q"}
		streams := make([][]Op, procs)
		for i, r := range raw {
			p := i % procs
			op := Op{}
			switch r % 5 {
			case 0, 1:
				op = Op{Kind: Read, PC: PC(r >> 8), Addr: uint64(r) * 13, Gap: r % 100}
			case 2:
				op = Op{Kind: Write, PC: PC(r % 64), Addr: uint64(r), Gap: r % 7}
			case 3:
				op = Op{Kind: Acquire, Addr: uint64(r%1024) * 4096}
				streams[p] = append(streams[p], op)
				op = Op{Kind: Release, Addr: uint64(r%1024) * 4096}
			case 4:
				op = Op{Kind: Barrier, Addr: uint64(len(streams[p]))}
			}
			streams[p] = append(streams[p], op)
		}
		for _, ops := range streams {
			want.Streams = append(want.Streams, NewSliceStream(ops))
		}
		var buf bytes.Buffer
		if err := WriteProgram(&buf, want); err != nil {
			return false
		}
		got, err := ReadProgram(&buf)
		if err != nil {
			return false
		}
		for p := range streams {
			g := drain(got.Streams[p])
			if len(g) != len(streams[p]) {
				return false
			}
			for j := range g {
				if g[j] != streams[p][j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestReadProgramRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"empty":       "",
		"wrong magic": "NOTATRACE\n\x00",
		"truncated":   "PFSIM1\n",
	}
	for name, data := range cases {
		if _, err := ReadProgram(strings.NewReader(data)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestReadProgramRejectsTruncatedStream(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteProgram(&buf, sampleProgram()); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, err := ReadProgram(bytes.NewReader(data[:len(data)-3])); err == nil {
		t.Fatal("accepted truncated trace")
	}
}

// TestReadProgramRejectsWideFields: PC and Gap are 32-bit, so a file
// whose varint for either exceeds 32 bits is malformed and must fail
// rather than replay a truncated value.
func TestReadProgramRejectsWideFields(t *testing.T) {
	// readOp encodes a one-processor file holding one Read op.
	readOp := func(pc, gap uint64) []byte {
		b := append([]byte(nil), fileMagic...)
		b = binary.AppendUvarint(b, 1)
		b = append(b, 'x')
		b = binary.AppendUvarint(b, 1)
		b = append(b, byte(Read))
		b = binary.AppendUvarint(b, pc)
		b = binary.AppendVarint(b, 64)
		b = binary.AppendUvarint(b, gap)
		return append(b, byte(End))
	}
	cases := []struct {
		name    string
		pc, gap uint64
		ok      bool
	}{
		{"max fields", 1<<32 - 1, 1<<32 - 1, true},
		{"wide pc", 1 << 32, 0, false},
		{"wide gap", 0, 1 << 32, false},
	}
	for _, c := range cases {
		prog, err := ReadProgram(bytes.NewReader(readOp(c.pc, c.gap)))
		if !c.ok {
			if err == nil {
				t.Errorf("%s: accepted, replays as %+v", c.name, drain(prog.Streams[0]))
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		want := Op{Kind: Read, PC: PC(c.pc), Addr: 64, Gap: uint32(c.gap)}
		if got := drain(prog.Streams[0]); len(got) != 1 || got[0] != want {
			t.Errorf("%s: ops = %+v, want [%+v]", c.name, got, want)
		}
	}
}

// Decoding allowance for FuzzReadProgram: a fixed part covering the
// name buffer the decoder allocates before reading the name (at most
// 64 KiB), the bufio.Reader's 4 KiB and small headers, plus a bound per
// input byte. The cheapest encodings cost 1 byte per empty stream (a
// SliceStream and its Streams slot) and 2 bytes per op (a 24-byte Op),
// and append growth at most quadruples an op slice's final length.
const (
	decodeFixedAlloc   = 80 << 10
	decodeAllocPerByte = 128
)

// FuzzReadProgram feeds the decoder arbitrary bytes (plain go test
// replays the seed corpus in testdata/fuzz). It must never panic, must
// allocate within decodeFixedAlloc plus decodeAllocPerByte per input
// byte (a short input must not make it allocate what a header merely
// declares), and any input it accepts must re-encode to a file that
// decodes to the same ops.
func FuzzReadProgram(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		// TotalAlloc is process-wide, so other goroutines' allocations
		// are charged to a decode that overlaps them. The decoder is
		// deterministic: the smallest of a few decodes of the same input
		// is its own cost.
		var prog *Program
		var err error
		got := uint64(math.MaxUint64)
		for i := 0; i < 3; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			prog, err = ReadProgram(bytes.NewReader(data))
			runtime.ReadMemStats(&after)
			got = min(got, after.TotalAlloc-before.TotalAlloc)
		}
		if limit := uint64(decodeFixedAlloc + decodeAllocPerByte*len(data)); got > limit {
			t.Fatalf("decoding %d bytes allocated %d bytes, allowance %d", len(data), got, limit)
		}
		if err != nil {
			return
		}
		var want [][]Op
		for _, s := range prog.Streams {
			want = append(want, drain(s))
		}
		var buf bytes.Buffer
		if err := WriteProgram(&buf, &Program{Name: prog.Name, Streams: sliceStreams(want)}); err != nil {
			t.Fatalf("re-encoding a decoded program: %v", err)
		}
		again, err := ReadProgram(&buf)
		if err != nil {
			t.Fatalf("decoding a re-encoded program: %v", err)
		}
		if again.Name != prog.Name || len(again.Streams) != len(want) {
			t.Fatalf("header changed: %q/%d, want %q/%d", again.Name, len(again.Streams), prog.Name, len(want))
		}
		for i, s := range again.Streams {
			got := drain(s)
			if len(got) != len(want[i]) {
				t.Fatalf("stream %d: %d ops, want %d", i, len(got), len(want[i]))
			}
			for j := range got {
				if got[j] != want[i][j] {
					t.Fatalf("stream %d op %d: %+v, want %+v", i, j, got[j], want[i][j])
				}
			}
		}
	})
}

func sliceStreams(ops [][]Op) []Stream {
	out := make([]Stream, len(ops))
	for i, o := range ops {
		out[i] = NewSliceStream(o)
	}
	return out
}

func TestDeltaEncodingIsCompact(t *testing.T) {
	// A strided stream must cost only a few bytes per op.
	var ops []Op
	for i := 0; i < 10000; i++ {
		ops = append(ops, Op{Kind: Read, PC: 3, Addr: uint64(4096 + i*32), Gap: 2})
	}
	var buf bytes.Buffer
	err := WriteProgram(&buf, &Program{Name: "s", Streams: []Stream{NewSliceStream(ops)}})
	if err != nil {
		t.Fatal(err)
	}
	if perOp := float64(buf.Len()) / 10000; perOp > 6 {
		t.Fatalf("%.1f bytes/op; delta encoding broken", perOp)
	}
}
