package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Trace files make workloads portable: a Program can be recorded once
// and replayed later (or elsewhere) without re-running its generator —
// the trace-driven mode of classic simulators like the CacheMire test
// bench the paper used. The format is a compact stream:
//
//	magic "PFSIM1\n"
//	name  (uvarint length + bytes)
//	procs (uvarint)
//	then, per processor, its ops in program order, each op:
//	    kind  (1 byte)
//	    and for Read/Write:   pc (uvarint), addr delta (svarint), gap (uvarint)
//	    for Acquire/Release:  addr (uvarint)
//	    for Barrier:          episode (uvarint)
//	an End op terminates each processor's stream.
//
// Address deltas are signed varints relative to the previous address in
// the same stream, which compresses strided patterns to 2–3 bytes/op.

var fileMagic = []byte("PFSIM1\n")

// WriteProgram serializes prog to w, draining its streams (the program
// cannot be simulated afterwards; rebuild or replay it).
func WriteProgram(w io.Writer, prog *Program) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(fileMagic); err != nil {
		return err
	}
	var scratch [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) error {
		n := binary.PutUvarint(scratch[:], v)
		_, err := bw.Write(scratch[:n])
		return err
	}
	putVarint := func(v int64) error {
		n := binary.PutVarint(scratch[:], v)
		_, err := bw.Write(scratch[:n])
		return err
	}

	if err := putUvarint(uint64(len(prog.Name))); err != nil {
		return err
	}
	if _, err := bw.WriteString(prog.Name); err != nil {
		return err
	}
	if err := putUvarint(uint64(len(prog.Streams))); err != nil {
		return err
	}

	for _, s := range prog.Streams {
		var prevAddr uint64
		for {
			op := s.Next()
			if err := bw.WriteByte(byte(op.Kind)); err != nil {
				return err
			}
			switch op.Kind {
			case Read, Write:
				if err := putUvarint(uint64(op.PC)); err != nil {
					return err
				}
				if err := putVarint(int64(op.Addr) - int64(prevAddr)); err != nil {
					return err
				}
				prevAddr = op.Addr
				if err := putUvarint(uint64(op.Gap)); err != nil {
					return err
				}
			case Acquire, Release, Barrier:
				if err := putUvarint(op.Addr); err != nil {
					return err
				}
			case End:
				// stream terminator; no payload
			default:
				return fmt.Errorf("trace: cannot serialize op kind %v", op.Kind)
			}
			if op.Kind == End {
				break
			}
		}
	}
	return bw.Flush()
}

// ReadProgram deserializes a program written by WriteProgram. Streams
// are fully materialized in memory.
func ReadProgram(r io.Reader) (*Program, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(fileMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(magic) != string(fileMagic) {
		return nil, fmt.Errorf("trace: not a prefetchsim trace file")
	}

	nameLen, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: reading name length: %w", err)
	}
	if nameLen > 1<<16 {
		return nil, fmt.Errorf("trace: unreasonable name length %d", nameLen)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, fmt.Errorf("trace: reading name: %w", err)
	}
	procs, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: reading processor count: %w", err)
	}
	if procs == 0 || procs > 1024 {
		return nil, fmt.Errorf("trace: unreasonable processor count %d", procs)
	}

	prog := &Program{Name: string(name)}
	for p := uint64(0); p < procs; p++ {
		var ops []Op
		var prevAddr uint64
		for {
			kindByte, err := br.ReadByte()
			if err != nil {
				return nil, fmt.Errorf("trace: stream %d truncated: %w", p, err)
			}
			kind := Kind(kindByte)
			if kind == End {
				break
			}
			op := Op{Kind: kind}
			switch kind {
			case Read, Write:
				pc, err := binary.ReadUvarint(br)
				if err != nil {
					return nil, fmt.Errorf("trace: stream %d pc: %w", p, err)
				}
				delta, err := binary.ReadVarint(br)
				if err != nil {
					return nil, fmt.Errorf("trace: stream %d addr: %w", p, err)
				}
				gap, err := binary.ReadUvarint(br)
				if err != nil {
					return nil, fmt.Errorf("trace: stream %d gap: %w", p, err)
				}
				// PC and Gap are 32-bit: a wider value would replay
				// truncated, as a different program.
				if pc > math.MaxUint32 {
					return nil, fmt.Errorf("trace: stream %d pc %d exceeds 32 bits", p, pc)
				}
				if gap > math.MaxUint32 {
					return nil, fmt.Errorf("trace: stream %d gap %d exceeds 32 bits", p, gap)
				}
				op.PC = PC(pc)
				op.Addr = uint64(int64(prevAddr) + delta)
				prevAddr = op.Addr
				op.Gap = uint32(gap)
			case Acquire, Release, Barrier:
				addr, err := binary.ReadUvarint(br)
				if err != nil {
					return nil, fmt.Errorf("trace: stream %d sync addr: %w", p, err)
				}
				op.Addr = addr
			default:
				return nil, fmt.Errorf("trace: stream %d has unknown op kind %d", p, kindByte)
			}
			ops = append(ops, op)
		}
		prog.Streams = append(prog.Streams, NewSliceStream(ops))
	}
	return prog, nil
}
