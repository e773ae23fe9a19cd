package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Trace serialization: a compact binary format for materialised
// instruction streams, so a synthesized workload can be snapshotted,
// shipped next to results, and replayed bit-identically (or inspected
// with `hetcore trace stats -in`).
//
// Format (little-endian):
//
//	magic   [8]byte  "HETTRC01"
//	count   uint64
//	records count × {
//	    op      uint8
//	    flags   uint8   (bit0 taken, bit1 shared)
//	    dep1    uint16
//	    dep2    uint16
//	    pc      uint64
//	    addr    uint64  (present only for memory ops)
//	}

var traceMagic = [8]byte{'H', 'E', 'T', 'T', 'R', 'C', '0', '1'}

const (
	flagTaken  = 1 << 0
	flagShared = 1 << 1
)

// WriteTrace serialises n instructions from the source to w.
func WriteTrace(w io.Writer, src interface{ Next() Inst }, n uint64) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(traceMagic[:]); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, n); err != nil {
		return err
	}
	var rec [14]byte
	for i := uint64(0); i < n; i++ {
		in := src.Next()
		if in.Dep1 > 0xffff || in.Dep2 > 0xffff || in.Dep1 < 0 || in.Dep2 < 0 {
			return fmt.Errorf("trace: dependency distance %d/%d out of range at %d",
				in.Dep1, in.Dep2, i)
		}
		rec[0] = byte(in.Op)
		rec[1] = 0
		if in.Taken {
			rec[1] |= flagTaken
		}
		if in.Shared {
			rec[1] |= flagShared
		}
		binary.LittleEndian.PutUint16(rec[2:], uint16(in.Dep1))
		binary.LittleEndian.PutUint16(rec[4:], uint16(in.Dep2))
		binary.LittleEndian.PutUint64(rec[6:], in.PC)
		if _, err := bw.Write(rec[:]); err != nil {
			return err
		}
		if in.Op.IsMem() {
			var a [8]byte
			binary.LittleEndian.PutUint64(a[:], in.Addr)
			if _, err := bw.Write(a[:]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// Reader replays a serialised trace. It implements the same Next()
// contract as a Generator; Next panics if called past the end (check
// Remaining).
type Reader struct {
	br        *bufio.Reader
	remaining uint64
	err       error
}

// NewReader validates the header and prepares to stream records.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if magic != traceMagic {
		return nil, fmt.Errorf("trace: bad magic %q", magic[:])
	}
	var n uint64
	if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
		return nil, fmt.Errorf("trace: reading count: %w", err)
	}
	return &Reader{br: br, remaining: n}, nil
}

// Remaining returns how many instructions are left.
func (r *Reader) Remaining() uint64 { return r.remaining }

// Err returns the first I/O or format error encountered by Next.
func (r *Reader) Err() error { return r.err }

// Next returns the next instruction. On underlying errors it records the
// error (see Err) and returns a harmless no-op instruction so simulations
// fail loudly via Err checks rather than panicking mid-run.
func (r *Reader) Next() Inst {
	if r.remaining == 0 {
		r.fail(fmt.Errorf("trace: read past end"))
		return Inst{Op: IntALU}
	}
	r.remaining--
	var rec [14]byte
	if _, err := io.ReadFull(r.br, rec[:]); err != nil {
		r.fail(err)
		return Inst{Op: IntALU}
	}
	op := Op(rec[0])
	if op < 0 || op >= numOps {
		r.fail(fmt.Errorf("trace: invalid op %d", rec[0]))
		return Inst{Op: IntALU}
	}
	in := Inst{
		Op:     op,
		Taken:  rec[1]&flagTaken != 0,
		Shared: rec[1]&flagShared != 0,
		Dep1:   int(binary.LittleEndian.Uint16(rec[2:])),
		Dep2:   int(binary.LittleEndian.Uint16(rec[4:])),
		PC:     binary.LittleEndian.Uint64(rec[6:]),
	}
	if in.Op.IsMem() {
		var a [8]byte
		if _, err := io.ReadFull(r.br, a[:]); err != nil {
			r.fail(err)
			return Inst{Op: IntALU}
		}
		in.Addr = binary.LittleEndian.Uint64(a[:])
	}
	return in
}

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.remaining = 0
}

// Summary aggregates the statistics of a trace — what `hetcore trace stats` prints.
type Summary struct {
	Instructions  uint64
	OpCounts      [9]uint64
	Branches      uint64
	Taken         uint64
	MemOps        uint64
	SharedOps     uint64
	DistinctLines map[uint64]struct{}
	DepSum        uint64
	Dep2Count     uint64
}

// Summarize consumes n instructions from the source and aggregates them.
func Summarize(src interface{ Next() Inst }, n uint64) Summary {
	s := Summary{DistinctLines: make(map[uint64]struct{})}
	for i := uint64(0); i < n; i++ {
		in := src.Next()
		s.Instructions++
		s.OpCounts[in.Op]++
		if in.Op == Branch {
			s.Branches++
			if in.Taken {
				s.Taken++
			}
		}
		if in.Op.IsMem() {
			s.MemOps++
			if in.Shared {
				s.SharedOps++
			}
			s.DistinctLines[in.Addr/64] = struct{}{}
		}
		s.DepSum += uint64(in.Dep1)
		if in.Dep2 > 0 {
			s.Dep2Count++
		}
	}
	return s
}

// WorkingSetBytes estimates the touched data footprint.
func (s Summary) WorkingSetBytes() uint64 {
	return uint64(len(s.DistinctLines)) * 64
}

// TakenRate returns the fraction of branches taken.
func (s Summary) TakenRate() float64 {
	if s.Branches == 0 {
		return 0
	}
	return float64(s.Taken) / float64(s.Branches)
}

// MeanDep1 returns the average first-dependency distance.
func (s Summary) MeanDep1() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return float64(s.DepSum) / float64(s.Instructions)
}
