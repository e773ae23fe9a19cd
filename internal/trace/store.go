package trace

import (
	"bytes"
	"encoding/binary"
	"sync"

	"hetcore/internal/obs"
)

// Registry counters of instruction synthesis, both added a whole block
// or a whole run at a time, never per instruction.
const (
	// SynthesizedCounter counts instructions generators made for CPU
	// and CMP runs: a store's blocks, plus each private generator's
	// Generated() at the end of its run.
	SynthesizedCounter = "trace.insts_synthesized"
	// ReplayedCounter counts instructions readers took from a store,
	// a block at a time.
	ReplayedCounter = "trace.insts_replayed"
)

// storeBlockInsts is the number of instructions in one recorded block.
const storeBlockInsts = 4096

// StreamStore shares instruction streams among the simulations of one
// process. NewGenerator depends only on (profile, seed, core), so every
// configuration's core i reads the same stream; the store synthesizes
// each stream once, records it in blocks of losslessly encoded
// instructions, and replays it to any number of readers, each with its
// own cursor. A stream lives until Release drops its workload; a stream
// requested again after that is synthesized again, identically.
//
// A StreamStore is safe for concurrent use.
type StreamStore struct {
	synthesized, replayed *obs.Counter

	mu      sync.Mutex
	streams map[streamKey]*stream
}

type streamKey struct {
	prof Profile
	seed uint64
	core int
}

// NewStreamStore returns an empty store that adds to reg's
// SynthesizedCounter and ReplayedCounter (nil reg counts nothing).
func NewStreamStore(reg *obs.Registry) *StreamStore {
	return &StreamStore{
		synthesized: reg.Counter(SynthesizedCounter),
		replayed:    reg.Counter(ReplayedCounter),
		streams:     make(map[streamKey]*stream),
	}
}

// Reader returns a replay of the stream NewGenerator(prof, seed, core)
// makes, from its first instruction.
func (st *StreamStore) Reader(prof Profile, seed uint64, core int) (*StreamReader, error) {
	k := streamKey{prof, seed, core}
	st.mu.Lock()
	defer st.mu.Unlock()
	s, ok := st.streams[k]
	if !ok {
		gen, err := NewGenerator(prof, seed, core)
		if err != nil {
			return nil, err
		}
		s = &stream{gen: gen, synthesized: st.synthesized}
		st.streams[k] = s
	}
	return &StreamReader{s: s, replayed: st.replayed}, nil
}

// Release drops every core's stream of the workload. Readers already
// open keep theirs; later readers synthesize it again.
func (st *StreamStore) Release(prof Profile, seed uint64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for k := range st.streams {
		if k.prof == prof && k.seed == seed {
			delete(st.streams, k)
		}
	}
}

// stream is one recorded instruction stream: the generator and the
// blocks it has produced so far. Blocks are immutable once appended.
type stream struct {
	synthesized *obs.Counter

	mu     sync.Mutex
	gen    *Generator
	enc    codecState
	buf    []byte // encoding scratch, reused across blocks
	blocks [][]byte
}

// block returns block i, synthesizing every block up to it first.
func (s *stream) block(i int) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.blocks) <= i {
		s.buf = s.buf[:0]
		for range storeBlockInsts {
			s.buf = s.enc.append(s.buf, s.gen.Next())
		}
		s.blocks = append(s.blocks, bytes.Clone(s.buf))
		s.synthesized.Add(storeBlockInsts)
	}
	return s.blocks[i]
}

// StreamReader replays one stream of a StreamStore. It satisfies
// cpu.InstSource; a reader is not safe for concurrent use, but any
// number of readers may replay one stream at their own pace.
type StreamReader struct {
	s        *stream
	replayed *obs.Counter
	next     int    // index of the next block to load
	blk      []byte // current block
	off      int    // read offset in blk
	left     int    // instructions left in blk
	dec      codecState
}

// Next returns the stream's next instruction.
func (r *StreamReader) Next() Inst {
	if r.left == 0 {
		r.blk, r.off, r.left = r.s.block(r.next), 0, storeBlockInsts
		r.next++
		r.replayed.Add(storeBlockInsts)
	}
	r.left--
	var in Inst
	in, r.off = r.dec.decode(r.blk, r.off)
	return in
}

// The block codec. Each instruction is a header byte, Dep1 and Dep2 as
// uvarints, then the PC as a zig-zag delta from the fall-through PC
// (only when the header's jump bit is set) and, for memory ops only,
// the address as a zig-zag delta from the previous memory address. It
// round-trips every Inst whose Op is below 16 and whose Addr is zero
// unless it is a memory op, which covers everything a Generator makes.
const (
	hdrOp     = 0x0f
	hdrTaken  = 0x10
	hdrShared = 0x20
	hdrJump   = 0x40
)

// codecState is the context the codec encodes against: the PC the
// next instruction falls through to and the last memory address. The
// encoder and every reader carry one across blocks.
type codecState struct {
	nextPC, addr uint64
}

// append encodes in onto b.
func (c *codecState) append(b []byte, in Inst) []byte {
	h := byte(in.Op) & hdrOp
	if in.Taken {
		h |= hdrTaken
	}
	if in.Shared {
		h |= hdrShared
	}
	jump := in.PC != c.nextPC
	if jump {
		h |= hdrJump
	}
	b = append(b, h)
	b = binary.AppendUvarint(b, uint64(in.Dep1))
	b = binary.AppendUvarint(b, uint64(in.Dep2))
	if jump {
		b = binary.AppendVarint(b, int64(in.PC-c.nextPC))
	}
	c.nextPC = in.PC + 4
	if in.Op.IsMem() {
		b = binary.AppendVarint(b, int64(in.Addr-c.addr))
		c.addr = in.Addr
	}
	return b
}

// decode reads the instruction at b[off:] and returns it with the
// offset of the next one.
func (c *codecState) decode(b []byte, off int) (Inst, int) {
	h := b[off]
	in := Inst{Op: Op(h & hdrOp), Taken: h&hdrTaken != 0, Shared: h&hdrShared != 0}
	var v uint64
	v, off = uvarint(b, off+1)
	in.Dep1 = int(v)
	v, off = uvarint(b, off)
	in.Dep2 = int(v)
	in.PC = c.nextPC
	if h&hdrJump != 0 {
		v, off = uvarint(b, off)
		in.PC += unzigzag(v)
	}
	c.nextPC = in.PC + 4
	if in.Op.IsMem() {
		v, off = uvarint(b, off)
		c.addr += unzigzag(v)
		in.Addr = c.addr
	}
	return in, off
}

// uvarint reads the uvarint at b[off:], with a fast path for the
// one-byte values that most fields are.
func uvarint(b []byte, off int) (uint64, int) {
	if x := b[off]; x < 0x80 {
		return uint64(x), off + 1
	}
	v, n := binary.Uvarint(b[off:])
	return v, off + n
}

// unzigzag undoes binary.AppendVarint's zig-zag mapping; the result is
// added to an address modulo 2^64.
func unzigzag(v uint64) uint64 { return uint64(int64(v>>1) ^ -int64(v&1)) }
