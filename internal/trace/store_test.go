package trace

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"hetcore/internal/obs"
)

// replayLen crosses several block boundaries and ends inside a block.
const replayLen = 3*storeBlockInsts + 123

// TestStreamReplayMatchesGenerator: a replay is the generator's stream,
// instruction for instruction, for every profile and cores 0-7.
func TestStreamReplayMatchesGenerator(t *testing.T) {
	st := NewStreamStore(nil)
	for _, p := range CPUWorkloads() {
		for core := 0; core < 8; core++ {
			r, err := st.Reader(p, 1, core)
			if err != nil {
				t.Fatal(err)
			}
			g := MustGenerator(p, 1, core)
			for i := 0; i < replayLen; i++ {
				if got, want := r.Next(), g.Next(); got != want {
					t.Fatalf("%s core %d: inst %d replays as %+v, generator made %+v", p.Name, core, i, got, want)
				}
			}
		}
	}
}

// TestStreamReadersAtDifferentPaces: two readers of one stream, one
// running far ahead of the other, both see the generator's stream. Run
// under -race it also checks the block hand-off.
func TestStreamReadersAtDifferentPaces(t *testing.T) {
	p, _ := CPUWorkload("canneal")
	want := take(MustGenerator(p, 7, 2), replayLen)
	reg := obs.NewRegistry()
	st := NewStreamStore(reg)
	var wg sync.WaitGroup
	for _, stride := range []int{1, 1500} {
		r, err := st.Reader(p, 7, 2)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < replayLen; {
				for j := 0; j < stride && i < replayLen; j, i = j+1, i+1 {
					if got := r.Next(); got != want[i] {
						t.Errorf("stride %d: inst %d replays as %+v, want %+v", stride, i, got, want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	blocks := uint64(replayLen+storeBlockInsts-1) / storeBlockInsts
	snap := reg.Snapshot()
	if got := snap.Counters[SynthesizedCounter]; got != blocks*storeBlockInsts {
		t.Errorf("synthesized %d instructions, want %d (each block once)", got, blocks*storeBlockInsts)
	}
	if got := snap.Counters[ReplayedCounter]; got != 2*blocks*storeBlockInsts {
		t.Errorf("replayed %d instructions, want %d (each block once per reader)", got, 2*blocks*storeBlockInsts)
	}
}

// TestStreamReleaseResynthesizes: after Release, the workload's streams
// are synthesized again, identically; other workloads are kept.
func TestStreamReleaseResynthesizes(t *testing.T) {
	lu, _ := CPUWorkload("lu")
	fft, _ := CPUWorkload("fft")
	reg := obs.NewRegistry()
	st := NewStreamStore(reg)
	read := func(p Profile, core int) []Inst {
		r, err := st.Reader(p, 3, core)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]Inst, replayLen)
		for i := range out {
			out[i] = r.Next()
		}
		return out
	}
	first := read(lu, 1)
	read(fft, 0)
	synth := func() uint64 { return reg.Snapshot().Counters[SynthesizedCounter] }
	before := synth()
	st.Release(lu, 3)
	again := read(lu, 1)
	for i := range first {
		if first[i] != again[i] {
			t.Fatalf("inst %d differs after release: %+v vs %+v", i, again[i], first[i])
		}
	}
	if synth() == before {
		t.Error("a released stream was replayed instead of synthesized again")
	}
	before = synth()
	read(fft, 0)
	if synth() != before {
		t.Error("releasing lu dropped fft's stream")
	}
}

// TestStreamCodecRoundTrip: the codec is lossless on the edge values a
// generator never makes (negative dependencies, jumps and address
// deltas across the whole 64-bit range) as well as random ones.
func TestStreamCodecRoundTrip(t *testing.T) {
	ins := []Inst{
		{Op: Load, Dep1: -1, Dep2: math.MaxInt, PC: math.MaxUint64, Addr: 0, Shared: true},
		{Op: Store, PC: 0, Addr: math.MaxUint64},
		{Op: Branch, PC: 4, Taken: true},
		{Op: FPDiv, Dep1: math.MinInt, PC: 1 << 63},
		{Op: Load, PC: (1 << 63) + 4, Addr: 1 << 63},
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10_000; i++ {
		in := Inst{Op: Op(rng.Intn(int(numOps))), Dep1: rng.Intn(300), Dep2: rng.Intn(3),
			PC: ins[len(ins)-1].PC + 4}
		if rng.Intn(8) == 0 {
			in.PC = rng.Uint64()
		}
		switch {
		case in.Op.IsMem():
			in.Addr, in.Shared = rng.Uint64(), rng.Intn(2) == 0
		case in.Op == Branch:
			in.Taken = rng.Intn(2) == 0
		}
		ins = append(ins, in)
	}
	var enc, dec codecState
	var b []byte
	for _, in := range ins {
		b = enc.append(b, in)
	}
	off := 0
	for i, want := range ins {
		var got Inst
		got, off = dec.decode(b, off)
		if got != want {
			t.Fatalf("inst %d decodes as %+v, want %+v", i, got, want)
		}
	}
	if off != len(b) {
		t.Errorf("decoding stopped at byte %d of %d", off, len(b))
	}
}

// TestStreamCodecCompact: a recorded stream costs a few bytes per
// instruction (an Inst is 48 bytes in memory).
func TestStreamCodecCompact(t *testing.T) {
	var bytes, insts int
	for _, p := range CPUWorkloads() {
		var enc codecState
		var b []byte
		g := MustGenerator(p, 1, 0)
		for i := 0; i < 50_000; i++ {
			b = enc.append(b, g.Next())
		}
		bytes += len(b)
		insts += 50_000
	}
	if per := float64(bytes) / float64(insts); per > 6 {
		t.Errorf("%.2f B/inst, want at most 6", per)
	}
}
