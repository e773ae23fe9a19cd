package prof

import (
	"bytes"
	"compress/gzip"
	"context"
	"io"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"
)

// spin burns CPU in a named function so CPU profiles taken during the
// test have a recognisable leaf to find.
//
//go:noinline
func spin(d time.Duration) uint64 {
	var acc uint64
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1_000; i++ {
			acc = acc*6364136223846793005 + 1442695040888963407
		}
	}
	return acc
}

// collectCPUProfile runs fn under the runtime CPU profiler and returns
// the raw proto bytes.
func collectCPUProfile(t testing.TB, fn func()) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatalf("starting CPU profile: %v", err)
	}
	fn()
	pprof.StopCPUProfile()
	return buf.Bytes()
}

// TestParseCPUProfile: a real profile from the Go runtime round-trips
// through the stdlib-only proto parser — sample types are present, the
// cpu value index resolves, and the busy function shows up in the flat
// top table.
func TestParseCPUProfile(t *testing.T) {
	raw := collectCPUProfile(t, func() { spin(300 * time.Millisecond) })
	p, err := ParseProfile(raw)
	if err != nil {
		t.Fatalf("parsing CPU profile: %v", err)
	}
	if len(p.SampleTypes) == 0 {
		t.Fatal("profile has no sample types")
	}
	idx := p.ValueIndex("cpu")
	if idx < 0 {
		t.Fatalf("no cpu sample type in %+v", p.SampleTypes)
	}
	if len(p.Samples) == 0 {
		t.Skip("runtime CPU profiler returned no samples (starved CI host)")
	}
	if total := totalValue(p, idx); total <= 0 {
		t.Fatalf("total cpu value = %d, want > 0", total)
	}
	top := p.TopFunctions(idx, 10)
	if len(top) == 0 {
		t.Fatal("empty top-function table from a populated profile")
	}
	var shares float64
	found := false
	for _, fc := range top {
		shares += fc.Share
		if fc.Flat <= 0 {
			t.Errorf("function %s flat = %d, want > 0", fc.Function, fc.Flat)
		}
		if containsSpin(fc.Function) {
			found = true
		}
	}
	if shares > 1.0001 {
		t.Errorf("top-function shares sum to %v, want <= 1", shares)
	}
	if !found {
		t.Logf("spin not in top 10 (flaky on loaded hosts): %+v", top)
	}

	// Every flat entry reappears in the full cumulative ranking with a
	// cum at least its flat, and the root frames carry the whole total.
	cum := map[string]int64{}
	all := p.TopCumulative(idx, 0)
	for _, fc := range all {
		cum[fc.Function] = fc.Cum
	}
	for _, fc := range top {
		if cum[fc.Function] < fc.Flat {
			t.Errorf("%s: cum %d < flat %d", fc.Function, cum[fc.Function], fc.Flat)
		}
	}
	if all[0].Share > 1.0001 {
		t.Errorf("top cumulative share = %v, want <= 1", all[0].Share)
	}
}

// TestTopCumulative: on a hand-built profile, a sample counts once per
// distinct function on its stack (recursion and inlined frames
// included), a function's cum is at least its flat, and ties break by
// name.
func TestTopCumulative(t *testing.T) {
	p := &Profile{
		SampleTypes: []ValueType{{Type: "cpu", Unit: "nanoseconds"}},
		frames: map[uint64][]string{
			1: {"leaf"},
			3: {"rec"},
			4: {"root"},
			5: {"inl", "outer"}, // inl is inlined into outer
		},
		Samples: []ProfileSample{
			{LocationIDs: []uint64{1, 3, 3, 4}, Values: []int64{10}},
			{LocationIDs: []uint64{3, 4}, Values: []int64{5}},
			{LocationIDs: []uint64{5, 4}, Values: []int64{2}},
			{LocationIDs: []uint64{1, 4}, Values: []int64{0}},
			{LocationIDs: []uint64{9}, Values: []int64{3}}, // unnamed location
		},
	}
	got := p.TopCumulative(0, 0)
	want := []FuncCost{
		{Function: "root", Flat: 0, Cum: 17},
		{Function: "rec", Flat: 5, Cum: 15},
		{Function: "leaf", Flat: 10, Cum: 10},
		{Function: "loc#9", Flat: 3, Cum: 3},
		{Function: "inl", Flat: 2, Cum: 2},
		{Function: "outer", Flat: 0, Cum: 2},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d entries, want %d: %+v", len(got), len(want), got)
	}
	for i, w := range want {
		g := got[i]
		if g.Function != w.Function || g.Flat != w.Flat || g.Cum != w.Cum {
			t.Errorf("entry %d = %+v, want %s flat %d cum %d", i, g, w.Function, w.Flat, w.Cum)
		}
		if g.Cum < g.Flat {
			t.Errorf("%s: cum %d < flat %d", g.Function, g.Cum, g.Flat)
		}
		if wantShare := float64(w.Cum) / 20; g.Share != wantShare {
			t.Errorf("%s share = %v, want %v", g.Function, g.Share, wantShare)
		}
	}
	if top := p.TopCumulative(0, 2); len(top) != 2 || top[1].Function != "rec" {
		t.Errorf("TopCumulative(0, 2) = %+v, want root and rec", top)
	}
	if got := p.TopCumulative(-1, 10); got != nil {
		t.Errorf("TopCumulative(-1) = %+v, want nil", got)
	}
	// The flat ranking of the same profile charges only leaves.
	flat := p.TopFunctions(0, 0)
	if flat[0].Function != "leaf" || flat[0].Flat != 10 || flat[0].Cum != 0 {
		t.Errorf("flat top = %+v, want leaf with flat 10 and no cum", flat[0])
	}
}

// totalValue sums one value dimension over all samples.
func totalValue(p *Profile, valueIdx int) int64 {
	var t int64
	for _, s := range p.Samples {
		t += s.Values[valueIdx]
	}
	return t
}

func containsSpin(name string) bool {
	return bytes.Contains([]byte(name), []byte("spin"))
}

// TestParseCPUProfileLabels: samples taken inside pprof.Do carry the
// label — the mechanism the engine uses to tag every simulation job with
// device/config/workload.
func TestParseCPUProfileLabels(t *testing.T) {
	raw := collectCPUProfile(t, func() {
		pprof.Do(context.Background(), pprof.Labels("workload", "spin-test"), func(context.Context) {
			spin(300 * time.Millisecond)
		})
	})
	p, err := ParseProfile(raw)
	if err != nil {
		t.Fatal(err)
	}
	idx := p.ValueIndex("cpu")
	if idx < 0 {
		t.Fatal("no cpu sample type")
	}
	if len(p.Samples) == 0 {
		t.Skip("runtime CPU profiler returned no samples (starved CI host)")
	}
	var spinCPU int64
	for _, s := range p.Samples {
		if s.Labels["workload"] == "spin-test" {
			spinCPU += s.Values[idx]
		}
	}
	if spinCPU <= 0 {
		t.Fatal("no cpu time attributed to workload=spin-test")
	}
}

// TestParseHeapProfile: the heap profile's alloc_space value index
// resolves and allocating code appears with positive flat bytes.
func TestParseHeapProfile(t *testing.T) {
	sink := make([][]byte, 0, 4096)
	for i := 0; i < 4096; i++ {
		sink = append(sink, make([]byte, 1024))
	}
	runtime.KeepAlive(sink)
	runtime.GC()
	var buf bytes.Buffer
	if err := pprof.WriteHeapProfile(&buf); err != nil {
		t.Fatal(err)
	}
	p, err := ParseProfile(buf.Bytes())
	if err != nil {
		t.Fatalf("parsing heap profile: %v", err)
	}
	idx := p.ValueIndex("alloc_space")
	if idx < 0 {
		t.Fatalf("no alloc_space sample type in %+v", p.SampleTypes)
	}
	if totalValue(p, idx) <= 0 {
		t.Fatal("heap profile attributes zero allocated bytes")
	}
	if top := p.TopFunctions(idx, 5); len(top) == 0 {
		t.Fatal("empty top table from heap profile")
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	for _, raw := range [][]byte{
		nil,
		[]byte("not a profile"),
		{0x1f, 0x8b, 0xff, 0xff}, // gzip magic, corrupt stream
		// Field 8, length-delimited, with a length near 2^63.
		[]byte("B\x80\xa0\x80\xfb\xff\xff\xff\xff\xff1"),
		// A sample type whose fixed64 field runs past the end.
		{0x0a, 0x02, 0x19, 0x01},
		// A sample whose packed location ids claim more bytes than exist.
		{0x12, 0x03, 0x0a, 0x7f, 0x01},
	} {
		if _, err := ParseProfile(raw); err == nil {
			t.Errorf("ParseProfile(%q) accepted garbage", raw)
		}
	}
}

func TestValueIndexMissing(t *testing.T) {
	raw := collectCPUProfile(t, func() { spin(20 * time.Millisecond) })
	p, err := ParseProfile(raw)
	if err != nil {
		t.Fatal(err)
	}
	if idx := p.ValueIndex("no-such-type"); idx != -1 {
		t.Errorf("ValueIndex(no-such-type) = %d, want -1", idx)
	}
	if got := p.TopFunctions(-1, 10); got != nil {
		t.Errorf("TopFunctions(-1) = %+v, want nil", got)
	}
}

// FuzzParseProfile: for any input the decoder returns an error or a
// profile, never panics, and whatever it returns ranks cleanly.
func FuzzParseProfile(f *testing.F) {
	runtime.GC()
	var heap bytes.Buffer
	if err := pprof.WriteHeapProfile(&heap); err != nil {
		f.Fatal(err)
	}
	// Seed each real profile both gzipped, as the runtime writes it,
	// and raw, so mutations reach the proto decoder rather than dying
	// in the gzip checksum.
	for _, gz := range [][]byte{
		collectCPUProfile(f, func() { spin(50 * time.Millisecond) }),
		heap.Bytes(),
	} {
		f.Add(gz)
		zr, err := gzip.NewReader(bytes.NewReader(gz))
		if err != nil {
			f.Fatal(err)
		}
		raw, err := io.ReadAll(zr)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte("not a profile"))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ParseProfile(data)
		if err != nil {
			return
		}
		for i := range p.SampleTypes {
			p.TopFunctions(i, 5)
			p.TopCumulative(i, 5)
		}
	})
}
