package soc

import (
	"sync"
	"sync/atomic"
	"testing"

	"hetcore/internal/gpu"
	"hetcore/internal/hetsim"
	"hetcore/internal/trace"
)

// TestMemoSingleFlightAndEviction: concurrent callers of one key share
// one call, and the memo keeps at most memoCap entries, dropping the
// oldest first.
func TestMemoSingleFlightAndEviction(t *testing.T) {
	var m memo[int, int]
	var calls atomic.Int32
	f := func() (int, error) {
		calls.Add(1)
		return 7, nil
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if v, err := m.get(0, f); v != 7 || err != nil {
				t.Errorf("get = %d, %v; want 7, nil", v, err)
			}
		}()
	}
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("%d calls for one key, want 1", n)
	}
	for k := 1; k <= memoCap; k++ {
		m.get(k, f)
	}
	if len(m.items) != memoCap || len(m.order) != memoCap {
		t.Fatalf("memo holds %d items, %d in order; want %d", len(m.items), len(m.order), memoCap)
	}
	calls.Store(0)
	m.get(memoCap, f) // newest: kept
	if n := calls.Load(); n != 0 {
		t.Errorf("newest key re-ran (%d calls)", n)
	}
	m.get(0, f) // oldest: evicted by key memoCap
	if n := calls.Load(); n != 1 {
		t.Errorf("evicted key ran %d times, want 1", n)
	}
}

// TestMeasuredRunsMatchDirect: the direct measurements, first call and
// kept, equal the runs they stand for.
func TestMeasuredRunsMatchDirect(t *testing.T) {
	const seed, instr = 3, 20_000
	names := []string{"barnes", "canneal"}
	profs := make([]trace.Profile, len(names))
	for i, n := range names {
		var err error
		if profs[i], err = trace.CPUWorkload(n); err != nil {
			t.Fatal(err)
		}
	}
	want, err := CoreRuns(profs, nil, hetsim.Simulate(hetsim.RunOpts{TotalInstructions: instr, Seed: seed}))
	if err != nil {
		t.Fatal(err)
	}
	gcfg, err := hetsim.GPUConfigByName(GPUConfig)
	if err != nil {
		t.Fatal(err)
	}
	kern, err := gpu.KernelByName("Reduction")
	if err != nil {
		t.Fatal(err)
	}
	wantGPU, err := hetsim.RunGPU(gcfg, kern, seed)
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		got, err := MeasureCoreRuns(names, seed, instr)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("pass %d: %d runs, want %d", pass, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("pass %d: run %d (%s/%s) differs from CoreRuns", pass, i, want[i].Config, want[i].Workload)
			}
		}
		g, err := measureKernel("Reduction", seed)
		if err != nil {
			t.Fatal(err)
		}
		if g != wantGPU {
			t.Errorf("pass %d: kernel run differs from RunGPU", pass)
		}
	}
	if _, err := MeasureCoreRuns([]string{"no-such-workload"}, seed, instr); err == nil {
		t.Error("MeasureCoreRuns accepted an unknown workload")
	}
}
