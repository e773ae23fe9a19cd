package cpu

import (
	"testing"

	"hetcore/internal/trace"
)

// TestSamplerFiresPerInterval checks the periodic telemetry hook: armed
// with an interval it fires roughly cycles/interval times with cumulative
// stats, and disarming resets the sentinel so the per-cycle cost returns
// to a single compare.
func TestSamplerFiresPerInterval(t *testing.T) {
	mem := &fakeMem{fetchLat: 2, readLat: 2, writeLat: 2}
	c := newTestCore(t, DefaultConfig(), mem, &listSource{})

	var samples []Stats
	const interval = 500
	c.SetSampler(interval, func(s Stats) { samples = append(samples, s) })
	st := c.Run(20000)

	if len(samples) == 0 {
		t.Fatal("sampler never fired")
	}
	want := st.Cycles / interval
	if uint64(len(samples)) > want+1 || uint64(len(samples))+1 < want {
		t.Fatalf("fired %d times over %d cycles, want about %d", len(samples), st.Cycles, want)
	}
	// Samples are cumulative and non-decreasing.
	for i := 1; i < len(samples); i++ {
		if samples[i].Cycles <= samples[i-1].Cycles {
			t.Fatalf("sample %d cycles %d not after %d", i, samples[i].Cycles, samples[i-1].Cycles)
		}
		if samples[i].Committed < samples[i-1].Committed {
			t.Fatalf("sample %d committed count went backwards", i)
		}
	}
	// Each firing lands on (or just past) an interval boundary.
	for i, s := range samples {
		if s.Cycles < interval {
			t.Fatalf("sample %d fired at cycle %d, before the first interval", i, s.Cycles)
		}
	}
}

func TestSamplerDisarm(t *testing.T) {
	mem := &fakeMem{fetchLat: 2, readLat: 2, writeLat: 2}
	c := newTestCore(t, DefaultConfig(), mem, &listSource{})
	fired := 0
	c.SetSampler(100, func(Stats) { fired++ })
	c.Run(2000)
	if fired == 0 {
		t.Fatal("sampler never fired while armed")
	}
	c.SetSampler(0, nil)
	before := fired
	c.Run(2000)
	if fired != before {
		t.Fatalf("sampler fired %d more times after disarm", fired-before)
	}
}

// Sampling must not perturb the simulation: the same core config and
// source produce identical stats with and without a sampler.
func TestSamplerDoesNotPerturb(t *testing.T) {
	run := func(sample bool) Stats {
		mem := &fakeMem{fetchLat: 2, readLat: 2, writeLat: 2}
		c := newTestCore(t, DefaultConfig(), mem, &listSource{})
		if sample {
			c.SetSampler(250, func(Stats) {})
		}
		return c.Run(10000)
	}
	a, b := run(false), run(true)
	if a != b {
		t.Fatalf("sampling changed the simulation:\nwithout: %+v\nwith:    %+v", a, b)
	}
}

func TestLSQOccupancyAccumulates(t *testing.T) {
	mem := &fakeMem{fetchLat: 2, readLat: 4, writeLat: 4}
	src := &listSource{}
	for i := 0; i < 256; i++ {
		src.insts = append(src.insts,
			trace.Inst{Op: trace.Load, Dep1: 2, Addr: uint64(i%512) * 64, PC: 0x100})
	}
	c := newTestCore(t, DefaultConfig(), mem, src)
	st := c.Run(4000)
	if st.LSQOccAccum == 0 {
		t.Fatal("LSQ occupancy never accumulated despite loads in flight")
	}
}
