package cpu

import "testing"

// TestStepAllocatesNothing: with telemetry disarmed (the default),
// stepping the core must not allocate; the hot loop's only interval
// hook is the sentinel-guarded sampler.
func TestStepAllocatesNothing(t *testing.T) {
	mem := &fakeMem{fetchLat: 2, readLat: 2, writeLat: 2}
	c := newTestCore(t, DefaultConfig(), mem, &listSource{})
	c.Run(2000) // warm the lookahead and window
	allocs := testing.AllocsPerRun(20, func() { c.Run(500) })
	if allocs != 0 {
		t.Errorf("disarmed core allocates %v objects per 500-instruction run, want 0", allocs)
	}
}
