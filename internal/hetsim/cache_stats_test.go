package hetsim

import (
	"math"
	"testing"

	"hetcore/internal/obs"
	"hetcore/internal/trace"
)

// TestRunCPUCacheStats pins the measured-region cache stats a CPU run
// exports for the traffic scheduler: the MPKI fields must agree with
// the miss counters the run pushes into the registry (the sum
// invariant), occupancies must be valid fractions, and the run record's
// Extra fields must carry the exact same values as the result fields.
func TestRunCPUCacheStats(t *testing.T) {
	cfg, _ := CPUConfigByName("BaseCMOS")
	prof, _ := trace.CPUWorkload("canneal")
	o := &obs.Observer{Metrics: obs.NewRegistry(), Records: &obs.RecordSink{}}
	opts := quickOpts
	opts.Obs = o
	r, err := RunCPU(cfg, prof, opts)
	if err != nil {
		t.Fatal(err)
	}

	// Sum invariant: MPKI re-derives from the registry miss counters,
	// which accumulate the same measured-region delta.
	snap := o.Reg().Snapshot()
	misses := func(level string) float64 {
		return float64(snap.Counters["cache."+level+".read_misses"] +
			snap.Counters["cache."+level+".write_misses"])
	}
	insts := float64(r.Instructions)
	for _, tc := range []struct {
		level string
		got   float64
	}{
		{"dl1", r.DL1MPKI},
		{"l2", r.L2MPKI},
		{"l3", r.L3MPKI},
	} {
		want := misses(tc.level) * 1000 / insts
		if math.Abs(tc.got-want) > 1e-9 {
			t.Errorf("%s MPKI = %v, registry counters give %v", tc.level, tc.got, want)
		}
	}
	if r.DL1MPKI <= 0 || r.L2MPKI <= 0 {
		t.Errorf("expected nonzero DL1/L2 MPKI, got %v / %v", r.DL1MPKI, r.L2MPKI)
	}

	// Occupancies are valid fractions, and a run that misses at all
	// must have touched its caches.
	for name, v := range map[string]float64{
		"l1d": r.DL1Occupancy, "l2": r.L2Occupancy, "l3": r.L3Occupancy,
	} {
		if v <= 0 || v > 1 {
			t.Errorf("%s occupancy %v out of (0, 1]", name, v)
		}
	}

	// The run record mirrors the result fields exactly.
	recs := o.Records.Records()
	if len(recs) != 1 {
		t.Fatalf("%d run records, want 1", len(recs))
	}
	for name, want := range map[string]float64{
		"l1d_mpki":      r.DL1MPKI,
		"l2_mpki":       r.L2MPKI,
		"l3_mpki":       r.L3MPKI,
		"l1d_occupancy": r.DL1Occupancy,
		"l2_occupancy":  r.L2Occupancy,
		"l3_occupancy":  r.L3Occupancy,
	} {
		if got, ok := recs[0].Extra[name]; !ok || got != want {
			t.Errorf("record extra %s = %v, want %v", name, got, want)
		}
	}
}

// TestHierarchyMissIdentity checks what the hierarchy implements on
// every CPU configuration: each L2 read miss is one L3 read and one
// directory read miss.
func TestHierarchyMissIdentity(t *testing.T) {
	workloads := []string{"barnes", "canneal", "fft", "radix"}
	for i, cfg := range CPUConfigs() {
		prof, err := trace.CPUWorkload(workloads[i%len(workloads)])
		if err != nil {
			t.Fatal(err)
		}
		o := &obs.Observer{Metrics: obs.NewRegistry()}
		opts := quickOpts
		opts.Obs = o
		if _, err := RunCPU(cfg, prof, opts); err != nil {
			t.Fatalf("%s/%s: %v", cfg.Name, prof.Name, err)
		}
		c := o.Reg().Snapshot().Counters
		l2, l3, dir := c["cache.l2.read_misses"], c["cache.l3.reads"], c["directory.read_misses"]
		if l2 == 0 || l2 != l3 || l2 != dir {
			t.Errorf("%s/%s: L2 read misses %d, L3 reads %d, directory read misses %d; want equal and nonzero",
				cfg.Name, prof.Name, l2, l3, dir)
		}
	}
}
