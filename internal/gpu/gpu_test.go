package gpu

import (
	"testing"
	"testing/quick"
)

func smallKernel() Kernel {
	return Kernel{
		Name: "test", Wavefronts: 32, InstsPerWave: 400,
		FMAFrac: 0.4, MemFrac: 0.2, DepProb: 0.5, RegReuse: 0.4,
		Divergence: 1, WorkingSetBytes: 1 << 20, StreamFrac: 0.2,
	}
}

func TestConfigValidation(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := DefaultConfig()
	bad.CUs = 0
	if bad.Validate() == nil {
		t.Error("zero CUs accepted")
	}
	bad = DefaultConfig()
	bad.RFCache = true
	bad.RFCacheEntries = 0
	if bad.Validate() == nil {
		t.Error("zero RF cache entries accepted")
	}
	bad = DefaultConfig()
	bad.FreqGHz = 0
	if bad.Validate() == nil {
		t.Error("zero frequency accepted")
	}
	for _, c := range []int{0, -50} {
		bad = DefaultConfig()
		bad.DRAMCycles = c
		if bad.Validate() == nil {
			t.Errorf("DRAM round trip of %d cycles accepted", c)
		}
	}
}

func TestKernelSuite(t *testing.T) {
	ks := Kernels()
	if len(ks) != 19 {
		t.Fatalf("suite has %d kernels, want 19", len(ks))
	}
	for _, k := range ks {
		if err := k.Validate(); err != nil {
			t.Errorf("%s: %v", k.Name, err)
		}
	}
	if _, err := KernelByName("MatrixMultiplication"); err != nil {
		t.Error(err)
	}
	if _, err := KernelByName("Quake"); err == nil {
		t.Error("unknown kernel accepted")
	}
}

func TestKernelValidation(t *testing.T) {
	k := smallKernel()
	k.Divergence = 0
	if k.Validate() == nil {
		t.Error("zero divergence accepted")
	}
	k = smallKernel()
	k.FMAFrac, k.MemFrac = 0.8, 0.5
	if k.Validate() == nil {
		t.Error("mix over 1 accepted")
	}
	k = smallKernel()
	k.Wavefronts = 0
	if k.Validate() == nil {
		t.Error("no work accepted")
	}
}

func TestDeviceRunsToCompletion(t *testing.T) {
	d, err := NewDevice(DefaultConfig(), smallKernel(), 1)
	if err != nil {
		t.Fatal(err)
	}
	s := d.Run()
	want := uint64(32 * 400)
	if s.WaveInsts != want {
		t.Errorf("executed %d wave-instructions, want %d", s.WaveInsts, want)
	}
	if s.Cycles == 0 {
		t.Error("no cycles elapsed")
	}
	if s.FMAOps == 0 || s.MemOps == 0 || s.ScalarOps == 0 {
		t.Errorf("op mix empty: %+v", s)
	}
	if s.FMAOps+s.MemOps+s.ScalarOps != s.WaveInsts {
		t.Error("op classes do not sum to total")
	}
}

func TestDeviceDeterministic(t *testing.T) {
	run := func() Stats {
		d, _ := NewDevice(DefaultConfig(), smallKernel(), 7)
		return d.Run()
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("nondeterministic: %+v vs %+v", a, b)
	}
}

// TFET FMA and RF latencies slow the kernel down, but far less than 2x —
// wavefront interleaving hides most of it (the BaseHet GPU effect).
func TestTFETLatencyTolerance(t *testing.T) {
	base := DefaultConfig()
	base.RFCache = false
	tfet := base
	tfet.FMALat, tfet.RFLat = 6, 2

	db, _ := NewDevice(base, smallKernel(), 3)
	dt, _ := NewDevice(tfet, smallKernel(), 3)
	cb, ct := db.Run().Cycles, dt.Run().Cycles
	if ct <= cb {
		t.Fatalf("TFET units not slower: %d vs %d cycles", ct, cb)
	}
	slowdown := float64(ct) / float64(cb)
	if slowdown > 1.9 {
		t.Errorf("TFET slowdown %.2fx — latency hiding not working", slowdown)
	}
}

// The register file cache recovers part of the TFET RF latency loss
// (Section IV-C3: up to 70% of the RF-induced loss).
func TestRFCacheRecoversPerformance(t *testing.T) {
	noCache := DefaultConfig()
	noCache.FMALat, noCache.RFLat = 6, 2
	noCache.RFCache = false
	withCache := noCache
	withCache.RFCache = true
	withCache.RFCacheEntries, withCache.RFCacheLat = 6, 1

	k := smallKernel()
	k.RegReuse = 0.6 // reuse-friendly kernel
	dn, _ := NewDevice(noCache, k, 5)
	dc, _ := NewDevice(withCache, k, 5)
	sn, sc := dn.Run(), dc.Run()
	if sc.Cycles >= sn.Cycles {
		t.Errorf("RF cache did not help: %d vs %d cycles", sc.Cycles, sn.Cycles)
	}
	if sc.RFCacheHitRate() < 0.2 {
		t.Errorf("RF cache hit rate %.3f too low", sc.RFCacheHitRate())
	}
}

// Doubling the CU count roughly halves execution time when there are
// plenty of wavefronts (the AdvHet-2X scenario).
func TestCUScaling(t *testing.T) {
	k := smallKernel()
	k.Wavefronts = 512
	c8 := DefaultConfig()
	c16 := DefaultConfig()
	c16.CUs = 16
	d8, _ := NewDevice(c8, k, 11)
	d16, _ := NewDevice(c16, k, 11)
	t8, t16 := d8.Run().Cycles, d16.Run().Cycles
	speedup := float64(t8) / float64(t16)
	if speedup < 1.6 || speedup > 2.2 {
		t.Errorf("16-CU speedup %.2fx, want ≈2x", speedup)
	}
}

// Memory divergence increases memory latency and cache pressure.
func TestDivergenceHurts(t *testing.T) {
	k1 := smallKernel()
	k1.MemFrac = 0.4
	k16 := k1
	k16.Divergence = 16
	d1, _ := NewDevice(DefaultConfig(), k1, 2)
	d16, _ := NewDevice(DefaultConfig(), k16, 2)
	c1, c16cyc := d1.Run().Cycles, d16.Run().Cycles
	if c16cyc <= c1 {
		t.Errorf("divergent kernel not slower: %d vs %d", c16cyc, c1)
	}
}

func TestStatsTimeAndHitRate(t *testing.T) {
	d, _ := NewDevice(DefaultConfig(), smallKernel(), 1)
	s := d.Run()
	if s.TimeNS(1.0) != float64(s.Cycles) {
		t.Error("TimeNS at 1GHz should equal cycles")
	}
	if s.TimeNS(0.5) != 2*float64(s.Cycles) {
		t.Error("TimeNS at 0.5GHz should double")
	}
	if s.VL1Reads == 0 {
		t.Error("no VL1 activity")
	}
	if (Stats{}).RFCacheHitRate() != 0 {
		t.Error("empty hit rate should be 0")
	}
}

func TestNewDeviceRejectsBadInput(t *testing.T) {
	bad := DefaultConfig()
	bad.VL1Size = 0
	if _, err := NewDevice(bad, smallKernel(), 1); err == nil {
		t.Error("bad config accepted")
	}
	k := smallKernel()
	k.InstsPerWave = 0
	if _, err := NewDevice(DefaultConfig(), k, 1); err == nil {
		t.Error("bad kernel accepted")
	}
}

// The partitioned register file (Pilot RF [59]) recovers part of the TFET
// RF loss like the RF cache does, by serving low-numbered (hot) registers
// from a CMOS fast partition.
func TestPartitionedRFRecoversPerformance(t *testing.T) {
	slow := DefaultConfig()
	slow.FMALat, slow.RFLat = 6, 2
	slow.RFCache = false
	part := slow
	part.PartitionedRF = true
	part.PartFastRegs, part.PartFastLat = 32, 1

	k := smallKernel()
	ds, _ := NewDevice(slow, k, 5)
	dp, _ := NewDevice(part, k, 5)
	cs, cp := ds.Run().Cycles, dp.Run().Cycles
	if cp >= cs {
		t.Errorf("partitioned RF did not help: %d vs %d cycles", cp, cs)
	}
}

func TestPartitionedRFValidation(t *testing.T) {
	bad := DefaultConfig()
	bad.PartitionedRF = true
	bad.PartFastRegs = 0
	if bad.Validate() == nil {
		t.Error("zero fast partition accepted")
	}
	bad.PartFastRegs = 300
	bad.PartFastLat = 1
	if bad.Validate() == nil {
		t.Error("oversized fast partition accepted")
	}
}

// Property: arbitrary valid kernel parameters always run to completion
// with consistent statistics, on both CMOS and TFET configurations.
func TestDeviceCompletionProperty(t *testing.T) {
	f := func(seed uint64, fmaQ, memQ, depQ, divQ uint8) bool {
		fma := float64(fmaQ%60) / 100
		mem := float64(memQ%40) / 100
		k := Kernel{
			Name: "prop", Wavefronts: 24, InstsPerWave: 300,
			FMAFrac: fma, MemFrac: mem,
			DepProb: float64(depQ%100) / 100, RegReuse: 0.4,
			Divergence: 1 + int(divQ%16), WorkingSetBytes: 1 << 20,
			StreamFrac: 0.2,
		}
		if k.Validate() != nil {
			return true
		}
		for _, tfet := range []bool{false, true} {
			cfg := DefaultConfig()
			if tfet {
				cfg.FMALat, cfg.RFLat = 6, 2
				cfg.RFCache = false
			}
			d, err := NewDevice(cfg, k, seed)
			if err != nil {
				return false
			}
			s := d.Run()
			if s.WaveInsts != uint64(k.Wavefronts*k.InstsPerWave) {
				return false
			}
			if s.FMAOps+s.MemOps+s.ScalarOps != s.WaveInsts {
				return false
			}
			if s.RFWrites != s.WaveInsts {
				return false
			}
			if s.Cycles == 0 || s.Cycles > s.WaveInsts*80 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// The compiler-scheduling transform (future work in the paper) reduces
// dependency density and recovers part of the BaseHet GPU loss.
func TestCompilerSchedulingRecovers(t *testing.T) {
	het := DefaultConfig()
	het.FMALat, het.RFLat = 6, 2
	het.RFCache = false

	k := smallKernel()
	k.DepProb = 0.7
	sched, err := k.CompilerScheduled(0.4)
	if err != nil {
		t.Fatal(err)
	}
	if sched.DepProb >= k.DepProb {
		t.Fatal("scheduling did not reduce dependency density")
	}
	d1, _ := NewDevice(het, k, 4)
	d2, _ := NewDevice(het, sched, 4)
	c1, c2 := d1.Run().Cycles, d2.Run().Cycles
	if c2 >= c1 {
		t.Errorf("scheduled kernel not faster: %d vs %d cycles", c2, c1)
	}

	if _, err := k.CompilerScheduled(1.5); err == nil {
		t.Error("out-of-range reduction accepted")
	}
}
