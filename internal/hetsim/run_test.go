package hetsim

import (
	"math"
	"testing"

	"hetcore/internal/energy"
	"hetcore/internal/gpu"
	"hetcore/internal/trace"
)

var quickOpts = RunOpts{TotalInstructions: 60_000, Seed: 1}

func TestRunCPUDeterministic(t *testing.T) {
	cfg, _ := CPUConfigByName("BaseCMOS")
	prof, _ := trace.CPUWorkload("barnes")
	a, err := RunCPU(cfg, prof, quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := RunCPU(cfg, prof, quickOpts)
	if a.Cycles != b.Cycles || a.Energy != b.Energy {
		t.Errorf("nondeterministic: %+v vs %+v", a, b)
	}
}

func TestRunCPUResultSanity(t *testing.T) {
	cfg, _ := CPUConfigByName("BaseCMOS")
	prof, _ := trace.CPUWorkload("lu")
	r, err := RunCPU(cfg, prof, quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	if r.Config != "BaseCMOS" || r.Workload != "lu" || r.Cores != 4 {
		t.Errorf("labels: %+v", r)
	}
	if r.Cycles == 0 || r.TimeSec <= 0 {
		t.Error("no time elapsed")
	}
	if r.Instructions < quickOpts.TotalInstructions {
		t.Errorf("committed %d < requested %d", r.Instructions, quickOpts.TotalInstructions)
	}
	if r.IPC <= 0 || r.IPC > 4 {
		t.Errorf("IPC %v out of range", r.IPC)
	}
	if r.DL1HitRate < 0.5 || r.DL1HitRate > 1 {
		t.Errorf("DL1 hit rate %v implausible", r.DL1HitRate)
	}
	if r.MispredictRate <= 0 || r.MispredictRate > 0.3 {
		t.Errorf("mispredict rate %v implausible", r.MispredictRate)
	}
	if r.Energy.Total() <= 0 {
		t.Error("no energy")
	}
	// ED/ED² identities.
	if math.Abs(r.ED()-r.Energy.Total()*r.TimeSec) > 1e-18 {
		t.Error("ED identity broken")
	}
	if math.Abs(r.ED2()-r.ED()*r.TimeSec) > 1e-24 {
		t.Error("ED2 identity broken")
	}
	// BaseCMOS has no asymmetric cache.
	if r.FastHitRate != 0 {
		t.Errorf("plain DL1 reported fast hit rate %v", r.FastHitRate)
	}
}

func TestRunCPUAsymReportsFastHits(t *testing.T) {
	cfg, _ := CPUConfigByName("AdvHet")
	prof, _ := trace.CPUWorkload("blackscholes")
	r, err := RunCPU(cfg, prof, quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: fast-way hit rate only 5-20% below the whole DL1's.
	if r.FastHitRate < 0.5 {
		t.Errorf("AdvHet fast hit rate %.3f too low", r.FastHitRate)
	}
	if r.FastHitRate > r.DL1HitRate {
		t.Errorf("fast hit rate %.3f exceeds DL1 hit rate %.3f", r.FastHitRate, r.DL1HitRate)
	}
}

func TestRunCPURejectsBadProfile(t *testing.T) {
	cfg, _ := CPUConfigByName("BaseCMOS")
	bad := trace.Profile{Name: "bad"}
	if _, err := RunCPU(cfg, bad, quickOpts); err == nil {
		t.Error("invalid profile accepted")
	}
}

func TestAdjustAssignDomains(t *testing.T) {
	cfg := CPUConfig{Assign: energy.AllCMOSAssign()}
	cfg.Assign.FPU = energy.TFETScale()
	cmosAdj := energy.Scale{Dyn: 2, Leak: 3}
	tfetAdj := energy.Scale{Dyn: 5, Leak: 7}
	out := cfg.Adjusted(cmosAdj, tfetAdj).Assign
	// CMOS-domain unit picks up the CMOS adjustment.
	if out.Core.Dyn != 2 || out.Core.Leak != 3 {
		t.Errorf("core adjust = %+v", out.Core)
	}
	// TFET-domain unit picks up the TFET adjustment.
	if math.Abs(out.FPU.Dyn-5.0/4) > 1e-12 || math.Abs(out.FPU.Leak-7.0/10) > 1e-12 {
		t.Errorf("FPU adjust = %+v", out.FPU)
	}
}

func TestRunGPUDeterministicAndSane(t *testing.T) {
	cfg, _ := GPUConfigByName("BaseCMOS")
	k, _ := gpu.KernelByName("Reduction")
	a, err := RunGPU(cfg, k, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := RunGPU(cfg, k, 3)
	if a != b {
		t.Error("GPU run nondeterministic")
	}
	if a.Cycles == 0 || a.TimeSec <= 0 || a.Energy.Total() <= 0 {
		t.Errorf("degenerate result: %+v", a)
	}
	if a.WaveInsts != uint64(k.Wavefronts*k.InstsPerWave) {
		t.Errorf("wave insts %d, want %d", a.WaveInsts, k.Wavefronts*k.InstsPerWave)
	}
	if a.RFCacheHitRate <= 0 {
		t.Error("BaseCMOS GPU has an RF cache; hit rate should be positive")
	}
}

// The serial fraction must shift work onto core 0 and stretch the
// multicore makespan.
func TestSerialFractionMatters(t *testing.T) {
	cfg, _ := CPUConfigByName("BaseCMOS")
	prof, _ := trace.CPUWorkload("lu")
	parallel := prof
	parallel.SerialFrac = 0
	serial := prof
	serial.SerialFrac = 0.3
	rp, err := RunCPU(cfg, parallel, quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := RunCPU(cfg, serial, quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Cycles <= rp.Cycles {
		t.Errorf("serial fraction did not stretch makespan: %d vs %d", rs.Cycles, rp.Cycles)
	}
}

// Voltage adjustments must scale energy but not timing.
func TestVoltageAdjustments(t *testing.T) {
	cfg, _ := CPUConfigByName("AdvHet")
	prof, _ := trace.CPUWorkload("fft")
	base, err := RunCPU(cfg, prof, quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	boosted := cfg.Adjusted(energy.Scale{Dyn: 1.2, Leak: 1.3}, energy.Scale{Dyn: 1.5, Leak: 1.6})
	rb, err := RunCPU(boosted, prof, quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	if rb.Cycles != base.Cycles {
		t.Error("voltage adjustment changed timing")
	}
	if rb.Energy.Total() <= base.Energy.Total() {
		t.Error("voltage raise did not increase energy")
	}
}
