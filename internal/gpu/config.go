// Package gpu implements the cycle-level GPU model of the HetCore
// evaluation: an AMD Southern-Islands-style device (Table III) with 8
// compute units of 16 execution units each, SIMD FMA pipelines, a large
// banked vector register file (256 registers per thread), and the AdvHet
// register-file cache (6 entries per thread, caching written registers —
// Section IV-C3).
//
// Wavefronts (64 threads) issue in order; a compute unit hides latency by
// switching among resident wavefronts each cycle — exactly the mechanism
// that lets HetCore GPUs tolerate the doubled latencies of TFET FMA units
// and register files.
package gpu

import "fmt"

// Config describes one GPU configuration.
type Config struct {
	// CUs is the number of compute units (8 baseline, 16 for
	// AdvHet-2X).
	CUs int
	// EUsPerCU is the number of execution units (SIMD lanes groups) per
	// CU; with 64-thread wavefronts and 16 EUs a wavefront occupies its
	// pipeline for 4 beats.
	EUsPerCU int
	// MaxWavesPerCU bounds resident wavefronts per CU.
	MaxWavesPerCU int
	// IssuePerCycle is how many wavefronts may issue an instruction per
	// cycle per CU.
	IssuePerCycle int

	// FMALat is the SIMD FMA pipeline latency (3 CMOS / 6 TFET).
	FMALat int
	// RFLat is the vector register file access latency (1 CMOS /
	// 2 TFET).
	RFLat int

	// RFCache enables the register file cache (6 entries/thread,
	// 1-cycle access). Writes allocate; reads hit if the register was
	// written within the last RFCacheEntries distinct writes.
	RFCache        bool
	RFCacheEntries int
	RFCacheLat     int

	// PartitionedRF enables the alternative the paper's related work
	// suggests adapting (Pilot Register File [59]): a fast partition of
	// PartFastRegs low-numbered registers at PartFastLat (CMOS), with
	// the remaining registers in the slow (TFET) partition at RFLat.
	// Compilers allocate hot values to low register ids, which the
	// kernel model reflects by skewing register ids downward.
	PartitionedRF bool
	PartFastRegs  int
	PartFastLat   int

	// Memory system round trips in cycles: per-CU vector L1, shared L2,
	// and DRAM (beyond the L2), whatever the clock, as in the CPU
	// hierarchy.
	VL1Size, VL1Ways, VL1RT int
	L2Size, L2Ways, L2RT    int
	DRAMCycles              int
	LineSize                int

	// FreqGHz is the GPU clock (1.0 for CMOS-clocked designs, 0.5 for
	// the all-TFET BaseTFET).
	FreqGHz float64
}

// DefaultConfig returns the Table III BaseCMOS GPU (with the register file
// cache, which the paper includes in the baseline for fairness).
func DefaultConfig() Config {
	return Config{
		CUs: 8, EUsPerCU: 16, MaxWavesPerCU: 6, IssuePerCycle: 4,
		FMALat: 3, RFLat: 1,
		RFCache: true, RFCacheEntries: 6, RFCacheLat: 1,
		VL1Size: 16 * 1024, VL1Ways: 4, VL1RT: 4,
		L2Size: 512 * 1024, L2Ways: 16, L2RT: 20,
		DRAMCycles: 50, LineSize: 64,
		FreqGHz: 1.0,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.CUs <= 0 || c.EUsPerCU <= 0 || c.MaxWavesPerCU <= 0 || c.IssuePerCycle <= 0 {
		return fmt.Errorf("gpu: non-positive compute geometry")
	}
	if c.FMALat <= 0 || c.RFLat <= 0 {
		return fmt.Errorf("gpu: non-positive unit latency")
	}
	if c.RFCache && (c.RFCacheEntries <= 0 || c.RFCacheLat <= 0) {
		return fmt.Errorf("gpu: register file cache misconfigured")
	}
	if c.PartitionedRF && (c.PartFastRegs <= 0 || c.PartFastRegs > 256 || c.PartFastLat <= 0) {
		return fmt.Errorf("gpu: partitioned register file misconfigured")
	}
	if c.VL1Size <= 0 || c.L2Size <= 0 || c.LineSize <= 0 {
		return fmt.Errorf("gpu: non-positive cache size")
	}
	if c.VL1RT <= 0 || c.L2RT <= 0 || c.DRAMCycles <= 0 {
		return fmt.Errorf("gpu: non-positive memory latency")
	}
	if c.FreqGHz <= 0 {
		return fmt.Errorf("gpu: non-positive frequency")
	}
	return nil
}

// WavefrontSize is the SIMT width of Southern Islands.
const WavefrontSize = 64

// Stats aggregates device activity for the energy model.
type Stats struct {
	Cycles    uint64
	WaveInsts uint64 // wavefront-instructions executed
	// Per-class wavefront-instruction counts.
	FMAOps, MemOps, ScalarOps uint64

	// Vector RF activity in register-operand accesses (per wavefront
	// instruction, scaled by operand count; each touches 64 threads'
	// registers).
	RFReads, RFWrites uint64
	// RFCacheHits counts reads served by the register file cache.
	RFCacheHits   uint64
	RFCacheWrites uint64

	// Memory system.
	VL1Reads, VL1Misses uint64
	L2Reads, L2Misses   uint64
	DRAMAccesses        uint64

	// Attr is the top-down cycle attribution: every device cycle is
	// binned into exactly one bucket, so Attr.Total() == Cycles.
	Attr CycleAttr
}

// CycleAttr bins every device cycle into one top-down bucket.
type CycleAttr struct {
	// SIMDBusy: at least one wavefront issued somewhere on the device.
	SIMDBusy uint64 `json:"simd_busy"`
	// MemWait: every CU is blocked behind an outstanding memory result
	// or the memory pipeline's divergence occupancy.
	MemWait uint64 `json:"mem_wait"`
	// RFConflict: blocked on multi-cycle register-file port occupancy
	// (the slow-TFET-RF effect the RF cache recovers).
	RFConflict uint64 `json:"rf_bank_conflict"`
	// SchedIdle: no wavefront ready — execute-latency dependencies,
	// pipeline-beat occupancy, or end-of-kernel drain.
	SchedIdle uint64 `json:"scheduler_idle"`
}

// Total returns the number of attributed cycles.
func (a CycleAttr) Total() uint64 {
	return a.SIMDBusy + a.MemWait + a.RFConflict + a.SchedIdle
}

// Map returns the buckets keyed by their run-record names.
func (a CycleAttr) Map() map[string]uint64 {
	return map[string]uint64{
		"simd_busy":        a.SIMDBusy,
		"mem_wait":         a.MemWait,
		"rf_bank_conflict": a.RFConflict,
		"scheduler_idle":   a.SchedIdle,
	}
}

// TimeNS returns execution time in nanoseconds at the given clock.
func (s Stats) TimeNS(freqGHz float64) float64 {
	return float64(s.Cycles) / freqGHz
}

// RFCacheHitRate returns the fraction of RF reads served by the cache.
func (s Stats) RFCacheHitRate() float64 {
	if s.RFReads == 0 {
		return 0
	}
	return float64(s.RFCacheHits) / float64(s.RFReads)
}
