package energy

import "fmt"

// Fixed-function accelerator energy model, after the lumos ASAcc u-core
// model (Chung et al., "Single-Chip Heterogeneous Computing: Does the
// Future Include Custom Logic, FPGAs, and GPGPUs?", MICRO'10): an
// application-specific accelerator is characterised per kernel by its
// throughput per unit area and its energy advantage over a programmable
// device, and per technology by the same scaling factors the rest of
// the evaluation uses. Here the reference programmable device is the
// paper's AdvHet GPU — the accelerator entries are expressed relative
// to a measured AdvHet kernel run, so the absolute numbers inherit the
// GPU model's calibration instead of introducing a second one.
//
// Two builds exist for every entry, selected by AccelScale: a Si-CMOS
// build (identity scaling) and an all-TFET build with the evaluation's
// conservative factors (4x lower dynamic energy, 10x lower leakage —
// Section VI). Because a fixed-function unit has low activity whenever
// its kernel is not running, leakage dominates its idle cost, which is
// exactly the regime HetCore argues TFET wins.

// AccelEntry characterises one kernel's ASIC accelerator at 15 nm,
// relative to the AdvHet GPU running the same kernel.
type AccelEntry struct {
	// Kernel names the GPU kernel (gpu.KernelByName) the ASIC implements.
	Kernel string
	// PerfPerUnit is the throughput of one 1 mm² accelerator unit in
	// AdvHet-GPU-CU equivalents. Regular, compute-dense kernels map well
	// onto fixed datapaths (several CUs' worth of throughput per unit);
	// divergent or scatter-heavy kernels barely beat the CU they replace.
	PerfPerUnit float64
	// DynGain is the per-operation dynamic-energy advantage over the
	// GPU: accelerator J/op = GPU J/op ÷ DynGain (CMOS build).
	DynGain float64
}

// accelTable covers every kernel in the GPU catalog. The per-kernel
// spread follows Chung et al.'s observation that custom-logic gains
// track kernel regularity: dense linear algebra and stencils gain
// 20-30x in energy with several CU-equivalents per mm², while
// divergent search/scatter kernels gain well under 10x.
var accelTable = []AccelEntry{
	{Kernel: "BinarySearch", PerfPerUnit: 1.0, DynGain: 6},
	{Kernel: "BitonicSort", PerfPerUnit: 2.0, DynGain: 12},
	{Kernel: "DCT", PerfPerUnit: 3.5, DynGain: 25},
	{Kernel: "DwtHaar1D", PerfPerUnit: 3.0, DynGain: 20},
	{Kernel: "FloydWarshall", PerfPerUnit: 1.5, DynGain: 10},
	{Kernel: "Histogram", PerfPerUnit: 1.0, DynGain: 6},
	{Kernel: "MatrixMultiplication", PerfPerUnit: 4.0, DynGain: 30},
	{Kernel: "MatrixTranspose", PerfPerUnit: 1.2, DynGain: 8},
	{Kernel: "PrefixSum", PerfPerUnit: 2.5, DynGain: 15},
	{Kernel: "Reduction", PerfPerUnit: 2.5, DynGain: 15},
	{Kernel: "FastWalshTransform", PerfPerUnit: 2.5, DynGain: 18},
	{Kernel: "MersenneTwister", PerfPerUnit: 3.0, DynGain: 25},
	{Kernel: "MonteCarloAsian", PerfPerUnit: 3.5, DynGain: 25},
	{Kernel: "QuasiRandomSequence", PerfPerUnit: 3.0, DynGain: 22},
	{Kernel: "RadixSort", PerfPerUnit: 1.2, DynGain: 8},
	{Kernel: "ScanLargeArrays", PerfPerUnit: 2.0, DynGain: 12},
	{Kernel: "SimpleConvolution", PerfPerUnit: 3.0, DynGain: 22},
	{Kernel: "SobelFilter", PerfPerUnit: 3.0, DynGain: 20},
	{Kernel: "URNG", PerfPerUnit: 1.5, DynGain: 10},
}

// AccelUnitLeakMW is the leakage power of one CMOS accelerator unit
// (datapath plus local SRAM buffers in 1 mm²). The TFET build divides
// it by the standard 10x leakage factor via AccelScale.
const AccelUnitLeakMW = 25.0

// AccelEntryFor returns the accelerator characteristics for one kernel.
func AccelEntryFor(kernel string) (AccelEntry, error) {
	for _, e := range accelTable {
		if e.Kernel == kernel {
			return e, nil
		}
	}
	return AccelEntry{}, fmt.Errorf("energy: no accelerator entry for kernel %q", kernel)
}

// AccelScale returns the build-technology scaling for an accelerator:
// identity for Si-CMOS, the evaluation's conservative TFET factors
// (4x dynamic, 10x leakage) for an all-TFET build.
func AccelScale(tfet bool) Scale {
	if tfet {
		return TFETScale()
	}
	return CMOSScale()
}
