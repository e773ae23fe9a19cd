package trace

import (
	"fmt"
	"sort"
)

// Profile is the statistical characterisation of one application. Each
// profile stands in for one SPLASH-2 or PARSEC benchmark of the paper's
// CPU evaluation (Section VI-B), capturing the first-order properties that
// drive the HetCore results: floating-point intensity (FPU pressure),
// dependency distances (how well deeper pipelines are tolerated), working
// sets (DL1/L2/L3 hit rates), branch behaviour (mispredict penalty
// exposure) and parallel scalability (for the fixed-power-budget runs).
type Profile struct {
	// Name is the benchmark name as used in the paper.
	Name string

	// Mix holds relative weights per op class; it is normalised at
	// generator construction. Branch weight is Mix[Branch], etc.
	Mix [numOps]float64

	// MeanDep is the mean register-dependency distance in dynamic
	// instructions — the ILP proxy. Low values mean tight dependency
	// chains that suffer from the longer TFET unit latencies.
	MeanDep float64
	// TwoSrcProb is the probability an instruction carries a second
	// register dependency.
	TwoSrcProb float64
	// LoadDepBias is the probability that an instruction's first
	// dependency points at the most recent load rather than a
	// geometric-distance producer — the load-use chains that make DL1
	// latency critical in real code.
	LoadDepBias float64
	// FPDepScale (>= 1) multiplies MeanDep for floating-point
	// instructions' geometric dependencies: FP-intensive code exhibits
	// high ILP (Section IV-B1), which is what lets deeper-pipelined
	// TFET FPUs stay occupied.
	FPDepScale float64

	// RepeatFrac is the probability a memory access re-touches one of
	// the last few accessed cache lines (spatial/temporal locality:
	// stack slots, struct fields, sequential element access). These
	// accesses are what the asymmetric DL1's MRU fast way captures.
	RepeatFrac float64

	// Working-set model: each memory access falls in the hot, mid or
	// large region or in a streaming region (sequential walk). The
	// remaining probability mass (1 - Hot - Mid - Large) streams. Hot
	// accesses are skewed toward low addresses (product of HotSkew
	// uniforms), modelling the strong temporal/MRU locality of real
	// programs — the property the AdvHet asymmetric DL1 exploits.
	HotFrac, MidFrac, LargeFrac float64
	// HotSkew >= 1: number of uniform factors multiplied to draw a hot
	// offset. 1 = uniform; 3 concentrates ≈84% of accesses in the first
	// quarter of the region.
	HotSkew int
	// Region sizes in bytes. Hot is sized to (mostly) fit DL1, Mid to
	// fit L2, Large to fit (or exceed) L3.
	HotBytes, MidBytes, LargeBytes uint64

	// CodeBytes is the hot code footprint, which determines IL1
	// behaviour.
	CodeBytes uint64

	// Branch-site population: fractions of biased, loop and random
	// sites (fractions of the *site population*; remaining sites are
	// random). BiasedTakenProb is the taken probability of biased
	// sites; LoopPeriod the mean loop trip count of loop sites.
	BiasedFrac, LoopFrac float64
	BiasedTakenProb      float64
	LoopPeriod           int

	// SharedFrac is the fraction of hot-region accesses that touch data
	// shared across all cores (drives MESI traffic in multicore runs).
	SharedFrac float64
	// SerialFrac is the Amdahl serial fraction: in an N-core run, this
	// share of the total work executes only on core 0.
	SerialFrac float64
}

// maxLoopPeriod bounds LoopPeriod so loop-site periods (< 2·LoopPeriod)
// fit the generator's int32 site state.
const maxLoopPeriod = 1 << 20

// Validate checks internal consistency; generators call it on
// construction.
func (p Profile) Validate() error {
	var sum float64
	for _, w := range p.Mix {
		if w < 0 {
			return fmt.Errorf("trace: profile %q has negative mix weight", p.Name)
		}
		sum += w
	}
	if sum <= 0 {
		return fmt.Errorf("trace: profile %q has empty instruction mix", p.Name)
	}
	if p.MeanDep < 1 {
		return fmt.Errorf("trace: profile %q MeanDep %v < 1", p.Name, p.MeanDep)
	}
	if f := p.HotFrac + p.MidFrac + p.LargeFrac; f < 0 || f > 1 {
		return fmt.Errorf("trace: profile %q region fractions sum to %v", p.Name, f)
	}
	if p.HotBytes == 0 || p.MidBytes == 0 || p.LargeBytes == 0 || p.CodeBytes == 0 {
		return fmt.Errorf("trace: profile %q has a zero-sized region", p.Name)
	}
	// Taken branches jump to a 64-byte block of the code region, and the
	// region must not run into the next core's.
	if p.CodeBytes < 64 || p.CodeBytes > coreStride {
		return fmt.Errorf("trace: profile %q CodeBytes %d outside [64, %d]", p.Name, p.CodeBytes, coreStride)
	}
	if p.HotSkew < 1 {
		return fmt.Errorf("trace: profile %q HotSkew %d < 1", p.Name, p.HotSkew)
	}
	if f := p.BiasedFrac + p.LoopFrac; f < 0 || f > 1 {
		return fmt.Errorf("trace: profile %q branch site fractions sum to %v", p.Name, f)
	}
	if p.BiasedTakenProb < 0 || p.BiasedTakenProb > 1 {
		return fmt.Errorf("trace: profile %q BiasedTakenProb %v", p.Name, p.BiasedTakenProb)
	}
	if p.LoopPeriod < 2 || p.LoopPeriod > maxLoopPeriod {
		return fmt.Errorf("trace: profile %q LoopPeriod %d outside [2, %d]", p.Name, p.LoopPeriod, maxLoopPeriod)
	}
	if p.SharedFrac < 0 || p.SharedFrac > 1 || p.SerialFrac < 0 || p.SerialFrac >= 1 {
		return fmt.Errorf("trace: profile %q sharing/serial fractions out of range", p.Name)
	}
	if p.LoadDepBias < 0 || p.LoadDepBias > 1 {
		return fmt.Errorf("trace: profile %q LoadDepBias %v out of [0,1]", p.Name, p.LoadDepBias)
	}
	if p.FPDepScale < 1 {
		return fmt.Errorf("trace: profile %q FPDepScale %v < 1", p.Name, p.FPDepScale)
	}
	if p.RepeatFrac < 0 || p.RepeatFrac > 1 {
		return fmt.Errorf("trace: profile %q RepeatFrac %v out of [0,1]", p.Name, p.RepeatFrac)
	}
	return nil
}

// FPFraction returns the fraction of instructions that execute on
// floating-point units.
func (p Profile) FPFraction() float64 {
	var sum, fp float64
	for op, w := range p.Mix {
		sum += w
		if Op(op).IsFP() {
			fp += w
		}
	}
	return fp / sum
}

const (
	kb = 1024
	mb = 1024 * 1024
)

// mix builds a Mix array from per-class weights (in percent; they need not
// sum to 100 — normalisation happens later).
func mix(alu, imul, idiv, fadd, fmul, fdiv, ld, st, br float64) [numOps]float64 {
	return [numOps]float64{
		IntALU: alu, IntMul: imul, IntDiv: idiv,
		FPAdd: fadd, FPMul: fmul, FPDiv: fdiv,
		Load: ld, Store: st, Branch: br,
	}
}

// cpuProfiles characterises the ten SPLASH-2 and four PARSEC applications
// used in Section VI-B. The parameters encode the community's common
// understanding of each benchmark (FP intensity, working set, branchiness)
// rather than measurements of the exact inputs, which are unavailable.
var cpuProfiles = []Profile{
	{
		Name: "barnes", Mix: mix(25, 1, 0, 12, 15, 3, 25, 8, 11),
		MeanDep: 4.5, TwoSrcProb: 0.55, LoadDepBias: 0.55, FPDepScale: 3.0,
		RepeatFrac: 0.5,
		HotFrac:    0.955, MidFrac: 0.025, LargeFrac: 0.004, HotSkew: 3,
		HotBytes: 16 * kb, MidBytes: 160 * kb, LargeBytes: 512 * kb,
		CodeBytes:  16 * kb,
		BiasedFrac: 0.86, LoopFrac: 0.11, BiasedTakenProb: 0.975, LoopPeriod: 12,
		SharedFrac: 0.013, SerialFrac: 0.015,
	},
	{
		Name: "cholesky", Mix: mix(24, 2, 0, 14, 18, 3, 22, 10, 7),
		MeanDep: 5.5, TwoSrcProb: 0.60, LoadDepBias: 0.55, FPDepScale: 3.0,
		RepeatFrac: 0.5,
		HotFrac:    0.962, MidFrac: 0.02, LargeFrac: 0.004, HotSkew: 3,
		HotBytes: 20 * kb, MidBytes: 192 * kb, LargeBytes: 512 * kb,
		CodeBytes:  12 * kb,
		BiasedFrac: 0.88, LoopFrac: 0.1, BiasedTakenProb: 0.98, LoopPeriod: 16,
		SharedFrac: 0.015, SerialFrac: 0.025,
	},
	{
		Name: "fft", Mix: mix(18, 1, 0, 16, 20, 1, 24, 12, 8),
		MeanDep: 7.0, TwoSrcProb: 0.65, LoadDepBias: 0.5, FPDepScale: 3.5,
		RepeatFrac: 0.45,
		HotFrac:    0.935, MidFrac: 0.03, LargeFrac: 0.01, HotSkew: 3,
		HotBytes: 24 * kb, MidBytes: 224 * kb, LargeBytes: 768 * kb,
		CodeBytes:  8 * kb,
		BiasedFrac: 0.92, LoopFrac: 0.07, BiasedTakenProb: 0.985, LoopPeriod: 20,
		SharedFrac: 0.007, SerialFrac: 0.01,
	},
	{
		Name: "fmm", Mix: mix(20, 1, 0, 16, 20, 4, 22, 8, 9),
		MeanDep: 5.0, TwoSrcProb: 0.60, LoadDepBias: 0.55, FPDepScale: 3.0,
		RepeatFrac: 0.5,
		HotFrac:    0.952, MidFrac: 0.025, LargeFrac: 0.004, HotSkew: 3,
		HotBytes: 16 * kb, MidBytes: 160 * kb, LargeBytes: 512 * kb,
		CodeBytes:  20 * kb,
		BiasedFrac: 0.87, LoopFrac: 0.11, BiasedTakenProb: 0.975, LoopPeriod: 10,
		SharedFrac: 0.013, SerialFrac: 0.0175,
	},
	{
		Name: "lu", Mix: mix(16, 1, 0, 17, 24, 1, 24, 10, 7),
		MeanDep: 8.0, TwoSrcProb: 0.70, LoadDepBias: 0.55, FPDepScale: 3.5,
		RepeatFrac: 0.55,
		HotFrac:    0.972, MidFrac: 0.015, LargeFrac: 0.003, HotSkew: 3,
		HotBytes: 24 * kb, MidBytes: 224 * kb, LargeBytes: 384 * kb,
		CodeBytes:  6 * kb,
		BiasedFrac: 0.92, LoopFrac: 0.07, BiasedTakenProb: 0.99, LoopPeriod: 24,
		SharedFrac: 0.005, SerialFrac: 0.0075,
	},
	{
		Name: "radiosity", Mix: mix(24, 1, 0, 11, 12, 2, 26, 10, 14),
		MeanDep: 3.8, TwoSrcProb: 0.50, LoadDepBias: 0.6, FPDepScale: 2.5,
		RepeatFrac: 0.5,
		HotFrac:    0.943, MidFrac: 0.03, LargeFrac: 0.007, HotSkew: 2,
		HotBytes: 16 * kb, MidBytes: 192 * kb, LargeBytes: 640 * kb,
		CodeBytes:  28 * kb,
		BiasedFrac: 0.83, LoopFrac: 0.12, BiasedTakenProb: 0.96, LoopPeriod: 8,
		SharedFrac: 0.02, SerialFrac: 0.0225,
	},
	{
		Name: "radix", Mix: mix(44, 4, 0, 0, 0, 0, 28, 14, 10),
		MeanDep: 5.0, TwoSrcProb: 0.50, LoadDepBias: 0.6, FPDepScale: 1.5,
		RepeatFrac: 0.45,
		HotFrac:    0.87, MidFrac: 0.04, LargeFrac: 0.03, HotSkew: 2,
		HotBytes: 16 * kb, MidBytes: 128 * kb, LargeBytes: 2 * mb,
		CodeBytes:  4 * kb,
		BiasedFrac: 0.94, LoopFrac: 0.05, BiasedTakenProb: 0.985, LoopPeriod: 32,
		SharedFrac: 0.007, SerialFrac: 0.0175,
	},
	{
		Name: "raytrace", Mix: mix(22, 1, 0, 12, 14, 4, 28, 6, 13),
		MeanDep: 3.5, TwoSrcProb: 0.50, LoadDepBias: 0.65, FPDepScale: 2.5,
		RepeatFrac: 0.55,
		HotFrac:    0.925, MidFrac: 0.035, LargeFrac: 0.01, HotSkew: 2,
		HotBytes: 16 * kb, MidBytes: 192 * kb, LargeBytes: 768 * kb,
		CodeBytes:  32 * kb,
		BiasedFrac: 0.8, LoopFrac: 0.12, BiasedTakenProb: 0.95, LoopPeriod: 6,
		SharedFrac: 0.015, SerialFrac: 0.02,
	},
	{
		Name: "water-nsq", Mix: mix(19, 1, 0, 16, 21, 5, 20, 8, 10),
		MeanDep: 5.5, TwoSrcProb: 0.62, LoadDepBias: 0.5, FPDepScale: 3.0,
		RepeatFrac: 0.55,
		HotFrac:    0.972, MidFrac: 0.015, LargeFrac: 0.003, HotSkew: 3,
		HotBytes: 12 * kb, MidBytes: 96 * kb, LargeBytes: 384 * kb,
		CodeBytes:  10 * kb,
		BiasedFrac: 0.88, LoopFrac: 0.1, BiasedTakenProb: 0.98, LoopPeriod: 14,
		SharedFrac: 0.01, SerialFrac: 0.01,
	},
	{
		Name: "water-sp", Mix: mix(20, 1, 0, 15, 20, 5, 21, 8, 10),
		MeanDep: 5.0, TwoSrcProb: 0.60, LoadDepBias: 0.5, FPDepScale: 3.0,
		RepeatFrac: 0.55,
		HotFrac:    0.967, MidFrac: 0.02, LargeFrac: 0.003, HotSkew: 3,
		HotBytes: 14 * kb, MidBytes: 112 * kb, LargeBytes: 384 * kb,
		CodeBytes:  12 * kb,
		BiasedFrac: 0.87, LoopFrac: 0.11, BiasedTakenProb: 0.98, LoopPeriod: 12,
		SharedFrac: 0.01, SerialFrac: 0.01,
	},
	{
		Name: "blackscholes", Mix: mix(12, 0, 0, 21, 30, 4, 20, 8, 5),
		MeanDep: 6.5, TwoSrcProb: 0.70, LoadDepBias: 0.45, FPDepScale: 4.0,
		RepeatFrac: 0.5,
		HotFrac:    0.986, MidFrac: 0.008, LargeFrac: 0.001, HotSkew: 3,
		HotBytes: 10 * kb, MidBytes: 64 * kb, LargeBytes: 256 * kb,
		CodeBytes:  4 * kb,
		BiasedFrac: 0.95, LoopFrac: 0.045, BiasedTakenProb: 0.995, LoopPeriod: 40,
		SharedFrac: 0.003, SerialFrac: 0.004,
	},
	{
		Name: "canneal", Mix: mix(36, 2, 1, 2, 2, 1, 32, 10, 14),
		MeanDep: 3.5, TwoSrcProb: 0.45, LoadDepBias: 0.65, FPDepScale: 1.5,
		RepeatFrac: 0.45,
		HotFrac:    0.85, MidFrac: 0.06, LargeFrac: 0.05, HotSkew: 2,
		HotBytes: 16 * kb, MidBytes: 192 * kb, LargeBytes: 4 * mb,
		CodeBytes:  16 * kb,
		BiasedFrac: 0.76, LoopFrac: 0.11, BiasedTakenProb: 0.93, LoopPeriod: 5,
		SharedFrac: 0.025, SerialFrac: 0.03,
	},
	{
		Name: "streamcluster", Mix: mix(17, 1, 0, 15, 18, 2, 30, 6, 11),
		MeanDep: 6.0, TwoSrcProb: 0.60, LoadDepBias: 0.6, FPDepScale: 3.0,
		RepeatFrac: 0.4,
		HotFrac:    0.83, MidFrac: 0.03, LargeFrac: 0.01, HotSkew: 2,
		HotBytes: 16 * kb, MidBytes: 160 * kb, LargeBytes: 1 * mb,
		CodeBytes:  6 * kb,
		BiasedFrac: 0.94, LoopFrac: 0.05, BiasedTakenProb: 0.985, LoopPeriod: 28,
		SharedFrac: 0.013, SerialFrac: 0.015,
	},
	{
		Name: "fluidanimate", Mix: mix(19, 1, 0, 16, 20, 2, 24, 10, 8),
		MeanDep: 4.5, TwoSrcProb: 0.58, LoadDepBias: 0.55, FPDepScale: 3.0,
		RepeatFrac: 0.5,
		HotFrac:    0.942, MidFrac: 0.03, LargeFrac: 0.008, HotSkew: 3,
		HotBytes: 20 * kb, MidBytes: 192 * kb, LargeBytes: 640 * kb,
		CodeBytes:  14 * kb,
		BiasedFrac: 0.86, LoopFrac: 0.11, BiasedTakenProb: 0.97, LoopPeriod: 10,
		SharedFrac: 0.015, SerialFrac: 0.015,
	},
}

// CPUWorkloads returns the 14 CPU application profiles (ten SPLASH-2, four
// PARSEC) in the paper's order.
func CPUWorkloads() []Profile {
	out := make([]Profile, len(cpuProfiles))
	copy(out, cpuProfiles)
	return out
}

// CPUWorkload returns the named profile, or an error listing the valid
// names.
func CPUWorkload(name string) (Profile, error) {
	for _, p := range cpuProfiles {
		if p.Name == name {
			return p, nil
		}
	}
	names := make([]string, len(cpuProfiles))
	for i, p := range cpuProfiles {
		names[i] = p.Name
	}
	sort.Strings(names)
	return Profile{}, fmt.Errorf("trace: unknown CPU workload %q (have %v)", name, names)
}
