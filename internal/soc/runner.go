package soc

import (
	"hetcore/internal/hetsim"
	"hetcore/internal/obs"
	"hetcore/internal/trace"
)

// MeasureComponents measures the components directly — the 1-core CMOS
// and TFET runs of MeasureCoreRuns, plus the AdvHet GPU on the paired
// kernel when needKernel — and derives composition parameters. One
// kernel measurement fills the GPU component and both accelerator builds
// (they rescale the same run), so any mix with CUs or accelerator units
// asks for the kernel. The engine-based search in the harness computes
// the same components through memoized run-plan jobs; both paths
// assemble them with ComponentsOf from the same pure functions of
// (workload, seed, instruction budget), so a design point evaluates
// identically whether it runs locally, from cache or on a remote daemon.
func MeasureComponents(wl Workload, seed, totalInstr uint64, needKernel bool) (Components, error) {
	cores, err := MeasureCoreRuns([]string{wl.Name}, seed, totalInstr)
	if err != nil {
		return Components{}, err
	}
	var kernels []hetsim.GPUResult
	if needKernel {
		gres, err := measureKernel(wl.Kernel, seed)
		if err != nil {
			return Components{}, err
		}
		kernels = []hetsim.GPUResult{gres}
	}
	comps, err := ComponentsOf(cores, kernels)
	if err != nil {
		return Components{}, err
	}
	return comps[0], nil
}

// ComponentsOf assembles each workload's components from its runs:
// cores in CoreRuns order (the CMOS and TFET runs of workload i at 2i
// and 2i+1) and, unless kernels is nil, the AdvHet kernel run of
// workload i at kernels[i], which fills the GPU component and both
// accelerator builds.
func ComponentsOf(cores []hetsim.CPUResult, kernels []hetsim.GPUResult) ([]Components, error) {
	out := make([]Components, len(cores)/2)
	for i := range out {
		c := &out[i]
		var err error
		if c.CMOS, err = CoreComponentOf(cores[2*i]); err != nil {
			return nil, err
		}
		if c.TFET, err = CoreComponentOf(cores[2*i+1]); err != nil {
			return nil, err
		}
		if kernels == nil {
			continue
		}
		if c.GPU, err = GPUComponentOf(kernels[i]); err != nil {
			return nil, err
		}
		if c.AccelCMOS, err = AccelComponentOf(kernels[i], AccelCMOS); err != nil {
			return nil, err
		}
		if c.AccelTFET, err = AccelComponentOf(kernels[i], AccelTFET); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Run evaluates the mix on the workload as a daemon does from a key
// soc/<mix>/<workload>/s<seed>/i<instr> alone: it measures its own
// components (MeasureComponents) and evaluates the mix on them. A point
// leaves no run record; the harness's search records one summary.
func Run(cfg Config, wl Workload, opts hetsim.RunOpts) (Result, error) {
	comps, err := MeasureComponents(wl, opts.Seed, opts.TotalInstructions,
		cfg.GPUCUs > 0 || cfg.AccelUnits > 0)
	if err != nil {
		return Result{}, err
	}
	return Evaluate(cfg, wl, opts.TotalInstructions, comps)
}

// CoreRuns returns the 1-core CMOS and TFET core runs of every profile:
// out[2i] is CMOSCoreConfig and out[2i+1] TFETCoreConfig on profs[i].
// BaseTFET is BaseCMOS's core at a lower clock, so sim runs only the
// BaseCMOS representatives and the TFET runs are priced from them
// (hetsim.RunPriced). The harness passes engine jobs as sim;
// MeasureCoreRuns passes hetsim.Simulate.
func CoreRuns(profs []trace.Profile, o *obs.Observer, sim hetsim.Simulator) ([]hetsim.CPUResult, error) {
	views, err := CoreViews(profs)
	if err != nil {
		return nil, err
	}
	return hetsim.RunPriced(views, o, sim)
}

// CoreViews returns the views CoreRuns prices, in its result order.
func CoreViews(profs []trace.Profile) ([]hetsim.CPUView, error) {
	var cores [2]hetsim.CPUConfig
	for i, cn := range []string{CMOSCoreConfig, TFETCoreConfig} {
		cfg, err := hetsim.CPUConfigByName(cn)
		if err != nil {
			return nil, err
		}
		cores[i] = hetsim.SingleCore(cfg)
	}
	views := make([]hetsim.CPUView, 0, 2*len(profs))
	for _, p := range profs {
		for _, cfg := range cores {
			views = append(views, hetsim.CPUView{Config: cfg, Profile: p})
		}
	}
	return views, nil
}
