package soc

import (
	"time"

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
// execute the same pure functions of (workload, seed, instruction
// budget), so a design point evaluates identically whether it runs
// locally, from cache or on a remote daemon.
func MeasureComponents(wl Workload, seed, totalInstr uint64, needKernel bool) (Components, error) {
	runs, err := MeasureCoreRuns([]string{wl.Name}, seed, totalInstr)
	if err != nil {
		return Components{}, err
	}
	var comps Components
	if comps.CMOS, err = CoreComponentOf(runs[0]); err != nil {
		return Components{}, err
	}
	if comps.TFET, err = CoreComponentOf(runs[1]); err != nil {
		return Components{}, err
	}
	if needKernel {
		gres, err := measureKernel(wl.Kernel, seed)
		if err != nil {
			return Components{}, err
		}
		if err := comps.FillKernel(gres); err != nil {
			return Components{}, err
		}
	}
	return comps, nil
}

// CoreRuns returns the 1-core CMOS and TFET core runs of every profile:
// out[2i] is CMOSCoreConfig and out[2i+1] TFETCoreConfig on profs[i].
// BaseTFET is BaseCMOS's core at a lower clock, so sim runs only the
// BaseCMOS representatives and the TFET runs are priced from them
// (hetsim.RunPriced). The harness passes engine jobs as sim;
// MeasureCoreRuns passes hetsim.Simulate.
func CoreRuns(profs []trace.Profile, o *obs.Observer, sim hetsim.Simulator) ([]hetsim.CPUResult, error) {
	views := make([]hetsim.CPUView, 0, 2*len(profs))
	for _, p := range profs {
		for _, cn := range []string{CMOSCoreConfig, TFETCoreConfig} {
			cfg, err := hetsim.CPUConfigByName(cn)
			if err != nil {
				return nil, err
			}
			views = append(views, hetsim.CPUView{Config: hetsim.SingleCore(cfg), Profile: p})
		}
	}
	return hetsim.RunPriced(views, o, sim)
}

// FillKernel derives the GPU component and both accelerator builds from
// one kernel measurement. Harness and remote paths both go through this,
// so every path reconstructs bit-identical components from the same run.
func (c *Components) FillKernel(r hetsim.GPUResult) error {
	var err error
	if c.GPU, err = GPUComponentOf(r); err != nil {
		return err
	}
	if c.AccelCMOS, err = AccelComponentOf(r, AccelCMOS); err != nil {
		return err
	}
	c.AccelTFET, err = AccelComponentOf(r, AccelTFET)
	return err
}

// The SoC registers as a fourth device kind: the harness, the dist
// resolver and RunDevice drive it exactly like cpu/gpu/cmp. A job keyed
// soc/<mix>/<workload>/s<seed>/i<instr> is self-contained — this Run
// measures its own components — which is what lets remote daemons
// execute SoC design points from the key alone.
func init() {
	hetsim.RegisterRunner(hetsim.Runner{
		Device:     "soc",
		InstrInKey: true,
		Configs: func() []string {
			space := DefaultSpace()
			names := make([]string, len(space))
			for i, cfg := range space {
				names[i] = cfg.Name()
			}
			return names
		},
		Workloads: func() []string {
			wls := Workloads()
			names := make([]string, len(wls))
			for i, w := range wls {
				names[i] = w.Name
			}
			return names
		},
		Run: func(config, workload string, opts hetsim.RunOpts) (hetsim.Result, error) {
			cfg, err := ParseConfig(config)
			if err != nil {
				return nil, err
			}
			wl, err := WorkloadByName(workload)
			if err != nil {
				return nil, err
			}
			wallStart := time.Now()
			comps, err := MeasureComponents(wl, opts.Seed, opts.TotalInstructions,
				cfg.GPUCUs > 0 || cfg.AccelUnits > 0)
			if err != nil {
				return nil, err
			}
			res, err := Evaluate(cfg, wl, opts.TotalInstructions, comps)
			if err != nil {
				return nil, err
			}
			opts.Obs.FinishRecord(res.Record(opts.Seed), wallStart, res.Instructions)
			return res, nil
		},
	})
}
