package harness

import (
	"fmt"
	"time"

	"hetcore/internal/energy"
	"hetcore/internal/engine"
	"hetcore/internal/gpu"
	"hetcore/internal/hetsim"
	"hetcore/internal/soc"
	"hetcore/internal/trace"
)

// The SoC design-space search as a run plan. Evaluating one mix needs
// three measured components per workload — a 1-core BaseCMOS run, a
// 1-core BaseTFET run priced from it (soc.CoreRuns) and an AdvHet GPU
// kernel run — and then only arithmetic. The component simulations run
// through the engine first (memoized, disk-cached; the GPU keys are the
// same stock keys the fig10-12 suite uses, so those results are
// shared), and each (mix, workload) composition is its own engine job
// whose closure reuses the pre-measured components. Composition jobs
// are pure functions of their keys — a remote daemon resolving
// soc/<mix>/<workload>/s<seed>/i<instr> measures the same components
// itself (soc.MeasureComponents) and gets bit-equal results — so the
// memoizing cache, the disk cache and the dist layer absorb the search
// combinatorics.

// socWorkloads resolves the option's workload restriction against the
// SoC pairing table.
func socWorkloads(opts Options) ([]soc.Workload, error) {
	if len(opts.Workloads) == 0 {
		return soc.Workloads(), nil
	}
	out := make([]soc.Workload, 0, len(opts.Workloads))
	for _, name := range opts.Workloads {
		w, err := soc.WorkloadByName(name)
		if err != nil {
			return nil, err
		}
		out = append(out, w)
	}
	return out, nil
}

// socComponentKey is the engine key of a 1-core component run. The
// Variant marks the core-count mutation, keeping these entries disjoint
// from the stock 4-core suite in every cache.
func (o Options) socComponentKey(config, workload string) engine.Key {
	k := o.cpuKey(config, workload)
	k.Variant = "cores=1"
	return k
}

// socComponentJob declares a 1-core component run as an engine job.
func (o Options) socComponentJob(cfg hetsim.CPUConfig, prof trace.Profile) engine.Job {
	return engine.Job{
		Key: o.socComponentKey(cfg.Name, prof.Name),
		Run: func() (any, error) {
			res, err := hetsim.RunCPU(cfg, prof, o.runOpts())
			if err != nil {
				return nil, fmt.Errorf("harness: component %s/%s: %w", cfg.Name, prof.Name, err)
			}
			return res, nil
		},
	}
}

// socComponents measures the composition components for each workload
// through the engine and returns them keyed by workload name. The core
// components come from soc.CoreRuns (one BaseCMOS simulation per
// workload, BaseTFET priced from it) and one kernel measurement per
// workload fills the GPU component and both accelerator builds.
// soc.ComponentsOf assembles them, as it does on the remote path, so
// both paths stay bit-equal.
func socComponents(opts Options, wls []soc.Workload, needKernel bool) (map[string]soc.Components, error) {
	profs := make([]trace.Profile, len(wls))
	for i, wl := range wls {
		var err error
		if profs[i], err = trace.CPUWorkload(wl.Name); err != nil {
			return nil, err
		}
	}
	cores, err := soc.CoreRuns(profs, opts.Obs, opts.simulateCPU)
	if err != nil {
		return nil, err
	}
	var kernels []hetsim.GPUResult
	if needKernel {
		gcfg, err := hetsim.GPUConfigByName(soc.GPUConfig)
		if err != nil {
			return nil, err
		}
		jobs := make([]engine.Job, len(wls))
		for i, wl := range wls {
			kern, err := gpu.KernelByName(wl.Kernel)
			if err != nil {
				return nil, err
			}
			jobs[i] = opts.gpuJob(gcfg, kern)
		}
		outs, err := opts.engine().RunAll(jobs)
		if err != nil {
			return nil, err
		}
		kernels = make([]hetsim.GPUResult, len(outs))
		for i, out := range outs {
			kernels[i] = out.(hetsim.GPUResult)
		}
	}
	list, err := soc.ComponentsOf(cores, kernels)
	if err != nil {
		return nil, err
	}
	comps := make(map[string]soc.Components, len(wls))
	for i, wl := range wls {
		comps[wl.Name] = list[i]
	}
	return comps, nil
}

// SearchSoC evaluates every in-budget mix of the space over the option's
// workloads, one engine job per (mix, workload) point, and returns the
// evaluated points in (space, workload) declaration order. Over-budget
// mixes are rejected by the footprint sum alone — they never simulate —
// and both populations feed the soc.configs_evaluated /
// soc.configs_over_budget counters.
func SearchSoC(opts Options, budget energy.Budget, space []soc.Config) ([]soc.Result, []soc.Config, error) {
	if err := budget.Validate(); err != nil {
		return nil, nil, err
	}
	wls, err := socWorkloads(opts)
	if err != nil {
		return nil, nil, err
	}
	in, over := soc.Partition(space, budget)
	if reg := opts.Obs.Reg(); reg != nil {
		reg.Counter("soc.configs_evaluated").Add(uint64(len(in)))
		reg.Counter("soc.configs_over_budget").Add(uint64(len(over)))
	}
	if len(in) == 0 {
		return nil, over, fmt.Errorf("harness: no SoC mix fits %s", budget.String())
	}
	needKernel := false
	for _, cfg := range in {
		if cfg.GPUCUs > 0 || cfg.AccelUnits > 0 {
			needKernel = true
			break
		}
	}
	comps, err := socComponents(opts, wls, needKernel)
	if err != nil {
		return nil, nil, err
	}

	jobs := make([]engine.Job, 0, len(in)*len(wls))
	for _, cfg := range in {
		for _, wl := range wls {
			cfg, wl, c := cfg, wl, comps[wl.Name]
			jobs = append(jobs, engine.Job{
				Key: engine.Key{Device: "soc", Config: cfg.Name(), Workload: wl.Name,
					Seed: opts.Seed, Instr: opts.Instructions},
				Run: func() (any, error) {
					wallStart := time.Now()
					res, err := soc.Evaluate(cfg, wl, opts.Instructions, c)
					if err != nil {
						return nil, fmt.Errorf("harness: soc %s/%s: %w", cfg.Name(), wl.Name, err)
					}
					opts.Obs.FinishRecord(res.Record(opts.Seed), wallStart, res.Instructions)
					return res, nil
				},
			})
		}
	}
	outs, err := opts.engine().RunAll(jobs)
	if err != nil {
		return nil, nil, err
	}
	results := make([]soc.Result, len(outs))
	for i, out := range outs {
		results[i] = out.(soc.Result)
	}
	return results, over, nil
}

// SoCPareto runs the design-space search under the budget and renders
// the Pareto front on (total time, total energy) over the workloads.
func SoCPareto(opts Options, budget energy.Budget) (Table, error) {
	results, over, err := SearchSoC(opts, budget, soc.DefaultSpace())
	if err != nil {
		return Table{}, err
	}
	front := soc.ParetoFront(soc.Summarize(results))
	rows := make([]Row, len(front))
	for i, s := range front {
		rows[i] = Row{Label: s.Name, Values: []float64{
			float64(s.Config.CMOSCores), float64(s.Config.TFETCores), float64(s.Config.GPUCUs),
			float64(s.Config.AccelUnits),
			s.AreaMM2, s.PeakW,
			s.TimeSec * 1e6, s.EnergyJ * 1e6, s.ED2() * 1e18,
		}}
	}
	nWork := workloadCount(results)
	nMixes := 0
	if nWork > 0 {
		nMixes = len(results) / nWork
	}
	return Table{
		ID:    "soc",
		Title: fmt.Sprintf("SoC design-space search: Pareto front under %s", budget.String()),
		Columns: []string{"cmos", "tfet", "cus", "xunits", "area_mm2", "peak_w",
			"time_us", "energy_uj", "ed2_ajs2"},
		Rows: rows,
		Notes: fmt.Sprintf(
			"Time/energy summed over %d workload(s); %d mix(es) evaluated, %d rejected over budget.",
			nWork, nMixes, len(over)),
	}, nil
}

// workloadCount counts distinct workloads in the evaluated points.
func workloadCount(results []soc.Result) int {
	seen := map[string]bool{}
	for _, r := range results {
		seen[r.Workload] = true
	}
	return len(seen)
}

// SoCBreakdown renders the per-workload composition of each
// Pareto-front mix: where the time goes (serial vs parallel) and where
// the energy goes (core dynamic, GPU dynamic, leakage).
func SoCBreakdown(opts Options, budget energy.Budget) (Table, error) {
	results, _, err := SearchSoC(opts, budget, soc.DefaultSpace())
	if err != nil {
		return Table{}, err
	}
	front := soc.ParetoFront(soc.Summarize(results))
	onFront := make(map[string]bool, len(front))
	for _, s := range front {
		onFront[s.Name] = true
	}
	var rows []Row
	for _, r := range results {
		if !onFront[r.Config] {
			continue
		}
		rows = append(rows, Row{Label: r.Config + "/" + r.Workload, Values: []float64{
			r.SerialSec * 1e6, r.ParallelSec * 1e6, r.TimeSec * 1e6,
			r.CoreDynJ * 1e6, r.GPUDynJ * 1e6, r.AccelDynJ * 1e6, r.LeakJ * 1e6,
			r.OffloadFrac,
		}})
	}
	return Table{
		ID:    "socbreak",
		Title: fmt.Sprintf("SoC per-config breakdown (Pareto front under %s)", budget.String()),
		Columns: []string{"serial_us", "parallel_us", "time_us",
			"core_dyn_uj", "gpu_dyn_uj", "accel_dyn_uj", "leak_uj", "offload"},
		Rows: rows,
		Notes: "One row per (Pareto mix, workload); times and energies per run. " +
			"The offload column is the fraction the dispatcher actually moved off the cores.",
	}, nil
}

// SoC and SoCBreak are the registry entries (default budget).
func SoC(opts Options) (Table, error) {
	return SoCPareto(opts, soc.DefaultBudget())
}

func SoCBreak(opts Options) (Table, error) {
	return SoCBreakdown(opts, soc.DefaultBudget())
}
