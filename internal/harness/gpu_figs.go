package harness

import (
	"fmt"

	"hetcore/internal/engine"
	"hetcore/internal/gpu"
	"hetcore/internal/hetsim"
)

// fig10Configs is the configuration order of Figures 10-12.
var fig10Configs = []string{"BaseCMOS", "BaseTFET", "BaseHet", "AdvHet", "AdvHet-2X"}

func (o Options) gpuKernels() ([]gpu.Kernel, error) {
	if len(o.Kernels) == 0 {
		return gpu.Kernels(), nil
	}
	out := make([]gpu.Kernel, 0, len(o.Kernels))
	for _, name := range o.Kernels {
		k, err := gpu.KernelByName(name)
		if err != nil {
			return nil, err
		}
		out = append(out, k)
	}
	return out, nil
}

// gpuKey is the cache key of a stock GPU run under these options.
func (o Options) gpuKey(config, kernel string) engine.Key {
	return engine.Key{Device: "gpu", Config: config, Workload: kernel, Seed: o.Seed}
}

// gpuJob declares one stock GPU run as an engine job.
func (o Options) gpuJob(cfg hetsim.GPUConfig, k gpu.Kernel) engine.Job {
	return engine.Job{
		Key: o.gpuKey(cfg.Name, k.Name),
		Run: func() (any, error) {
			res, err := hetsim.RunGPUObserved(cfg, k, o.Seed, o.Obs)
			if err != nil {
				return nil, fmt.Errorf("harness: %s/%s: %w", cfg.Name, k.Name, err)
			}
			return res, nil
		},
	}
}

// gpuSuite runs the GPU configurations over the kernels as one run
// plan; fig10/11/12 share the cached matrix when they share an engine.
func gpuSuite(opts Options) (map[string]map[string]hetsim.GPUResult, []string, error) {
	kernels, err := opts.gpuKernels()
	if err != nil {
		return nil, nil, err
	}
	names := make([]string, len(kernels))
	for i, k := range kernels {
		names[i] = k.Name
	}
	jobs := make([]engine.Job, 0, len(fig10Configs)*len(kernels))
	for _, cn := range fig10Configs {
		cfg, err := hetsim.GPUConfigByName(cn)
		if err != nil {
			return nil, nil, err
		}
		for _, k := range kernels {
			jobs = append(jobs, opts.gpuJob(cfg, k))
		}
	}
	outs, err := opts.engine().RunAll(jobs)
	if err != nil {
		return nil, nil, err
	}
	results := make(map[string]map[string]hetsim.GPUResult, len(fig10Configs))
	i := 0
	for _, cn := range fig10Configs {
		results[cn] = make(map[string]hetsim.GPUResult, len(kernels))
		for _, k := range kernels {
			results[cn][k.Name] = outs[i].(hetsim.GPUResult)
			i++
		}
	}
	return results, names, nil
}

func gpuNormalised(id, title string, results map[string]map[string]hetsim.GPUResult,
	kernels []string, metric func(hetsim.GPUResult) float64) Table {

	rows := make([]Row, 0, len(kernels)+1)
	sums := make([]float64, len(fig10Configs))
	for _, k := range kernels {
		base := metric(results["BaseCMOS"][k])
		vals := make([]float64, len(fig10Configs))
		for i, cn := range fig10Configs {
			vals[i] = metric(results[cn][k]) / base
			sums[i] += vals[i]
		}
		rows = append(rows, Row{Label: k, Values: vals})
	}
	avg := make([]float64, len(fig10Configs))
	for i := range avg {
		avg[i] = sums[i] / float64(len(kernels))
	}
	rows = append(rows, Row{Label: "Average", Values: avg})
	return Table{ID: id, Title: title, Columns: fig10Configs, Rows: rows,
		Notes: "Normalised to BaseCMOS (which includes the register file cache)."}
}

// Fig10 reproduces Figure 10: execution time of the GPU designs.
func Fig10(opts Options) (Table, error) {
	results, kernels, err := gpuSuite(opts)
	if err != nil {
		return Table{}, err
	}
	return gpuNormalised("fig10", "Execution time of GPU designs",
		results, kernels, func(r hetsim.GPUResult) float64 { return r.TimeSec }), nil
}

// Fig11 reproduces Figure 11: energy consumption of the GPU designs.
func Fig11(opts Options) (Table, error) {
	results, kernels, err := gpuSuite(opts)
	if err != nil {
		return Table{}, err
	}
	t := gpuNormalised("fig11", "Energy consumption of GPU designs",
		results, kernels, func(r hetsim.GPUResult) float64 { return r.Energy.Total() })
	var notes string
	for _, cn := range fig10Configs {
		var dyn, leak float64
		for _, k := range kernels {
			base := results["BaseCMOS"][k].Energy.Total()
			dyn += results[cn][k].Energy.Dyn / base
			leak += results[cn][k].Energy.Leak / base
		}
		n := float64(len(kernels))
		notes += fmt.Sprintf("%s: dyn %.2f leak %.2f | ", cn, dyn/n, leak/n)
	}
	t.Notes = "Normalised to BaseCMOS. Breakdown: " + notes
	return t, nil
}

// Fig12 reproduces Figure 12: ED² of the GPU designs.
func Fig12(opts Options) (Table, error) {
	results, kernels, err := gpuSuite(opts)
	if err != nil {
		return Table{}, err
	}
	return gpuNormalised("fig12", "Energy-delay-squared (ED2) of GPU designs",
		results, kernels, func(r hetsim.GPUResult) float64 { return r.ED2() }), nil
}
