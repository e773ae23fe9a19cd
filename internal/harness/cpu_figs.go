package harness

import (
	"fmt"

	"hetcore/internal/device"
	"hetcore/internal/dist"
	"hetcore/internal/energy"
	"hetcore/internal/engine"
	"hetcore/internal/hetsim"
	"hetcore/internal/obs"
	"hetcore/internal/trace"
)

// Options controls how much simulation each experiment performs.
type Options struct {
	// Instructions is the total instruction budget per CPU run (shared
	// across cores). Zero uses the hetsim default.
	Instructions uint64
	// Seed drives workload synthesis.
	Seed uint64
	// Workloads restricts the CPU benchmark list (empty = all 14).
	Workloads []string
	// Kernels restricts the GPU benchmark list (empty = all 19).
	Kernels []string
	// Obs, when non-nil, collects metrics, trace events, run records and
	// progress from every simulation an experiment performs.
	Obs *obs.Observer
	// Jobs is the worker-pool width for run plans (0 = NumCPU). Only
	// consulted when Engine is nil.
	Jobs int
	// Engine, when non-nil, executes every simulation of the experiment
	// matrix. Sharing one engine across experiments (WithSharedEngine,
	// or the CLIs' per-invocation engine) makes each distinct
	// (device, config, workload, seed, instr) key simulate exactly once
	// per process — fig7/8/9 then share one CPU suite. Nil builds a
	// private engine per experiment call.
	Engine *engine.Engine
	// CacheDir, when non-empty, attaches a persistent content-addressed
	// result cache (internal/dist) to the engine WithSharedEngine
	// builds, so repeated invocations skip already-simulated keys.
	CacheDir string
	// Remote lists hetserved workers ("host:port") attached as extra
	// engine lanes by WithSharedEngine.
	Remote []string
}

// WithSharedEngine returns a copy of o carrying a fresh engine built
// from o.Jobs, o.Obs, o.CacheDir and o.Remote, to be shared by every
// experiment run with the returned options. It fails when the cache
// directory cannot be created or no -remote worker address parses.
func (o Options) WithSharedEngine() (Options, error) {
	eng, err := NewEngine(o.Jobs, o.CacheDir, o.Remote, o.Obs)
	if err != nil {
		return o, err
	}
	o.Engine = eng
	return o, nil
}

// NewEngine builds a run-plan engine with the distribution attachments:
// a persistent disk cache under cacheDir (when non-empty) and a remote
// worker pool over the given hetserved addresses (when non-empty). The
// shared CLI flags -jobs/-cache-dir/-remote map directly onto the
// arguments.
func NewEngine(jobs int, cacheDir string, remote []string, o *obs.Observer) (*engine.Engine, error) {
	eng := engine.New(jobs, o)
	if cacheDir != "" {
		c, err := dist.OpenCache(cacheDir, o)
		if err != nil {
			return nil, fmt.Errorf("harness: opening -cache-dir: %w", err)
		}
		eng.SetCache(c)
	}
	if len(remote) > 0 {
		p, err := dist.NewPool(remote, dist.PoolConfig{Obs: o})
		if err != nil {
			return nil, fmt.Errorf("harness: -remote: %w", err)
		}
		eng.SetExecutor(p)
	}
	return eng, nil
}

// engine returns the shared engine, or a private one for this call.
func (o Options) engine() *engine.Engine {
	if o.Engine != nil {
		return o.Engine
	}
	return engine.New(o.Jobs, o.Obs)
}

func (o Options) runOpts() hetsim.RunOpts {
	return hetsim.RunOpts{TotalInstructions: o.Instructions, Seed: o.Seed, Obs: o.Obs}
}

// cpuKey is the cache key of a stock CPU run under these options.
func (o Options) cpuKey(config, workload string) engine.Key {
	return engine.Key{Device: "cpu", Config: config, Workload: workload,
		Seed: o.Seed, Instr: o.Instructions}
}

// cpuJob declares one stock CPU run as an engine job, routed through
// the hetsim runner registry like every other device kind.
func (o Options) cpuJob(cfg hetsim.CPUConfig, prof trace.Profile) engine.Job {
	return engine.Job{
		Key: o.cpuKey(cfg.Name, prof.Name),
		Run: func() (any, error) {
			res, err := hetsim.RunDevice("cpu", cfg.Name, prof.Name, o.runOpts())
			if err != nil {
				return nil, fmt.Errorf("harness: %s/%s: %w", cfg.Name, prof.Name, err)
			}
			return res, nil
		},
	}
}

func (o Options) cpuWorkloads() ([]trace.Profile, error) {
	if len(o.Workloads) == 0 {
		return trace.CPUWorkloads(), nil
	}
	out := make([]trace.Profile, 0, len(o.Workloads))
	for _, name := range o.Workloads {
		p, err := trace.CPUWorkload(name)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// fig7Configs is the configuration order of Figures 7-9.
var fig7Configs = []string{"BaseCMOS", "BaseCMOS-Enh", "BaseTFET", "BaseHet", "AdvHet", "AdvHet-2X"}

// cpuSuite runs a set of configurations over the workloads and returns
// results[config][workload]. Each timing class simulates once per
// workload (hetsim.RunPriced), so BaseTFET is priced from BaseCMOS's run,
// and keys already simulated by an earlier experiment sharing the same
// engine come from the cache. Every cell still has its stock key
// (storePriced).
func cpuSuite(configs []string, opts Options) (map[string]map[string]hetsim.CPUResult, []string, error) {
	profiles, err := opts.cpuWorkloads()
	if err != nil {
		return nil, nil, err
	}
	names := make([]string, len(profiles))
	for i, p := range profiles {
		names[i] = p.Name
	}
	views := make([]hetsim.CPUView, 0, len(configs)*len(profiles))
	for _, cn := range configs {
		cfg, err := hetsim.CPUConfigByName(cn)
		if err != nil {
			return nil, nil, err
		}
		for _, p := range profiles {
			views = append(views, hetsim.CPUView{Config: cfg, Profile: p})
		}
	}
	outs, err := hetsim.RunPriced(views, opts.Obs, opts.simulateCPU)
	if err != nil {
		return nil, nil, err
	}
	if err := opts.storePriced(views, outs); err != nil {
		return nil, nil, err
	}
	results := make(map[string]map[string]hetsim.CPUResult, len(configs))
	i := 0
	for _, cn := range configs {
		results[cn] = make(map[string]hetsim.CPUResult, len(profiles))
		for _, p := range profiles {
			results[cn][p.Name] = outs[i]
			i++
		}
	}
	return results, names, nil
}

// simulateCPU is the engine's hetsim.Simulator: a registry
// configuration runs under its stock key, its one-core form under the
// "cores=1" component key.
func (o Options) simulateCPU(reps []hetsim.CPUView) ([]hetsim.CPUResult, error) {
	jobs := make([]engine.Job, len(reps))
	registry := make(map[string]hetsim.CPUConfig)
	for _, c := range hetsim.CPUConfigs() {
		registry[c.Name] = c
	}
	for i, r := range reps {
		stock := registry[r.Config.Name]
		switch r.Config {
		case stock:
			jobs[i] = o.cpuJob(stock, r.Profile)
		case hetsim.SingleCore(stock):
			jobs[i] = o.socComponentJob(r.Config, r.Profile)
		default:
			return nil, fmt.Errorf("harness: %s is not a registry configuration or its one-core form", r.Config.Name)
		}
	}
	outs, err := o.engine().RunAll(jobs)
	if err != nil {
		return nil, err
	}
	res := make([]hetsim.CPUResult, len(outs))
	for i, v := range outs {
		res[i] = v.(hetsim.CPUResult)
	}
	return res, nil
}

// storePriced gives each priced view of a stock configuration its stock
// key: an engine job that returns the priced result, which replaces
// outs[i]. The job simulates nothing, but the disk cache, hetserved and
// -remote clients keep one entry per (configuration, workload), as when
// every configuration simulated.
func (o Options) storePriced(views []hetsim.CPUView, outs []hetsim.CPUResult) error {
	priced := make(map[hetsim.CPUConfig]bool) // views repeat a config per workload
	var jobs []engine.Job
	var at []int
	for i, v := range views {
		p, ok := priced[v.Config]
		if !ok {
			p = hetsim.TimingRep(v.Config) != v.Config
			priced[v.Config] = p
		}
		if !p {
			continue
		}
		r := outs[i]
		jobs = append(jobs, engine.Job{
			Key: o.cpuKey(v.Config.Name, v.Profile.Name),
			Run: func() (any, error) { return r, nil },
		})
		at = append(at, i)
	}
	if len(jobs) == 0 {
		return nil
	}
	vals, err := o.engine().RunAll(jobs)
	if err != nil {
		return err
	}
	for j, v := range vals {
		outs[at[j]] = v.(hetsim.CPUResult)
	}
	return nil
}

// normalisedTable builds a workload-per-row table of metric(config)/
// metric(BaseCMOS) with an Average row, matching the paper's figures.
func normalisedTable(id, title string, configs []string, results map[string]map[string]hetsim.CPUResult,
	workloads []string, metric func(hetsim.CPUResult) float64) Table {

	rows := make([]Row, 0, len(workloads)+1)
	sums := make([]float64, len(configs))
	for _, w := range workloads {
		base := metric(results["BaseCMOS"][w])
		vals := make([]float64, len(configs))
		for i, cn := range configs {
			vals[i] = metric(results[cn][w]) / base
			sums[i] += vals[i]
		}
		rows = append(rows, Row{Label: w, Values: vals})
	}
	avg := make([]float64, len(configs))
	for i := range avg {
		avg[i] = sums[i] / float64(len(workloads))
	}
	rows = append(rows, Row{Label: "Average", Values: avg})
	return Table{ID: id, Title: title, Columns: configs, Rows: rows,
		Notes: "Normalised to BaseCMOS."}
}

// Fig7 reproduces Figure 7: execution time of the CPU designs.
func Fig7(opts Options) (Table, error) {
	results, workloads, err := cpuSuite(fig7Configs, opts)
	if err != nil {
		return Table{}, err
	}
	return normalisedTable("fig7", "Execution time of CPU designs",
		fig7Configs, results, workloads,
		func(r hetsim.CPUResult) float64 { return r.TimeSec }), nil
}

// Fig8 reproduces Figure 8: energy consumption of the CPU designs, with
// the core/L2/L3 × dynamic/leakage breakdown for the averages.
func Fig8(opts Options) (Table, error) {
	results, workloads, err := cpuSuite(fig7Configs, opts)
	if err != nil {
		return Table{}, err
	}
	t := normalisedTable("fig8", "Energy consumption of CPU designs",
		fig7Configs, results, workloads,
		func(r hetsim.CPUResult) float64 { return r.Energy.Total() })

	// Append the breakdown as extra note rows: average share of each
	// component, normalised to BaseCMOS total.
	var notes string
	for _, cn := range fig7Configs {
		var cd, cl, l2, l3 float64
		for _, w := range workloads {
			base := results["BaseCMOS"][w].Energy.Total()
			e := results[cn][w].Energy
			cd += e.CoreDyn / base
			cl += e.CoreLeak / base
			l2 += (e.L2Dyn + e.L2Leak) / base
			l3 += (e.L3Dyn + e.L3Leak) / base
		}
		n := float64(len(workloads))
		notes += fmt.Sprintf("%s: core-dyn %.2f core-leak %.2f L2 %.2f L3 %.2f | ",
			cn, cd/n, cl/n, l2/n, l3/n)
	}
	t.Notes = "Normalised to BaseCMOS. Breakdown: " + notes
	return t, nil
}

// Fig9 reproduces Figure 9: ED² of the CPU designs.
func Fig9(opts Options) (Table, error) {
	results, workloads, err := cpuSuite(fig7Configs, opts)
	if err != nil {
		return Table{}, err
	}
	return normalisedTable("fig9", "Energy-delay-squared (ED2) of CPU designs",
		fig7Configs, results, workloads,
		func(r hetsim.CPUResult) float64 { return r.ED2() }), nil
}

// fig13Configs is the configuration set of Figure 13's sensitivity study.
var fig13Configs = []string{"BaseCMOS", "BaseL3", "BaseHighVt",
	"BaseHet-FastALU", "BaseHet", "BaseHet-Enh", "BaseHet-Split", "AdvHet"}

// Fig13 reproduces Figure 13: execution time, energy, ED and ED² of the
// alternative CPU designs (averages over the workloads).
func Fig13(opts Options) (Table, error) {
	results, workloads, err := cpuSuite(fig13Configs, opts)
	if err != nil {
		return Table{}, err
	}
	metrics := []struct {
		name string
		f    func(hetsim.CPUResult) float64
	}{
		{"time", func(r hetsim.CPUResult) float64 { return r.TimeSec }},
		{"energy", func(r hetsim.CPUResult) float64 { return r.Energy.Total() }},
		{"ED", func(r hetsim.CPUResult) float64 { return r.ED() }},
		{"ED2", func(r hetsim.CPUResult) float64 { return r.ED2() }},
	}
	rows := make([]Row, len(fig13Configs))
	for i, cn := range fig13Configs {
		vals := make([]float64, len(metrics))
		for mi, m := range metrics {
			var sum float64
			for _, w := range workloads {
				sum += m.f(results[cn][w]) / m.f(results["BaseCMOS"][w])
			}
			vals[mi] = sum / float64(len(workloads))
		}
		rows[i] = Row{Label: cn, Values: vals}
	}
	return Table{
		ID: "fig13", Title: "Sensitivity analysis of HetCore CPU designs",
		Columns: []string{"time", "energy", "ED", "ED2"},
		Rows:    rows,
		Notes:   "Averages over workloads, normalised to BaseCMOS.",
	}, nil
}

// Fig14 reproduces Figure 14: energy of BaseCMOS and AdvHet under DVFS
// (1.5, 2, 2.5 GHz) and with process-variation guardbands, normalised to
// BaseCMOS at 2 GHz.
func Fig14(opts Options) (Table, error) {
	profiles, err := opts.cpuWorkloads()
	if err != nil {
		return Table{}, err
	}
	dvfs := device.NewDVFS()
	nominal := dvfs.Nominal()

	type point struct {
		label   string
		freq    float64
		cmosAdj energy.Scale
		tfetAdj energy.Scale
	}
	identity := energy.Scale{Dyn: 1, Leak: 1}
	mk := func(label string, f float64) (point, error) {
		pair, err := dvfs.PairFor(f)
		if err != nil {
			return point{}, err
		}
		cs := device.ScaleFrom(nominal.VCMOS, pair.VCMOS)
		ts := device.ScaleFrom(nominal.VTFET, pair.VTFET)
		return point{label: label, freq: f,
			cmosAdj: energy.Scale{Dyn: cs.Dynamic, Leak: cs.Leakage},
			tfetAdj: energy.Scale{Dyn: ts.Dynamic, Leak: ts.Leakage}}, nil
	}
	points := []point{{label: "BaseFreq-2GHz", freq: 2.0, cmosAdj: identity, tfetAdj: identity}}
	boost, err := mk("BoostFreq-2.5GHz", 2.5)
	if err != nil {
		return Table{}, err
	}
	slow, err := mk("SlowFreq-1.5GHz", 1.5)
	if err != nil {
		return Table{}, err
	}
	points = append(points, boost, slow)

	// Variation guardbands at the nominal frequency.
	gb := device.DefaultVariationGuardband()
	gbPair := gb.Apply(nominal)
	cs, ts := device.EnergyScales(nominal, gbPair)
	points = append(points, point{label: "ProcessVariation", freq: 2.0,
		cmosAdj: energy.Scale{Dyn: cs.Dynamic, Leak: cs.Leakage},
		tfetAdj: energy.Scale{Dyn: ts.Dynamic, Leak: ts.Leakage}})

	configs := []string{"BaseCMOS", "AdvHet"}

	// A DVFS or guardband point changes only the clock and the energy
	// scales, so every point is a priced view of the stock fig7 runs.
	var views []hetsim.CPUView
	for _, pt := range points {
		for _, cn := range configs {
			cfg, err := hetsim.CPUConfigByName(cn)
			if err != nil {
				return Table{}, err
			}
			cfg.Core.FreqGHz = pt.freq
			cfg.Hier.FreqGHz = pt.freq
			for _, p := range profiles {
				views = append(views, hetsim.CPUView{Config: cfg, Profile: p,
					CMOSAdj: pt.cmosAdj, TFETAdj: pt.tfetAdj})
			}
		}
	}
	outs, err := hetsim.RunPriced(views, opts.Obs, opts.simulateCPU)
	if err != nil {
		return Table{}, err
	}

	var baseline float64
	rows := make([]Row, 0, len(points))
	ji := 0
	for _, pt := range points {
		vals := make([]float64, len(configs))
		for ci := range configs {
			var total float64
			for range profiles {
				total += outs[ji].Energy.Total()
				ji++
			}
			vals[ci] = total
		}
		if pt.label == "BaseFreq-2GHz" {
			baseline = vals[0]
		}
		rows = append(rows, Row{Label: pt.label, Values: vals})
	}
	for i := range rows {
		for j := range rows[i].Values {
			rows[i].Values[j] /= baseline
		}
	}
	return Table{
		ID: "fig14", Title: "Impact of DVFS and process variation on energy",
		Columns: configs,
		Rows:    rows,
		Notes:   "Summed over workloads, normalised to BaseCMOS at 2 GHz.",
	}, nil
}
