package dist

import (
	"fmt"
	"sync"

	"hetcore/internal/engine"
	"hetcore/internal/governor"
	"hetcore/internal/gpu"
	"hetcore/internal/hetsim"
	"hetcore/internal/obs"
	"hetcore/internal/soc"
	"hetcore/internal/trace"
	"hetcore/internal/traffic"
)

// Resolve maps a stock engine key back to the simulation it denotes, so
// a daemon that received only the key can execute the job. Each device
// kind looks its config and workload up by exact name and calls its
// simulator:
//
//	cpu/<config>/<workload>/s<seed>/i<instr>         hetsim.RunCPU
//	gpu/<config>/<kernel>/s<seed>/i0                 hetsim.RunGPUObserved
//	cmp/HeteroCMP[-nomig]/<workload>/...             hetsim.RunHeteroCMP
//	soc/<DefaultSpace mix>/<workload>/...            soc.Run
//	traffic/<DefaultMixes mix>+<policy>/<trace>/...  traffic.Run
//	trace/stats/<workload>/.../core=<n>              trace.Summarize
//
// Keys carrying variants (sweeps, one-core components) mutate their
// config out-of-band and return ok=false: they must execute in the
// process that built them. GPU kernels fix their own length, so gpu
// keys only resolve with Instr pinned to 0. o receives the executing
// side's telemetry.
func Resolve(k engine.Key, o *obs.Observer) (func() (any, error), bool) {
	if k.Device == "trace" {
		return resolveTraceStats(k)
	}
	if k.Variant != "" {
		return nil, false
	}
	opts := hetsim.RunOpts{TotalInstructions: k.Instr, Seed: k.Seed, Obs: o}
	switch k.Device {
	case "cpu":
		cfg, err := hetsim.CPUConfigByName(k.Config)
		prof, werr := trace.CPUWorkload(k.Workload)
		if err != nil || werr != nil {
			return nil, false
		}
		return job(func() (hetsim.CPUResult, error) { return hetsim.RunCPU(cfg, prof, opts) }), true
	case "gpu":
		cfg, err := hetsim.GPUConfigByName(k.Config)
		kern, werr := gpu.KernelByName(k.Workload)
		if k.Instr != 0 || err != nil || werr != nil {
			return nil, false
		}
		return job(func() (hetsim.GPUResult, error) { return hetsim.RunGPUObserved(cfg, kern, k.Seed, o) }), true
	case "cmp":
		hc, err := hetsim.HeteroCMPByName(k.Config)
		prof, werr := trace.CPUWorkload(k.Workload)
		if err != nil || werr != nil {
			return nil, false
		}
		return job(func() (hetsim.HeteroCMPResult, error) { return hetsim.RunHeteroCMP(hc, prof, opts) }), true
	case "soc":
		cfg, ok := socMixes()[k.Config]
		wl, err := soc.WorkloadByName(k.Workload)
		if !ok || err != nil {
			return nil, false
		}
		return job(func() (soc.Result, error) { return soc.Run(cfg, wl, opts) }), true
	case "traffic":
		sc, ok := trafficScenarios()[k.Config]
		if !ok || !trafficTraces()[k.Workload] {
			return nil, false
		}
		return job(func() (traffic.Result, error) {
			tr, err := traffic.TraceByName(k.Workload)
			if err != nil {
				return traffic.Result{}, err
			}
			return traffic.Run(sc.mix, sc.policy, tr, opts)
		}), true
	}
	return nil, false
}

// resolveTraceStats resolves trace/stats/<workload>/.../core=<n>.
func resolveTraceStats(k engine.Key) (func() (any, error), bool) {
	if k.Config != "stats" {
		return nil, false
	}
	var core int
	if n, err := fmt.Sscanf(k.Variant, "core=%d", &core); n != 1 || err != nil {
		return nil, false
	}
	prof, err := trace.CPUWorkload(k.Workload)
	if err != nil {
		return nil, false
	}
	return func() (any, error) {
		g, err := trace.NewGenerator(prof, k.Seed, core)
		if err != nil {
			return nil, err
		}
		return trace.Summarize(g, k.Instr), nil
	}, true
}

// job adapts a typed simulation to an engine job: a failed run returns
// no result.
func job[R any](run func() (R, error)) func() (any, error) {
	return func() (any, error) {
		res, err := run()
		if err != nil {
			return nil, err
		}
		return res, nil
	}
}

// The name sets of the kinds whose configs are composed names, built on
// first use. soc.ParseConfig also accepts mixes outside DefaultSpace, so
// the space's names, not the grammar, decide which soc keys resolve.
var (
	socMixes = sync.OnceValue(func() map[string]soc.Config {
		m := make(map[string]soc.Config)
		for _, cfg := range soc.DefaultSpace() {
			m[cfg.Name()] = cfg
		}
		return m
	})
	trafficScenarios = sync.OnceValue(func() map[string]trafficScenario {
		m := make(map[string]trafficScenario)
		for _, name := range traffic.DefaultMixes {
			mix, err := soc.ParseConfig(name)
			if err != nil {
				continue // not a mix: none of its scenarios resolves
			}
			for _, p := range traffic.Policies() {
				m[traffic.ScenarioName(mix, p.Name())] = trafficScenario{mix, p}
			}
		}
		return m
	})
	trafficTraces = sync.OnceValue(func() map[string]bool {
		m := make(map[string]bool)
		for _, name := range traffic.TraceNames() {
			m[name] = true
		}
		return m
	})
)

// trafficScenario is a resolvable traffic config: a core mix and a
// scheduling policy.
type trafficScenario struct {
	mix    soc.Config
	policy governor.Scheduler
}

// Resolvable reports whether Resolve can reconstruct the job for k —
// i.e. whether the key may execute on a remote worker.
func Resolvable(k engine.Key) bool {
	_, ok := Resolve(k, nil)
	return ok
}
