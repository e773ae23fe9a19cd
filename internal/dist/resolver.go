package dist

import (
	"fmt"

	"hetcore/internal/engine"
	"hetcore/internal/hetsim"
	"hetcore/internal/obs"
	"hetcore/internal/trace"
)

// The soc package registers its runner with hetsim from package init;
// the codec's import of it (codec.go) makes "soc/..." keys resolvable
// on daemons too.

// Resolve maps a stock engine key back to the simulation it denotes, so
// a daemon that received only the key can execute the job. Device keys
// go through the hetsim runner registry — any registered device kind
// resolves the same way:
//
//	cpu/<config>/<workload>/s<seed>/i<instr>   hetsim.RunCPU
//	gpu/<config>/<kernel>/s<seed>/i0           hetsim.RunGPU
//	cmp/HeteroCMP[-nomig]/<workload>/...       hetsim.RunHeteroCMP
//	soc/c<N>t<M>g<K>/<workload>/...            soc composition
//	trace/stats/<workload>/.../core=<n>        trace.Summarize
//
// Keys carrying variants (sweeps, one-core components) mutate their
// config out-of-band and return ok=false: they must execute in the
// process that built them. Devices whose results ignore the instruction
// budget (InstrInKey == false) only resolve with Instr pinned to 0. o
// receives the executing side's telemetry.
func Resolve(k engine.Key, o *obs.Observer) (func() (any, error), bool) {
	if r, ok := hetsim.RunnerFor(k.Device); ok {
		if k.Variant != "" {
			return nil, false
		}
		if !r.InstrInKey && k.Instr != 0 {
			return nil, false
		}
		if !r.HasConfig(k.Config) || !r.HasWorkload(k.Workload) {
			return nil, false
		}
		return func() (any, error) {
			res, err := r.Run(k.Config, k.Workload, hetsim.RunOpts{
				TotalInstructions: k.Instr, Seed: k.Seed, Obs: o})
			if err != nil {
				return nil, err
			}
			return res, nil
		}, true
	}
	if k.Device == "trace" {
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
	return nil, false
}

// Resolvable reports whether Resolve can reconstruct the job for k —
// i.e. whether the key may execute on a remote worker.
func Resolvable(k engine.Key) bool {
	_, ok := Resolve(k, nil)
	return ok
}
