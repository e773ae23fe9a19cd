package traffic

import (
	"time"

	"hetcore/internal/governor"
	"hetcore/internal/hetsim"
	"hetcore/internal/soc"
)

// A traffic scenario names a core mix and a policy: "<mix>+<policy>",
// e.g. "c4t4g0+cacheaware". "+" is engine-key safe, and neither the soc
// grammar nor policy names contain it, so each name has one reading.

// ScenarioName composes the canonical scenario name.
func ScenarioName(mix soc.Config, policy string) string {
	return mix.Name() + "+" + policy
}

// DefaultMixes is the scenario matrix's core-mix axis: the paper's
// balanced hetero mix against an all-CMOS fleet of the same core count.
var DefaultMixes = []string{"c4t4g0", "c8t0g0"}

// Run simulates the scenario on the trace as a daemon does from a key
// traffic/<mix>+<policy>/<trace>/s<seed>/i<instr> alone: it measures its
// own per-workload services (MeasureServices) and simulates with stock
// knobs (default request size, SLO, no power budget). Non-default knobs
// or file traces go through harness Variant keys instead, which never
// resolve remotely.
func Run(mix soc.Config, policy governor.Scheduler, tr Trace, opts hetsim.RunOpts) (Result, error) {
	wallStart := time.Now()
	services, err := MeasureServices(MixWorkloads(), opts.Seed, opts.TotalInstructions)
	if err != nil {
		return Result{}, err
	}
	res, err := Simulate(SimOptions{
		SoC:      mix,
		Policy:   policy,
		Trace:    tr,
		Services: services,
		Seed:     opts.Seed,
		Obs:      opts.Obs,
	})
	if err != nil {
		return Result{}, err
	}
	opts.Obs.FinishRecord(res.Record(opts.Seed), wallStart, res.Completed*res.ReqInstr)
	return res, nil
}
