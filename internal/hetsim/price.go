package hetsim

import (
	"fmt"

	"hetcore/internal/energy"
	"hetcore/internal/obs"
	"hetcore/internal/trace"
)

// A CPU run splits into two steps: simulate, which measures cycles and
// the activity vector, and price, which turns them into time at the
// configuration's clock and energy under its technology assignment.
// Memory latency is set in cycles (DRAMFixedCycles), so the simulated
// step of two configurations that differ only in clock, assignment and
// voltage adjustments is identical: one simulation prices them all.

// SameTiming reports whether a and b simulate cycle for cycle alike: they
// are equal once the name, notes and technology assignment are cleared,
// and, when DRAM latency is fixed in cycles, the clock too.
func SameTiming(a, b CPUConfig) bool {
	return timingOf(a) == timingOf(b)
}

// timingOf clears every field of cfg that only prices a run.
func timingOf(cfg CPUConfig) CPUConfig {
	cfg.Name, cfg.Notes, cfg.Assign = "", "", energy.CPUAssign{}
	if cfg.Hier.DRAMFixedCycles > 0 {
		cfg.Core.FreqGHz, cfg.Hier.FreqGHz = 0, 0
	}
	return cfg
}

// price fills in the fields of a simulated result that depend on the
// configuration beyond its timing: the name, the execution time at its
// clock and the energy of r.Activity under the (adjusted) assignment.
func price(r CPUResult, cfg CPUConfig, asn energy.CPUAssign) (CPUResult, error) {
	r.Config = cfg.Name
	r.TimeSec = float64(r.Cycles) / (cfg.FreqGHz() * 1e9)
	act := r.Activity
	act.TimeSec = r.TimeSec
	bd, err := energy.ComputeCPU(energy.DefaultCPULibrary(), act, asn)
	if err != nil {
		return CPUResult{}, err
	}
	r.Energy = bd
	return r, nil
}

// Reprice returns exactly what RunCPU(to, …) with the given voltage
// adjustments would, from r = RunCPU(from, …) on the same workload,
// seed and budget. Zero adjustments mean identity, as in RunOpts. It
// fails when the two configurations differ in timing, when r was not
// measured on from, or when r carries no activity (a result decoded
// from before the field existed).
func Reprice(r CPUResult, from, to CPUConfig, cmosAdj, tfetAdj energy.Scale) (CPUResult, error) {
	if !SameTiming(from, to) {
		return CPUResult{}, fmt.Errorf("hetsim: cannot reprice %s as %s: timing differs", from.Name, to.Name)
	}
	if r.Config != from.Name || r.Cores != from.Cores {
		return CPUResult{}, fmt.Errorf("hetsim: result of %s (%d cores) is not a run of %s (%d cores)",
			r.Config, r.Cores, from.Name, from.Cores)
	}
	if r.Activity == (energy.CPUActivity{}) {
		return CPUResult{}, fmt.Errorf("hetsim: %s/%s carries no activity to reprice", r.Config, r.Workload)
	}
	o := RunOpts{CMOSAdjust: cmosAdj, TFETAdjust: tfetAdj}.withDefaults()
	return price(r, to, adjustAssign(to.Assign, o.CMOSAdjust, o.TFETAdjust))
}

// TimingRep returns the configuration whose simulation stands for cfg's
// timing class: the first entry of CPUConfigs(), as listed or in its
// SingleCore form, with the same timing as cfg. Picking in registry
// order rather than caller order makes every caller simulate the same
// representative. A configuration outside every class stands for
// itself.
func TimingRep(cfg CPUConfig) CPUConfig {
	for _, c := range CPUConfigs() {
		for _, cand := range []CPUConfig{c, SingleCore(c)} {
			if SameTiming(cand, cfg) {
				return cand
			}
		}
	}
	return cfg
}

// CPUView is one requested CPU result: a configuration on a workload,
// priced with voltage adjustments (zero means identity).
type CPUView struct {
	Config           CPUConfig
	Profile          trace.Profile
	CMOSAdj, TFETAdj energy.Scale
}

// Simulator runs a batch of timing representatives (views with no
// adjustments) and returns one result per view, in order.
type Simulator func(reps []CPUView) ([]CPUResult, error)

// Simulate returns a Simulator that runs each representative in this
// process, one after another, with opts' workload options.
func Simulate(opts RunOpts) Simulator {
	return func(reps []CPUView) ([]CPUResult, error) {
		out := make([]CPUResult, len(reps))
		for i, v := range reps {
			var err error
			if out[i], err = RunCPU(v.Config, v.Profile, opts); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
}

// RunPriced returns the result of every view while simulating each
// (timing class, workload) pair once: sim receives the distinct
// representatives (TimingRep) in first-use order, and every view is
// priced from its representative's run. Views that differ from their
// representative in configuration or adjustments add to o's
// cpu.priced_views counter; nil o counts nothing.
func RunPriced(views []CPUView, o *obs.Observer, sim Simulator) ([]CPUResult, error) {
	type repKey struct {
		cfg      CPUConfig
		workload string
	}
	index := make(map[repKey]int)
	repOf := make(map[CPUConfig]CPUConfig) // views repeat a config per workload
	var reps []CPUView
	of := make([]int, len(views))
	for i, v := range views {
		rep, ok := repOf[v.Config]
		if !ok {
			rep = TimingRep(v.Config)
			repOf[v.Config] = rep
		}
		k := repKey{rep, v.Profile.Name}
		j, ok := index[k]
		if !ok {
			j = len(reps)
			index[k] = j
			reps = append(reps, CPUView{Config: rep, Profile: v.Profile})
		}
		of[i] = j
	}
	runs, err := sim(reps)
	if err != nil {
		return nil, err
	}
	out := make([]CPUResult, len(views))
	var priced uint64
	for i, v := range views {
		rep := reps[of[i]].Config
		if v.Config == rep && v.CMOSAdj == (energy.Scale{}) && v.TFETAdj == (energy.Scale{}) {
			out[i] = runs[of[i]]
			continue
		}
		if out[i], err = Reprice(runs[of[i]], rep, v.Config, v.CMOSAdj, v.TFETAdj); err != nil {
			return nil, err
		}
		priced++
	}
	if reg := o.Reg(); reg != nil && priced > 0 {
		reg.Counter("cpu.priced_views").Add(priced)
	}
	return out, nil
}
