package harness

import (
	"sort"
	"sync"
	"time"

	"hetcore/internal/engine"
	"hetcore/internal/hetsim"
	"hetcore/internal/soc"
	"hetcore/internal/trace"
	"hetcore/internal/traffic"
)

// Prepass runs every CPU and CMP simulation of the paper experiments
// (cpuPlan) as one workload-major plan on opts' engine, so the
// experiments run afterwards with the same engine find them all in
// memory. The plan's local jobs read their instruction streams from one
// trace.StreamStore: each (workload, seed, core) stream is synthesized
// once and replayed to every run that reads it, instead of once per run.
// A workload's streams are released as soon as all of its planned jobs
// have been served, whichever cache level served them, and the store is
// dropped on return, so only the workloads in flight hold streams.
//
// Results and engine keys are those the experiments would compute
// themselves, and each run record carries the ID of the first
// experiment that asks for the run, as if that experiment had run it.
func Prepass(opts Options) error {
	o := opts.Obs
	o.SetPhase("prepass")
	start := time.Now()
	store := trace.NewStreamStore(o.Reg())
	plan, err := cpuPlan(opts, store)
	if err != nil {
		return err
	}
	jobs := make([]engine.Job, len(plan))
	left := make(map[string]int) // unserved jobs per workload
	for i, p := range plan {
		jobs[i] = p.Job
		left[p.prof.Name]++
	}
	var mu sync.Mutex
	_, err = opts.engine().RunAllNotify(jobs, func(i int) {
		prof := plan[i].prof
		mu.Lock()
		left[prof.Name]--
		done := left[prof.Name] == 0
		mu.Unlock()
		if done {
			store.Release(prof, opts.Seed)
		}
	})
	if tr := o.Tracer(); tr.Enabled() {
		tr.Complete(0, 0, "prepass", "harness",
			float64(start.UnixNano())/1e3,
			float64(time.Since(start).Nanoseconds())/1e3,
			map[string]any{"jobs": len(jobs)})
	}
	return err
}

// plannedJob is one simulation of the pre-pass plan and the workload
// whose streams it reads.
type plannedJob struct {
	engine.Job
	prof trace.Profile
}

// cpuPlan lists each distinct CPU and CMP engine job the experiments
// make, taken from the same lists they use: the timing representatives
// of the fig7, fig13 and cycles suites, both migration CMPs, and the
// one-core components of the SoC search and the traffic mix. Only the
// ablations' single AdvHet-CMA run is left to its experiment. Jobs are
// ordered by workload and, within one, as the experiments first ask for
// them. Each job reads store and labels its run record with the first
// experiment, in registry order, that makes it.
func cpuPlan(opts Options, store *trace.StreamStore) ([]plannedJob, error) {
	profiles, err := opts.cpuWorkloads()
	if err != nil {
		return nil, err
	}
	byExp := make(map[string]Options)
	at := func(exp string) Options {
		eo, ok := byExp[exp]
		if !ok {
			eo = opts
			eo.Streams, eo.Obs = store, opts.Obs.WithPhase(exp)
			byExp[exp] = eo
		}
		return eo
	}
	var plan []plannedJob
	seen := make(map[engine.Key]bool)
	add := func(j engine.Job, p trace.Profile) {
		if !seen[j.Key] {
			seen[j.Key] = true
			plan = append(plan, plannedJob{j, p})
		}
	}
	// reps adds the timing representative of each view, as
	// hetsim.RunPriced picks it.
	repOf := make(map[hetsim.CPUConfig]hetsim.CPUConfig)
	reps := func(exp string, views []hetsim.CPUView) error {
		eo := at(exp)
		for _, v := range views {
			rep, ok := repOf[v.Config]
			if !ok {
				rep = hetsim.TimingRep(v.Config)
				repOf[v.Config] = rep
			}
			j, err := eo.repJob(hetsim.CPUView{Config: rep, Profile: v.Profile})
			if err != nil {
				return err
			}
			add(j, v.Profile)
		}
		return nil
	}
	suite := func(exp string, configs []string) error {
		views, err := suiteViews(configs, profiles)
		if err != nil {
			return err
		}
		return reps(exp, views)
	}
	components := func(exp string, workloads []string) error {
		profs := make([]trace.Profile, len(workloads))
		for i, name := range workloads {
			if profs[i], err = trace.CPUWorkload(name); err != nil {
				return err
			}
		}
		views, err := soc.CoreViews(profs)
		if err != nil {
			return err
		}
		return reps(exp, views)
	}
	socWls, err := socWorkloads(opts)
	if err != nil {
		return nil, err
	}
	socNames := make([]string, len(socWls))
	for i, w := range socWls {
		socNames[i] = w.Name
	}

	// In registry order, so each job gets its first experiment.
	if err := suite("fig7", fig7Configs); err != nil {
		return nil, err
	}
	if err := suite("fig13", fig13Configs); err != nil {
		return nil, err
	}
	mig := at("migration")
	for _, p := range profiles {
		for _, c := range migrationCMPs {
			add(mig.cmpJob(c, p), p)
		}
	}
	if err := components("soc", socNames); err != nil {
		return nil, err
	}
	if err := components("traffic", traffic.MixWorkloads()); err != nil {
		return nil, err
	}
	if err := suite("cycles", cyclesConfigs); err != nil {
		return nil, err
	}

	order := make(map[string]int)
	for i, p := range trace.CPUWorkloads() {
		order[p.Name] = i
	}
	sort.SliceStable(plan, func(i, j int) bool {
		return order[plan[i].prof.Name] < order[plan[j].prof.Name]
	})
	return plan, nil
}
