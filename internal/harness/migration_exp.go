package harness

import (
	"fmt"

	"hetcore/internal/engine"
	"hetcore/internal/hetsim"
	"hetcore/internal/trace"
)

// cmpJob declares one heterogeneous-CMP run as an engine job ("cmp"
// device namespace; config names the machine, hetsim.HeteroCMPByName).
func (o Options) cmpJob(config string, prof trace.Profile) engine.Job {
	return engine.Job{
		Key: engine.Key{Device: "cmp", Config: config, Workload: prof.Name,
			Seed: o.Seed, Instr: o.Instructions},
		Run: func() (any, error) {
			hc, err := hetsim.HeteroCMPByName(config)
			if err != nil {
				return nil, err
			}
			res, err := hetsim.RunHeteroCMP(hc, prof, o.runOpts())
			if err != nil {
				return nil, fmt.Errorf("harness: %s/%s: %w", config, prof.Name, err)
			}
			return res, nil
		},
	}
}

// migrationCMPs are the CMP machines of the migration comparison: with
// and without barrier-aware migration.
var migrationCMPs = []string{"HeteroCMP", "HeteroCMP-nomig"}

// Migration reproduces the Section VIII comparison: the 4-core AdvHet
// multicore against an iso-area heterogeneous CMP (2 all-CMOS + 2
// all-TFET cores) with barrier-aware thread migration. The paper states
// AdvHet wins both performance and energy; the table shows time, energy
// and ED² of both machines (and of the CMP without migration), normalised
// to AdvHet. The three machines × workloads matrix runs as one plan; the
// AdvHet runs are stock CPU keys, so a shared engine reuses the fig7/8/9
// suite results.
func Migration(opts Options) (Table, error) {
	profiles, err := opts.cpuWorkloads()
	if err != nil {
		return Table{}, err
	}
	adv, err := hetsim.CPUConfigByName("AdvHet")
	if err != nil {
		return Table{}, err
	}

	jobs := make([]engine.Job, 0, 3*len(profiles))
	for _, p := range profiles {
		jobs = append(jobs, opts.cpuJob(adv, p))
		for _, c := range migrationCMPs {
			jobs = append(jobs, opts.cmpJob(c, p))
		}
	}
	outs, err := opts.engine().RunAll(jobs)
	if err != nil {
		return Table{}, err
	}

	var rows []Row
	var sums [6]float64
	for i, p := range profiles {
		ra := outs[3*i].(hetsim.CPUResult)
		rb := outs[3*i+1].(hetsim.HeteroCMPResult)
		rn := outs[3*i+2].(hetsim.HeteroCMPResult)
		vals := []float64{
			rb.TimeSec / ra.TimeSec,
			rb.Energy.Total() / ra.Energy.Total(),
			rb.ED2() / ra.ED2(),
			rn.TimeSec / ra.TimeSec,
			rn.Energy.Total() / ra.Energy.Total(),
			rn.ED2() / ra.ED2(),
		}
		for j, v := range vals {
			sums[j] += v
		}
		rows = append(rows, Row{Label: p.Name, Values: vals})
	}
	avg := make([]float64, len(sums))
	for i := range sums {
		avg[i] = sums[i] / float64(len(profiles))
	}
	rows = append(rows, Row{Label: "Average", Values: avg})
	return Table{
		ID:    "migration",
		Title: "Iso-area comparison: barrier-aware CMOS+TFET migration CMP vs AdvHet",
		Columns: []string{"mig-time", "mig-energy", "mig-ED2",
			"nomig-time", "nomig-energy", "nomig-ED2"},
		Rows:  rows,
		Notes: "Normalised to AdvHet (>1 means AdvHet wins). Section VIII.",
	}, nil
}
