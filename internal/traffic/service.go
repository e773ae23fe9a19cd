package traffic

import (
	"fmt"
	"sort"

	"hetcore/internal/governor"
	"hetcore/internal/hetsim"
	"hetcore/internal/soc"
	"hetcore/internal/trace"
)

// ClassStats is one workload's measured behaviour on one core class,
// from a 1-core component run: throughput, energy and the cache-locality
// stats the cache-aware policy conditions on.
type ClassStats struct {
	RateIPS      float64 `json:"rate_ips"`
	DynJPerInstr float64 `json:"dyn_j_per_instr"`
	LeakW        float64 `json:"leak_w"`
	DL1MPKI      float64 `json:"dl1_mpki"`
	L2MPKI       float64 `json:"l2_mpki"`
}

// Service is one workload of the traffic mix, reduced to what the
// simulator and the schedulers need.
type Service struct {
	Workload   string     `json:"workload"`
	SerialFrac float64    `json:"serial_frac"`
	CMOS       ClassStats `json:"cmos"`
	TFET       ClassStats `json:"tfet"`
}

// classStatsOf reduces a 1-core run to class stats via the same
// soc.CoreComponentOf arithmetic the SoC search uses.
func classStatsOf(r hetsim.CPUResult) (ClassStats, error) {
	c, err := soc.CoreComponentOf(r)
	if err != nil {
		return ClassStats{}, err
	}
	return ClassStats{
		RateIPS:      c.RateIPS,
		DynJPerInstr: c.DynJPerInstr,
		LeakW:        c.LeakW,
		DL1MPKI:      r.DL1MPKI,
		L2MPKI:       r.L2MPKI,
	}, nil
}

// ServiceOf builds one mix entry from the workload's 1-core CMOS and
// TFET component runs. Both the harness (engine jobs) and the runner path
// (direct measurement) construct services through this one function, so
// a traffic scenario evaluates bit-identically wherever it runs.
func ServiceOf(cmos, tfet hetsim.CPUResult) (Service, error) {
	if cmos.Workload != tfet.Workload {
		return Service{}, fmt.Errorf("traffic: component runs disagree on workload (%s vs %s)",
			cmos.Workload, tfet.Workload)
	}
	prof, err := trace.CPUWorkload(cmos.Workload)
	if err != nil {
		return Service{}, err
	}
	s := Service{Workload: cmos.Workload, SerialFrac: prof.SerialFrac}
	if s.CMOS, err = classStatsOf(cmos); err != nil {
		return Service{}, err
	}
	if s.TFET, err = classStatsOf(tfet); err != nil {
		return Service{}, err
	}
	return s, nil
}

// MixWorkloads returns the traffic mix's workload names: all 14 entries
// of the SoC pairing table, sorted. The mix is fixed — engine keys name
// only (scenario, trace, seed, instr), so the workload set behind a key
// must never vary.
func MixWorkloads() []string {
	wls := soc.Workloads()
	out := make([]string, len(wls))
	for i, w := range wls {
		out[i] = w.Name
	}
	sort.Strings(out)
	return out
}

// MeasureServices measures the mix by running the 1-core component runs
// of soc.CoreRuns directly (soc.MeasureCoreRuns). The harness computes
// the same services through memoized engine jobs (sharing the soc
// search's "cores=1" cache entries); this direct path serves the dist
// resolver and the examples.
func MeasureServices(workloads []string, seed, totalInstr uint64) ([]Service, error) {
	runs, err := soc.MeasureCoreRuns(workloads, seed, totalInstr)
	if err != nil {
		return nil, err
	}
	out := make([]Service, len(workloads))
	for i := range workloads {
		if out[i], err = ServiceOf(runs[2*i], runs[2*i+1]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Loads renders the mix as the scheduler-facing WorkloadLoad slice for a
// given request size: uniform shares (arrivals draw uniformly) and
// per-class request costs at nominal frequency.
func Loads(services []Service, reqInstr uint64) []governor.WorkloadLoad {
	out := make([]governor.WorkloadLoad, len(services))
	share := 1.0 / float64(len(services))
	for i, s := range services {
		out[i] = governor.WorkloadLoad{
			Name:       s.Workload,
			Share:      share,
			SerialFrac: s.SerialFrac,
			DL1MPKI:    s.CMOS.DL1MPKI,
			L2MPKI:     s.CMOS.L2MPKI,
			CMOS:       requestCost(s.CMOS, reqInstr),
			TFET:       requestCost(s.TFET, reqInstr),
		}
	}
	return out
}

func requestCost(c ClassStats, reqInstr uint64) governor.ClassCost {
	return governor.ClassCost{
		ServiceSec: float64(reqInstr) / c.RateIPS,
		DynJ:       float64(reqInstr) * c.DynJPerInstr,
	}
}
