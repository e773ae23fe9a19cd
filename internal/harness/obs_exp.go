package harness

import (
	"fmt"

	"hetcore/internal/cpu"
	"hetcore/internal/engine"
	"hetcore/internal/gpu"
	"hetcore/internal/hetsim"
)

// cyclesConfigs is the configuration set of the cycle-attribution
// experiments: the main Figure 7/10 design points.
var cyclesConfigs = []string{"BaseCMOS", "BaseTFET", "BaseHet", "AdvHet"}

// CPUCycles reports the top-down CPU cycle attribution: for each design,
// the fraction of core cycles spent committing vs stalled on memory,
// mispredict recovery, fetch, rename backpressure or empty issue. This is
// the diagnostic behind the paper's Figure 7 slowdowns — it shows *where*
// the TFET latencies go. The runs are a subset of the fig7 suite, so a
// shared engine serves them from cache.
func CPUCycles(opts Options) (Table, error) {
	results, workloads, err := cpuSuite(cyclesConfigs, opts)
	if err != nil {
		return Table{}, err
	}

	cols := []string{"commit", "mem", "mispredict", "fetch", "rename", "issue"}
	rows := make([]Row, 0, len(cyclesConfigs))
	for _, cn := range cyclesConfigs {
		var attr cpu.CycleAttr
		var cycles uint64
		for _, w := range workloads {
			res := results[cn][w]
			attr = attr.Add(res.Attr)
			cycles += res.CoreCycles
		}
		if got := attr.Total(); got != cycles {
			return Table{}, fmt.Errorf("harness: %s attribution sums to %d of %d cycles", cn, got, cycles)
		}
		f := func(v uint64) float64 { return float64(v) / float64(max(cycles, 1)) }
		rows = append(rows, Row{Label: cn, Values: []float64{
			f(attr.CommitBound), f(attr.MemStall), f(attr.MispredictRecovery),
			f(attr.FetchStall), f(attr.RenameStall), f(attr.IssueStall),
		}})
	}
	return Table{
		ID: "cycles", Title: "Top-down CPU cycle attribution",
		Columns: cols, Rows: rows,
		Notes: "Fraction of core cycles per bucket, summed over workloads; rows sum to 1.",
	}, nil
}

// GPUCycles reports the top-down GPU cycle attribution per design:
// SIMD-busy vs memory-wait vs register-file port conflicts vs scheduler
// idle. The RFConflict column isolates the slow-TFET-RF cost that the
// AdvHet register file cache recovers. Runs are stock GPU keys shared
// with the fig10/11/12 matrix.
func GPUCycles(opts Options) (Table, error) {
	kernels, err := opts.gpuKernels()
	if err != nil {
		return Table{}, err
	}
	jobs := make([]engine.Job, 0, len(cyclesConfigs)*len(kernels))
	for _, cn := range cyclesConfigs {
		cfg, err := hetsim.GPUConfigByName(cn)
		if err != nil {
			return Table{}, err
		}
		for _, k := range kernels {
			jobs = append(jobs, opts.gpuJob(cfg, k))
		}
	}
	outs, err := opts.engine().RunAll(jobs)
	if err != nil {
		return Table{}, err
	}

	cols := []string{"simd_busy", "mem_wait", "rf_conflict", "sched_idle"}
	rows := make([]Row, 0, len(cyclesConfigs))
	ji := 0
	for _, cn := range cyclesConfigs {
		var attr gpu.CycleAttr
		var cycles uint64
		for range kernels {
			res := outs[ji].(hetsim.GPUResult)
			ji++
			attr.SIMDBusy += res.Attr.SIMDBusy
			attr.MemWait += res.Attr.MemWait
			attr.RFConflict += res.Attr.RFConflict
			attr.SchedIdle += res.Attr.SchedIdle
			cycles += res.Cycles
		}
		if got := attr.Total(); got != cycles {
			return Table{}, fmt.Errorf("harness: %s attribution sums to %d of %d cycles", cn, got, cycles)
		}
		f := func(v uint64) float64 { return float64(v) / float64(max(cycles, 1)) }
		rows = append(rows, Row{Label: cn, Values: []float64{
			f(attr.SIMDBusy), f(attr.MemWait), f(attr.RFConflict), f(attr.SchedIdle),
		}})
	}
	return Table{
		ID: "gpucycles", Title: "Top-down GPU cycle attribution",
		Columns: cols, Rows: rows,
		Notes: "Fraction of device cycles per bucket, summed over kernels; rows sum to 1.",
	}, nil
}
