package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"hetcore/internal/engine"
	"hetcore/internal/gpu"
	"hetcore/internal/hetsim"
	"hetcore/internal/obs"
	"hetcore/internal/trace"
)

// BenchRecord is the simulation-rate benchmark payload
// (BENCH_sim_rate.json): how many instructions per wall second the CPU
// and GPU models simulate on this host.
type BenchRecord struct {
	Schema    string `json:"schema"`
	GoVersion string `json:"go_version"`

	CPUWorkload     string  `json:"cpu_workload"`
	CPUInstructions uint64  `json:"cpu_instructions"`
	CPUWallSeconds  float64 `json:"cpu_wall_seconds"`
	CPUInstsPerSec  float64 `json:"cpu_insts_per_sec"`

	GPUKernel          string  `json:"gpu_kernel"`
	GPUWaveInsts       uint64  `json:"gpu_wave_insts"`
	GPUWallSeconds     float64 `json:"gpu_wall_seconds"`
	GPUWaveInstsPerSec float64 `json:"gpu_wave_insts_per_sec"`

	// Full-suite figures: the fig7 configuration matrix over a fixed
	// workload subset executed as one run plan on the engine worker
	// pool. SuiteRuns is deterministic; the wall time tracks the
	// parallel speedup on this host.
	SuiteJobs        int     `json:"suite_jobs,omitempty"`
	SuiteRuns        int     `json:"suite_runs,omitempty"`
	SuiteWallSeconds float64 `json:"suite_wall_seconds,omitempty"`
	SuiteRunsPerSec  float64 `json:"suite_runs_per_sec,omitempty"`
}

// benchSuiteWorkloads is the CPU workload subset of the full-suite
// benchmark: a cache-friendly, a branchy, an FP-heavy and a memory-bound
// profile.
var benchSuiteWorkloads = []string{"barnes", "radix", "blackscholes", "canneal"}

// MeasureSimRate times one single-core CPU run (BaseCMOS, barnes), one
// GPU kernel (BaseCMOS, MatrixMultiplication) and the fig7 configuration
// matrix over a four-workload subset run as a parallel plan (jobs
// workers; 0 = NumCPU), and reports simulated instructions per wall
// second plus the suite wall time. instr is the CPU instruction budget
// (0 = 2M, large enough to amortise setup).
func MeasureSimRate(instr, seed uint64, jobs int) (BenchRecord, error) {
	if instr == 0 {
		instr = 2_000_000
	}
	rec := BenchRecord{Schema: obs.SchemaVersion, GoVersion: runtime.Version()}

	cfg, err := hetsim.CPUConfigByName("BaseCMOS")
	if err != nil {
		return rec, err
	}
	prof, err := trace.CPUWorkload("barnes")
	if err != nil {
		return rec, err
	}
	opts := hetsim.RunOpts{TotalInstructions: instr, Seed: seed}
	start := time.Now()
	res, err := hetsim.RunCPU(cfg, prof, opts)
	if err != nil {
		return rec, err
	}
	wall := time.Since(start).Seconds()
	// Warmup (TotalInstructions/8 per core by default) is simulated work
	// too; count it in the rate.
	simulated := res.Instructions + uint64(cfg.Cores)*(instr/8)
	rec.CPUWorkload = prof.Name
	rec.CPUInstructions = simulated
	rec.CPUWallSeconds = wall
	if wall > 0 {
		rec.CPUInstsPerSec = float64(simulated) / wall
	}

	gcfg, err := hetsim.GPUConfigByName("BaseCMOS")
	if err != nil {
		return rec, err
	}
	kern, err := gpu.KernelByName("MatrixMultiplication")
	if err != nil {
		return rec, err
	}
	start = time.Now()
	gres, err := hetsim.RunGPU(gcfg, kern, seed)
	if err != nil {
		return rec, err
	}
	gwall := time.Since(start).Seconds()
	rec.GPUKernel = kern.Name
	rec.GPUWaveInsts = gres.WaveInsts
	rec.GPUWallSeconds = gwall
	if gwall > 0 {
		rec.GPUWaveInstsPerSec = float64(gres.WaveInsts) / gwall
	}

	// Full-suite wall time: the 6-config fig7 matrix over the workload
	// subset, executed through the run-plan engine so the measured
	// number tracks the parallel speedup -jobs delivers on this host.
	// Every cell simulates as its own job — the figures price BaseTFET
	// from BaseCMOS instead — so the suite stays the same 24 simulations
	// across records. A smaller per-run budget keeps the 6×4 matrix
	// comparable in cost to the single runs above.
	suiteOpts, err := Options{
		Instructions: instr / 4, Seed: seed, Jobs: jobs,
	}.WithSharedEngine()
	if err != nil {
		return rec, err
	}
	var suite []engine.Job
	for _, cn := range fig7Configs {
		cfg, err := hetsim.CPUConfigByName(cn)
		if err != nil {
			return rec, err
		}
		for _, w := range benchSuiteWorkloads {
			p, err := trace.CPUWorkload(w)
			if err != nil {
				return rec, err
			}
			suite = append(suite, suiteOpts.cpuJob(cfg, p))
		}
	}
	start = time.Now()
	if _, err := suiteOpts.Engine.RunAll(suite); err != nil {
		return rec, err
	}
	swall := time.Since(start).Seconds()
	rec.SuiteJobs = suiteOpts.Engine.Workers()
	rec.SuiteRuns = int(suiteOpts.Engine.JobsRun())
	rec.SuiteWallSeconds = swall
	if swall > 0 {
		rec.SuiteRunsPerSec = float64(rec.SuiteRuns) / swall
	}
	return rec, nil
}

// WriteJSON writes the benchmark record as indented JSON.
func (b BenchRecord) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(b); err != nil {
		return fmt.Errorf("harness: encoding bench record: %w", err)
	}
	return nil
}
