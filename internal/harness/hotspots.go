package harness

import (
	"bytes"
	"fmt"
	"runtime"
	runpprof "runtime/pprof"
	"time"

	"hetcore/internal/gpu"
	"hetcore/internal/hetsim"
	"hetcore/internal/prof"
	"hetcore/internal/trace"
)

// HotspotsOptions configures a RunHotspots measurement.
type HotspotsOptions struct {
	// Device selects the simulator: "cpu" (default) or "gpu".
	Device string
	// Config is the architecture configuration (default BaseCMOS).
	Config string
	// Workload is the CPU workload or GPU kernel (defaults: barnes /
	// MatrixMultiplication).
	Workload string
	// Instructions is the CPU instruction budget (0 = 2M; ignored for
	// GPU, whose kernels have fixed wave budgets).
	Instructions uint64
	Seed         uint64
	// TopN bounds the flat function tables (0 = 10). The cumulative
	// table lists 3*TopN: it opens with the call chain from main down to
	// the simulator loop, all near 100%, and the pipeline phases sit
	// below it (Core.commit ranks about 17th for barnes).
	TopN int
}

// RunHotspots runs one workload under a CPU profile and a heap profile,
// then parses the pprof protos and assembles the hetcore.prof/v1
// report: top-N functions by cumulative CPU time, by flat CPU time and
// by allocation. It must not run while another CPU profile is active
// (StartCPUProfile is process-global).
func RunHotspots(opts HotspotsOptions) (*prof.Report, error) {
	if opts.Device == "" {
		opts.Device = "cpu"
	}
	if opts.Config == "" {
		opts.Config = "BaseCMOS"
	}
	if opts.TopN == 0 {
		opts.TopN = 10
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}

	var cpuBuf bytes.Buffer
	if err := runpprof.StartCPUProfile(&cpuBuf); err != nil {
		return nil, fmt.Errorf("harness: starting CPU profile: %w", err)
	}
	rep := &prof.Report{
		Schema:    prof.SchemaVersion,
		GoVersion: runtime.Version(),
		Device:    opts.Device,
		Config:    opts.Config,
	}
	start := time.Now()
	var runErr error
	switch opts.Device {
	case "cpu":
		instr := opts.Instructions
		if instr == 0 {
			instr = 2_000_000
		}
		cfg, err := hetsim.CPUConfigByName(opts.Config)
		if err != nil {
			runErr = err
			break
		}
		if opts.Workload == "" {
			opts.Workload = "barnes"
		}
		wl, err := trace.CPUWorkload(opts.Workload)
		if err != nil {
			runErr = err
			break
		}
		res, err := hetsim.RunCPU(cfg, wl,
			hetsim.RunOpts{TotalInstructions: instr, Seed: opts.Seed})
		if err != nil {
			runErr = err
			break
		}
		rep.Workload = wl.Name
		rep.Instructions = res.Instructions
	case "gpu":
		cfg, err := hetsim.GPUConfigByName(opts.Config)
		if err != nil {
			runErr = err
			break
		}
		if opts.Workload == "" {
			opts.Workload = "MatrixMultiplication"
		}
		kern, err := gpu.KernelByName(opts.Workload)
		if err != nil {
			runErr = err
			break
		}
		res, err := hetsim.RunGPU(cfg, kern, opts.Seed)
		if err != nil {
			runErr = err
			break
		}
		rep.Workload = kern.Name
		rep.Instructions = res.WaveInsts
	default:
		runErr = fmt.Errorf("harness: unknown hotspots device %q (want cpu or gpu)", opts.Device)
	}
	runpprof.StopCPUProfile()
	if runErr != nil {
		return nil, runErr
	}
	rep.WallSeconds = time.Since(start).Seconds()

	var heapBuf bytes.Buffer
	runtime.GC()
	if err := runpprof.WriteHeapProfile(&heapBuf); err != nil {
		return nil, fmt.Errorf("harness: writing heap profile: %w", err)
	}

	cpuProf, err := prof.ParseProfile(cpuBuf.Bytes())
	if err != nil {
		return nil, fmt.Errorf("harness: parsing CPU profile: %w", err)
	}
	if idx := cpuProf.ValueIndex("cpu"); idx >= 0 {
		rep.CPUCumTop = cpuProf.TopCumulative(idx, 3*opts.TopN)
		rep.CPUTop = cpuProf.TopFunctions(idx, opts.TopN)
	}
	heapProf, err := prof.ParseProfile(heapBuf.Bytes())
	if err != nil {
		return nil, fmt.Errorf("harness: parsing heap profile: %w", err)
	}
	if idx := heapProf.ValueIndex("alloc_space"); idx >= 0 {
		rep.HeapTop = heapProf.TopFunctions(idx, opts.TopN)
	}
	return rep, nil
}
