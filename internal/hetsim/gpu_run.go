package hetsim

import (
	"fmt"
	"time"

	"hetcore/internal/energy"
	"hetcore/internal/gpu"
	"hetcore/internal/obs"
)

// GPUResult is one (configuration, kernel) measurement.
type GPUResult struct {
	Config string
	Kernel string
	CUs    int

	Cycles  uint64
	TimeSec float64
	Energy  energy.GPUBreakdown

	WaveInsts      uint64
	RFCacheHitRate float64

	// Attr bins every device cycle into one top-down bucket
	// (Attr.Total() == Cycles).
	Attr gpu.CycleAttr
}

// ED2 returns the energy-delay² product (J·s²).
func (r GPUResult) ED2() float64 { return energy.ED2(r.Energy.Total(), r.TimeSec) }

// GPUResult implements the device-independent Result surface.
var _ Result = GPUResult{}

func (r GPUResult) Seconds() float64      { return r.TimeSec }
func (r GPUResult) TotalEnergyJ() float64 { return r.Energy.Total() }

// RunGPU executes a kernel on a GPU configuration.
func RunGPU(cfg GPUConfig, kern gpu.Kernel, seed uint64) (GPUResult, error) {
	return RunGPUObserved(cfg, kern, seed, nil)
}

// RunGPUObserved is RunGPU with observability: metrics, a per-device
// trace timeline and a run record flow into o (nil disables all three).
func RunGPUObserved(cfg GPUConfig, kern gpu.Kernel, seed uint64, o *obs.Observer) (GPUResult, error) {
	wallStart := time.Now()
	dev, err := gpu.NewDevice(cfg.Dev, kern, seed)
	if err != nil {
		return GPUResult{}, fmt.Errorf("hetsim %s: %w", cfg.Name, err)
	}
	attachGPUTelemetry(o, "gpu."+cfg.Name+"."+kern.Name+".", cfg, dev)
	s := dev.Run()
	o.Prog().AddTarget(s.WaveInsts)
	o.Prog().Add(s.WaveInsts)

	timeSec := s.TimeNS(cfg.Dev.FreqGHz) * 1e-9
	bd, err := priceGPU(cfg, s, timeSec)
	if err != nil {
		return GPUResult{}, err
	}
	res := GPUResult{
		Config: cfg.Name, Kernel: kern.Name, CUs: cfg.Dev.CUs,
		Cycles: s.Cycles, TimeSec: timeSec, Energy: bd,
		WaveInsts: s.WaveInsts, RFCacheHitRate: s.RFCacheHitRate(),
		Attr: s.Attr,
	}
	if o.Enabled() {
		ipc := 0.0
		if s.Cycles > 0 {
			ipc = float64(s.WaveInsts) / float64(s.Cycles)
		}
		if tr := o.Tracer(); tr.Enabled() {
			pid := tr.NextPID()
			tr.ProcessName(pid, fmt.Sprintf("gpu %s / %s", cfg.Name, kern.Name))
			tr.ThreadName(pid, 0, "device")
			tr.Complete(pid, 0, "kernel", "sim",
				0, obs.SimTS(s.Cycles, cfg.Dev.FreqGHz),
				map[string]any{"wave_insts": s.WaveInsts, "ipc": ipc})
			if timeSec > 0 {
				tr.CounterSample(pid, "avg_power_w",
					obs.SimTS(s.Cycles, cfg.Dev.FreqGHz),
					map[string]float64{"total": bd.Total() / timeSec})
			}
		}
		o.FinishRecord(obs.RunRecord{
			Kind: "gpu", Config: cfg.Name, Workload: kern.Name,
			Seed:         seed,
			Instructions: s.WaveInsts, Cycles: s.Cycles, CoreCycles: s.Attr.Total(),
			TimeSec: timeSec, IPC: ipc,
			CycleAttribution: s.Attr.Map(),
			EnergyJ:          bd.Map(),
			Extra: map[string]float64{
				"rf_cache_hit_rate": s.RFCacheHitRate(),
			},
		}, wallStart, s.WaveInsts)
	}
	return res, nil
}
