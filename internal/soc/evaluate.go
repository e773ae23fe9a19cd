package soc

import (
	"fmt"
	"math"

	"hetcore/internal/energy"
	"hetcore/internal/governor"
	"hetcore/internal/trace"
)

// Result is one evaluated (SoC config, workload) point. All fields are
// plain values so the dist codec round-trips it exactly.
//
// The time model is the lumos-style Amdahl composition: the serial
// fraction of the instruction stream runs on the fastest core present;
// the parallel remainder splits between one offload target (OffloadFrac
// of it, when the dispatcher picks one) and the cores (rate-proportional
// shares, so they finish together); the parallel phase ends when the
// slower of the two sides does. Dynamic energy charges each instruction
// at its executing component's per-instruction cost; every powered
// component leaks for the whole runtime. The fixed uncore counts against
// the area/power budget only, not the energy composition (its activity
// is already folded into the per-core measurements' L2/L3 terms).
type Result struct {
	Config   string `json:"config"`
	Workload string `json:"workload"`

	CMOSCores  int    `json:"cmos_cores"`
	TFETCores  int    `json:"tfet_cores"`
	GPUCUs     int    `json:"gpu_cus"`
	AccelUnits int    `json:"accel_units"`
	AccelTech  string `json:"accel_tech"`

	// AreaMM2 and PeakW are the static footprint sums (uncore included).
	AreaMM2 float64 `json:"area_mm2"`
	PeakW   float64 `json:"peak_w"`

	// SerialFrac is the workload's Amdahl serial fraction; Target the
	// dispatcher's placement of the offloadable fraction ("cores",
	// "gpu" or "accel"); OffloadFrac the share of parallel work actually
	// moved off the cores (0 when Target is "cores").
	SerialFrac  float64 `json:"serial_frac"`
	Target      string  `json:"target"`
	OffloadFrac float64 `json:"offload_frac"`

	// Instructions is the composed instruction total; SerialInstrs,
	// CoreInstrs, GPUInstrs and AccelInstrs its split (floats: shares
	// are fractional).
	Instructions uint64  `json:"instructions"`
	SerialInstrs float64 `json:"serial_instrs"`
	CoreInstrs   float64 `json:"core_instrs"`
	GPUInstrs    float64 `json:"gpu_instrs"`
	AccelInstrs  float64 `json:"accel_instrs"`

	SerialSec   float64 `json:"serial_sec"`
	ParallelSec float64 `json:"parallel_sec"`
	TimeSec     float64 `json:"time_sec"`

	CoreDynJ  float64 `json:"core_dyn_j"`
	GPUDynJ   float64 `json:"gpu_dyn_j"`
	AccelDynJ float64 `json:"accel_dyn_j"`
	LeakJ     float64 `json:"leak_j"`
}

// Result implements the hetsim device-independent Result surface.
func (r Result) Seconds() float64      { return r.TimeSec }
func (r Result) TotalEnergyJ() float64 { return r.CoreDynJ + r.GPUDynJ + r.AccelDynJ + r.LeakJ }
func (r Result) ED2() float64          { return energy.ED2(r.TotalEnergyJ(), r.TimeSec) }

// placement is one candidate's full composition: the offload split and
// the resulting times and dynamic energies.
type placement struct {
	offloadFrac                      float64
	coreI, gpuI, accelI              float64
	parallelSec, timeSec             float64
	coreDyn, gpuDyn, accelDyn, leakJ float64
}

// Evaluate composes one (config, workload) point from measured
// components with the default ED²-at-budget dispatcher
// (governor.DispatchED2).
func Evaluate(cfg Config, wl Workload, totalInstr uint64, comps Components) (Result, error) {
	return EvaluateWith(cfg, wl, totalInstr, comps, governor.DispatchED2)
}

// EvaluateWith composes one (config, workload) point from measured
// components, asking dispatch to place the workload's offloadable
// fraction. The candidate list is ordered cores, gpu, accel (present
// components only), and each candidate is priced as the whole run under
// that placement; ties therefore keep work on the cores. totalInstr 0
// defaults to the hetsim CPU default (400 000) so stock engine keys
// line up. Pure float arithmetic in declared order: equal inputs give
// bit-equal outputs on every host.
func EvaluateWith(cfg Config, wl Workload, totalInstr uint64, comps Components, dispatch governor.Dispatcher) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if err := comps.Validate(); err != nil {
		return Result{}, err
	}
	if cfg.GPUCUs > 0 && comps.GPU.RateIPSPerCU <= 0 {
		return Result{}, fmt.Errorf("soc: %s has %d CUs but no GPU component measured",
			cfg.Name(), cfg.GPUCUs)
	}
	accel := comps.Accel(cfg.AccelTech)
	if cfg.AccelUnits > 0 && accel.RateIPSPerUnit <= 0 {
		return Result{}, fmt.Errorf("soc: %s has %d accelerator units but no %s accelerator component measured",
			cfg.Name(), cfg.AccelUnits, cfg.AccelTech)
	}
	if totalInstr == 0 {
		totalInstr = 400_000
	}
	prof, err := trace.CPUWorkload(wl.Name)
	if err != nil {
		return Result{}, err
	}

	// Instruction split, truncated the same way RunCPU rounds a 1-core
	// quota. A single-core SoC therefore tracks the component run to the
	// core's chunk-boundary overshoot (a run commits a handful of
	// instructions past its quota; the composition charges the quota).
	serialI := float64(uint64(float64(totalInstr) * prof.SerialFrac))
	parallelI := float64(uint64(float64(totalInstr) * (1 - prof.SerialFrac)))

	c := float64(cfg.CMOSCores)
	t := float64(cfg.TFETCores)

	// Serial phase on the fastest core present.
	serial := comps.CMOS
	if cfg.CMOSCores == 0 || (cfg.TFETCores > 0 && comps.TFET.RateIPS > comps.CMOS.RateIPS) {
		serial = comps.TFET
	}
	serialSec := serialI / serial.RateIPS
	coreRate := c*comps.CMOS.RateIPS + t*comps.TFET.RateIPS

	// Every powered component leaks for the whole runtime regardless of
	// where the offloadable fraction lands; the Component surface makes
	// the sum uniform across classes.
	leakW := 0.0
	for _, u := range []struct {
		comp Component
		n    int
	}{
		{comps.CMOS, cfg.CMOSCores},
		{comps.TFET, cfg.TFETCores},
		{comps.GPU, cfg.GPUCUs},
		{accel, cfg.AccelUnits},
	} {
		leakW += float64(u.n) * u.comp.UnitLeakW()
	}

	// Price each placement of the offloadable fraction as the whole run.
	place := func(target string, off Component, units int, offloadFrac float64) placement {
		p := placement{offloadFrac: offloadFrac}
		offI := parallelI * offloadFrac
		p.coreI = parallelI - offI
		coreSec := p.coreI / coreRate
		offSec := 0.0
		offDyn := 0.0
		if offI > 0 {
			offSec = offI / (float64(units) * off.UnitRateIPS())
			offDyn = offI * off.UnitDynJPerInstr()
		}
		switch target {
		case "gpu":
			p.gpuI, p.gpuDyn = offI, offDyn
		case "accel":
			p.accelI, p.accelDyn = offI, offDyn
		}
		p.parallelSec = math.Max(coreSec, offSec)
		p.timeSec = serialSec + p.parallelSec
		p.coreDyn = serialI*serial.DynJPerInstr +
			p.coreI*(c*comps.CMOS.RateIPS*comps.CMOS.DynJPerInstr+
				t*comps.TFET.RateIPS*comps.TFET.DynJPerInstr)/coreRate
		p.leakJ = leakW * p.timeSec
		return p
	}

	targets := []string{"cores"}
	placements := []placement{place("cores", nil, 0, 0)}
	if cfg.GPUCUs > 0 {
		targets = append(targets, "gpu")
		placements = append(placements, place("gpu", comps.GPU, cfg.GPUCUs, wl.OffloadFrac))
	}
	if cfg.AccelUnits > 0 {
		targets = append(targets, "accel")
		placements = append(placements, place("accel", accel, cfg.AccelUnits, wl.OffloadFrac))
	}
	cands := make([]governor.Candidate, len(placements))
	for i, p := range placements {
		cands[i] = governor.Candidate{
			Target:  targets[i],
			TimeSec: p.timeSec,
			EnergyJ: p.coreDyn + p.gpuDyn + p.accelDyn + p.leakJ,
		}
	}
	if dispatch == nil {
		dispatch = governor.DispatchED2
	}
	pick, err := dispatch(cands)
	if err != nil {
		return Result{}, err
	}
	if pick < 0 || pick >= len(placements) {
		return Result{}, fmt.Errorf("soc: dispatcher picked candidate %d of %d", pick, len(placements))
	}
	chosen := placements[pick]

	fp := cfg.Footprint()
	return Result{
		Config: cfg.Name(), Workload: wl.Name,
		CMOSCores: cfg.CMOSCores, TFETCores: cfg.TFETCores, GPUCUs: cfg.GPUCUs,
		AccelUnits: cfg.AccelUnits, AccelTech: string(cfg.AccelTech),
		AreaMM2: fp.AreaMM2, PeakW: fp.PeakW,
		SerialFrac: prof.SerialFrac, Target: targets[pick], OffloadFrac: chosen.offloadFrac,
		Instructions: uint64(serialI) + uint64(parallelI),
		SerialInstrs: serialI, CoreInstrs: chosen.coreI,
		GPUInstrs: chosen.gpuI, AccelInstrs: chosen.accelI,
		SerialSec: serialSec, ParallelSec: chosen.parallelSec, TimeSec: chosen.timeSec,
		CoreDynJ: chosen.coreDyn, GPUDynJ: chosen.gpuDyn, AccelDynJ: chosen.accelDyn,
		LeakJ: chosen.leakJ,
	}, nil
}
