package soc

import (
	"fmt"

	"hetcore/internal/device"
	"hetcore/internal/energy"
	"hetcore/internal/hetsim"
)

// Kappa converts GPU wave instructions to CPU-equivalent instructions: a
// 64-lane wavefront instruction does the work of ~16 scalar CPU
// instructions once divergence, masking and redundant lanes are
// discounted (a 25% utilisation haircut on the lane count). Used to
// express GPU throughput and per-instruction energy in the same units as
// the cores so the Amdahl split can move work between them.
const Kappa = 16.0

// Component is one replicable SoC building block reduced to its
// composition parameters: a measured per-unit throughput, dynamic energy
// per (CPU-equivalent) instruction and leakage power. The evaluator is
// written against this surface — leakage sums over every powered
// component, and the dispatcher prices each offload target by its unit
// rate and energy — so a new device class plugs in by implementing
// Component and appearing as a dispatch candidate, without touching the
// composition arithmetic.
type Component interface {
	// UnitRateIPS is one unit's CPU-equivalent instruction throughput.
	UnitRateIPS() float64
	// UnitDynJPerInstr is the dynamic energy per CPU-equivalent
	// instruction executed on this component (J).
	UnitDynJPerInstr() float64
	// UnitLeakW is one unit's leakage power while the SoC is on (W).
	UnitLeakW() float64
}

// CoreComponent is one CPU core type reduced to its composition
// parameters, measured from a 1-core hetsim run of the workload.
type CoreComponent struct {
	// Config is the hetsim CPU configuration measured (1-core variant).
	Config string
	// Workload is the measured workload profile.
	Workload string
	// RateIPS is the core's committed-instruction throughput (instr/s).
	RateIPS float64
	// DynJPerInstr is the dynamic energy per committed instruction (J).
	DynJPerInstr float64
	// LeakW is the core's leakage power while the SoC is on (W).
	LeakW float64
}

// CoreComponentOf derives composition parameters from a 1-core
// measurement.
func CoreComponentOf(r hetsim.CPUResult) (CoreComponent, error) {
	if r.Cores != 1 {
		return CoreComponent{}, fmt.Errorf("soc: component run %s/%s has %d cores, want 1",
			r.Config, r.Workload, r.Cores)
	}
	if r.Instructions == 0 || r.TimeSec <= 0 {
		return CoreComponent{}, fmt.Errorf("soc: component run %s/%s measured no work",
			r.Config, r.Workload)
	}
	return CoreComponent{
		Config:       r.Config,
		Workload:     r.Workload,
		RateIPS:      float64(r.Instructions) / r.TimeSec,
		DynJPerInstr: r.Energy.Dynamic() / float64(r.Instructions),
		LeakW:        r.Energy.Leakage() / r.TimeSec,
	}, nil
}

func (c CoreComponent) UnitRateIPS() float64      { return c.RateIPS }
func (c CoreComponent) UnitDynJPerInstr() float64 { return c.DynJPerInstr }
func (c CoreComponent) UnitLeakW() float64        { return c.LeakW }

// GPUComponent is the GPU reduced to per-CU composition parameters,
// measured from one kernel run and scaled linearly in the CU count.
type GPUComponent struct {
	// Config is the hetsim GPU configuration measured.
	Config string
	// Kernel is the measured kernel.
	Kernel string
	// RateIPSPerCU is the CPU-equivalent instruction throughput of one
	// CU (Kappa × wave-instruction rate / measured CUs).
	RateIPSPerCU float64
	// DynJPerInstr is the dynamic energy per CPU-equivalent instruction.
	DynJPerInstr float64
	// LeakWPerCU is one CU's leakage power while the SoC is on (W).
	LeakWPerCU float64
}

// GPUComponentOf derives per-CU composition parameters from a kernel
// measurement.
func GPUComponentOf(r hetsim.GPUResult) (GPUComponent, error) {
	if r.CUs <= 0 || r.WaveInsts == 0 || r.TimeSec <= 0 {
		return GPUComponent{}, fmt.Errorf("soc: GPU component run %s/%s measured no work",
			r.Config, r.Kernel)
	}
	equiv := Kappa * float64(r.WaveInsts)
	return GPUComponent{
		Config:       r.Config,
		Kernel:       r.Kernel,
		RateIPSPerCU: equiv / r.TimeSec / float64(r.CUs),
		DynJPerInstr: r.Energy.Dyn / equiv,
		LeakWPerCU:   r.Energy.Leak / r.TimeSec / float64(r.CUs),
	}, nil
}

func (g GPUComponent) UnitFootprint() device.Footprint { return device.GPUCUFootprint }
func (g GPUComponent) UnitRateIPS() float64            { return g.RateIPSPerCU }
func (g GPUComponent) UnitDynJPerInstr() float64       { return g.DynJPerInstr }
func (g GPUComponent) UnitLeakW() float64              { return g.LeakWPerCU }

// AccelComponent is a per-kernel fixed-function accelerator reduced to
// per-unit composition parameters. It is derived from the same AdvHet
// GPU kernel measurement the GPU component comes from, rescaled by the
// kernel's energy.AccelEntry (ASAcc-style throughput-per-area and
// dynamic gain) and the build technology's scaling — so both harness
// and remote paths reconstruct it bit-identically from one GPU run.
type AccelComponent struct {
	// Config is the hetsim GPU configuration the measurement came from.
	Config string
	// Kernel is the accelerated kernel.
	Kernel string
	// Tech is the build technology (AccelCMOS or AccelTFET).
	Tech AccelTech
	// RateIPSPerUnit is one unit's CPU-equivalent throughput.
	RateIPSPerUnit float64
	// DynJPerInstr is the dynamic energy per CPU-equivalent instruction.
	DynJPerInstr float64
	// LeakWPerUnit is one unit's leakage power while the SoC is on (W).
	LeakWPerUnit float64
}

// AccelComponentOf derives a build's per-unit parameters from a GPU
// kernel measurement via the kernel's accelerator catalog entry.
func AccelComponentOf(r hetsim.GPUResult, tech AccelTech) (AccelComponent, error) {
	g, err := GPUComponentOf(r)
	if err != nil {
		return AccelComponent{}, err
	}
	entry, err := energy.AccelEntryFor(r.Kernel)
	if err != nil {
		return AccelComponent{}, err
	}
	sc := energy.AccelScale(tech == AccelTFET)
	return AccelComponent{
		Config:         r.Config,
		Kernel:         r.Kernel,
		Tech:           tech,
		RateIPSPerUnit: g.RateIPSPerCU * entry.PerfPerUnit,
		DynJPerInstr:   g.DynJPerInstr / entry.DynGain * sc.Dyn,
		LeakWPerUnit:   energy.AccelUnitLeakMW / 1000 * sc.Leak,
	}, nil
}

func (a AccelComponent) UnitFootprint() device.Footprint {
	return device.AccelFootprint(a.Tech == AccelTFET)
}
func (a AccelComponent) UnitRateIPS() float64      { return a.RateIPSPerUnit }
func (a AccelComponent) UnitDynJPerInstr() float64 { return a.DynJPerInstr }
func (a AccelComponent) UnitLeakW() float64        { return a.LeakWPerUnit }

// Every concrete component class implements the pluggable surface.
var (
	_ Component = CoreComponent{}
	_ Component = GPUComponent{}
	_ Component = AccelComponent{}
)

// Components bundles the measured building blocks one (workload, seed,
// instruction budget) point composes from. GPU and the accelerator
// builds may be zero when no evaluated mix uses them; both accelerator
// builds are filled whenever the paired kernel is measured, since they
// derive from the same run.
type Components struct {
	CMOS      CoreComponent
	TFET      CoreComponent
	GPU       GPUComponent
	AccelCMOS AccelComponent
	AccelTFET AccelComponent
}

// Accel returns the accelerator build for one technology.
func (c Components) Accel(tech AccelTech) AccelComponent {
	if tech == AccelTFET {
		return c.AccelTFET
	}
	return c.AccelCMOS
}

// Validate checks the core components carry usable rates (the GPU and
// accelerator builds are checked only when a mix actually uses them).
func (c Components) Validate() error {
	if c.CMOS.RateIPS <= 0 {
		return fmt.Errorf("soc: CMOS component (%s/%s) has no rate", c.CMOS.Config, c.CMOS.Workload)
	}
	if c.TFET.RateIPS <= 0 {
		return fmt.Errorf("soc: TFET component (%s/%s) has no rate", c.TFET.Config, c.TFET.Workload)
	}
	return nil
}

// Component source configurations: the SoC's CMOS and TFET cores are the
// paper's BaseCMOS and BaseTFET cores; its GPU is the AdvHet
// hetero-device GPU.
const (
	CMOSCoreConfig = "BaseCMOS"
	TFETCoreConfig = "BaseTFET"
	GPUConfig      = "AdvHet"
)
