package hetsim

import (
	"fmt"
	"time"

	"hetcore/internal/cache"
	"hetcore/internal/cpu"
	"hetcore/internal/energy"
	"hetcore/internal/obs"
	"hetcore/internal/trace"
)

// This file reproduces the Section VIII comparison against the prior-art
// alternative to HetCore: a heterogeneous multicore with some all-CMOS
// cores and some all-TFET cores, with barrier-aware thread migration
// (Swaminathan et al. [18]). The paper states: "It can be shown that
// AdvHet provides, on average, higher performance while consuming lower
// energy. This is because the threads on the TFET cores slow down the
// program, while the threads on the CMOS cores consume more power than in
// AdvHet."
//
// We build that machine: cmosCores all-CMOS cores at 2 GHz next to
// tfetCores all-TFET cores at 1 GHz, sharing an L3. Without migration,
// work is split evenly and every barrier waits for the TFET stragglers.
// With (idealised) barrier-aware migration, work is redistributed in
// proportion to core speed — the best the scheme can do.

// HeteroCMPConfig describes the CMOS+TFET multicore.
type HeteroCMPConfig struct {
	CMOSCores int
	TFETCores int
	// Migrate enables idealised barrier-aware thread migration
	// (speed-proportional work distribution).
	Migrate bool
}

// DefaultHeteroCMP returns the iso-area comparison point used against the
// 4-core AdvHet: two all-CMOS cores plus two all-TFET cores. TFET and
// CMOS cores occupy similar area at 15 nm (Section III-F), so four
// heterogeneous cores match four AdvHet cores (whose ≈5% dual-rail area
// overhead we ignore in the CMP's favour).
func DefaultHeteroCMP() HeteroCMPConfig {
	return HeteroCMPConfig{CMOSCores: 2, TFETCores: 2, Migrate: true}
}

// HeteroCMPByName returns a named machine of the migration comparison:
// "HeteroCMP" is DefaultHeteroCMP and "HeteroCMP-nomig" the same machine
// without migration.
func HeteroCMPByName(name string) (HeteroCMPConfig, error) {
	hc := DefaultHeteroCMP()
	switch name {
	case "HeteroCMP":
	case "HeteroCMP-nomig":
		hc.Migrate = false
	default:
		return HeteroCMPConfig{}, fmt.Errorf("hetsim: unknown cmp config %q (have [HeteroCMP HeteroCMP-nomig])", name)
	}
	return hc, nil
}

// HeteroCMPResult is the measurement of one heterogeneous-CMP run.
type HeteroCMPResult struct {
	Config   HeteroCMPConfig
	Workload string
	TimeSec  float64
	Energy   energy.Breakdown
}

// ED2 returns the energy-delay-squared product.
func (r HeteroCMPResult) ED2() float64 {
	return energy.ED2(r.Energy.Total(), r.TimeSec)
}

// HeteroCMPResult implements the device-independent Result surface.
var _ Result = HeteroCMPResult{}

func (r HeteroCMPResult) Seconds() float64      { return r.TimeSec }
func (r HeteroCMPResult) TotalEnergyJ() float64 { return r.Energy.Total() }

// RunHeteroCMP executes a workload on the CMOS+TFET migration multicore.
func RunHeteroCMP(hc HeteroCMPConfig, prof trace.Profile, opts RunOpts) (HeteroCMPResult, error) {
	opts = opts.withDefaults()
	if err := prof.Validate(); err != nil {
		return HeteroCMPResult{}, err
	}
	if hc.CMOSCores <= 0 || hc.TFETCores <= 0 {
		return HeteroCMPResult{}, fmt.Errorf("hetsim: hetero CMP needs both core types, got %d+%d",
			hc.CMOSCores, hc.TFETCores)
	}
	wallStart := time.Now()
	name := fmt.Sprintf("hetero-cmp-%dc%dt", hc.CMOSCores, hc.TFETCores)
	if hc.Migrate {
		name += "-migrate"
	}
	set := hc.coreSet(prof, opts, "cmp."+name+"."+prof.Name+".")
	n, quota := len(set.cores), set.quota

	tr := opts.Obs.Tracer()
	var pid int64
	if tr.Enabled() {
		pid = tr.NextPID()
		tr.ProcessName(pid, fmt.Sprintf("cmp %d CMOS + %d TFET / %s",
			hc.CMOSCores, hc.TFETCores, prof.Name))
	}
	for i := 0; i < n; i++ {
		kind, tfet := "cmos", 0.0 // tfet: 0 = CMOS core, 1 = TFET core
		if i >= hc.CMOSCores {
			kind, tfet = "tfet", 1.0
		}
		if tr.Enabled() {
			tr.ThreadName(pid, int64(i), fmt.Sprintf("core %d (%s)", i, kind))
		}
		if !hc.Migrate {
			continue
		}
		// Barrier-aware migration redistributes work 2:1 before the
		// parallel section: mark it on each core's timeline and in the
		// live event log, so the dashboard's /events shows migration
		// state as the sweep runs.
		if tr.Enabled() {
			tr.Instant(pid, int64(i), "migration.redistribute", "sched", 0,
				map[string]any{"quota_insts": quota[i]})
		}
		opts.Obs.AddEvent(obs.Event{Cat: "sched", Name: "migration.redistribute",
			Args: map[string]float64{"core": float64(i), "tfet": tfet, "quota_insts": float64(quota[i])}})
	}

	m, err := set.run(prof, opts, pid)
	if err != nil {
		return HeteroCMPResult{}, err
	}

	// Barrier semantics: the program finishes when the slowest thread
	// does, in wall-clock terms (cores run at different frequencies).
	var makespan float64
	for i, s := range m.stats {
		makespan = max(makespan, s.TimeNS(set.cores[i].FreqGHz)*1e-9)
	}
	bd, err := hc.price(m.stats, m.counts, makespan)
	if err != nil {
		return HeteroCMPResult{}, err
	}
	res := HeteroCMPResult{Config: hc, Workload: prof.Name, TimeSec: makespan, Energy: bd}
	if o := opts.Obs; o.Enabled() {
		rec := obs.RunRecord{
			Kind: "cmp", Config: name, Workload: prof.Name,
			Seed:         opts.Seed,
			Instructions: m.insts, Cycles: m.maxCycles, CoreCycles: m.coreCycles,
			TimeSec:          makespan,
			CycleAttribution: m.attr.Map(),
			EnergyJ:          res.Energy.Map(),
		}
		if m.coreCycles > 0 {
			rec.IPC = float64(m.insts) / float64(m.coreCycles)
		}
		o.FinishRecord(rec, wallStart, m.insts+uint64(n)*opts.WarmupInstructions)
	}
	return res, nil
}

// coreSet returns the CMP's cores. The CMOS cores run at 2 GHz; the
// all-TFET cores keep the same cycle latencies at half the clock. Work
// splits evenly without migration and speed-proportionally (2:1) with
// barrier-aware migration; the serial fraction runs on a fast CMOS core.
// One shared hierarchy: the CMOS cores' clock dominates the uncore, and
// cycle-configured latencies match both (Section VI's simulator style).
// Each core warms up in one piece, in core order.
func (hc HeteroCMPConfig) coreSet(prof trace.Profile, opts RunOpts, series string) coreSet {
	n := hc.CMOSCores + hc.TFETCores
	cores := make([]cpu.Config, n)
	for i := range cores {
		cores[i] = cpu.DefaultConfig()
		if i >= hc.CMOSCores {
			cores[i].FreqGHz = 1.0
		}
	}
	return coreSet{
		cores: cores, hier: baseHier(n, 2.0),
		quota:     shares(opts.TotalInstructions, prof.SerialFrac, cores, hc.Migrate),
		warmChunk: opts.WarmupInstructions,
		series:    series,
		price:     hc.price,
	}
}

// price is the CMP's energy accounting: the CMOS group at CMOS scaling
// and the TFET group at TFET scaling, each from its own cores' counters.
// The private cache levels' accesses split between the groups in
// proportion to their memory operations (a first-order attribution);
// the shared L3 (CMOS SRAM here), the ring and DRAM go to the CMOS
// group. The TFET group's L3 leakage is dropped so the shared L3 is not
// counted twice: its cores have no L3 slice of their own in the
// iso-area budget.
func (hc HeteroCMPConfig) price(stats []cpu.Stats, counts cache.Counts, timeSec float64) (energy.Breakdown, error) {
	cmosAct := cpuActivity(stats[:hc.CMOSCores], counts, false)
	tfetAct := cpuActivity(stats[hc.CMOSCores:], cache.Counts{}, false)
	cmosAct.TimeSec, tfetAct.TimeSec = timeSec, timeSec
	cshare := 1.0
	if memTotal := float64(cmosAct.MemOps + tfetAct.MemOps); memTotal > 0 {
		cshare = float64(cmosAct.MemOps) / memTotal
	}
	split := func(v uint64) (cmos, tfet uint64) {
		cmos = uint64(float64(v) * cshare)
		return cmos, v - cmos
	}
	cmosAct.IL1Accesses, tfetAct.IL1Accesses = split(cmosAct.IL1Accesses)
	cmosAct.DL1Accesses, tfetAct.DL1Accesses = split(cmosAct.DL1Accesses)
	cmosAct.L2Accesses, tfetAct.L2Accesses = split(cmosAct.L2Accesses)

	lib := energy.DefaultCPULibrary()
	cmosBD, err := energy.ComputeCPU(lib, cmosAct, energy.AllCMOSAssign())
	if err != nil {
		return energy.Breakdown{}, err
	}
	tfetBD, err := energy.ComputeCPU(lib, tfetAct, allTFETAssign())
	if err != nil {
		return energy.Breakdown{}, err
	}
	tfetBD.L3Leak = 0
	return cmosBD.Add(tfetBD), nil
}
