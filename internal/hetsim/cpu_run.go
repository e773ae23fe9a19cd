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

// RunOpts controls a CPU simulation run.
type RunOpts struct {
	// TotalInstructions is the total work across all cores; a
	// configuration with more cores shards the same work (the paper's
	// fixed-power-budget comparison keeps the application constant).
	TotalInstructions uint64
	// WarmupInstructions run per core before measurement starts, to warm
	// caches and predictors; their cycles, activity and energy are
	// excluded. Defaults to TotalInstructions/8 (per core).
	WarmupInstructions uint64
	// Seed drives workload synthesis.
	Seed uint64
	// ChunkInstructions is the round-robin interleaving granularity for
	// multicore runs (coherence interleaving fidelity vs speed).
	ChunkInstructions uint64
	// CMOSAdjust and TFETAdjust are voltage-derived energy adjustments
	// (DVFS operating points, process-variation guardbands) applied on
	// top of the technology scaling. Zero values mean identity.
	CMOSAdjust, TFETAdjust energy.Scale
	// Obs receives metrics, trace events, progress and the run record;
	// nil disables all observability at the cost of one pointer check.
	Obs *obs.Observer
}

// withDefaults fills unset options.
func (o RunOpts) withDefaults() RunOpts {
	if o.TotalInstructions == 0 {
		o.TotalInstructions = 400_000
	}
	if o.WarmupInstructions == 0 {
		o.WarmupInstructions = o.TotalInstructions / 8
	}
	if o.ChunkInstructions == 0 {
		o.ChunkInstructions = 4_000
	}
	id := energy.Scale{Dyn: 1, Leak: 1}
	if o.CMOSAdjust == (energy.Scale{}) {
		o.CMOSAdjust = id
	}
	if o.TFETAdjust == (energy.Scale{}) {
		o.TFETAdjust = id
	}
	return o
}

// CPUResult is one (configuration, workload) measurement.
type CPUResult struct {
	Config   string
	Workload string
	Cores    int

	Cycles  uint64 // slowest core's cycle count
	TimeSec float64
	Energy  energy.Breakdown

	Instructions   uint64
	IPC            float64 // aggregate, per-core-cycle
	MispredictRate float64
	DL1HitRate     float64
	FastHitRate    float64 // asymmetric DL1 CMOS-way hit rate (0 if plain)

	// Cache locality of the measured region: misses per kilo-instruction
	// at each data level, plus the end-of-run valid-line occupancy of
	// the arrays. The traffic scheduler's cache-aware policy keys off
	// these measured values.
	DL1MPKI, L2MPKI, L3MPKI                float64
	DL1Occupancy, L2Occupancy, L3Occupancy float64

	// CoreCycles sums measured cycles over all cores; Attr bins each of
	// them into one top-down bucket (Attr.Total() == CoreCycles).
	CoreCycles uint64
	Attr       cpu.CycleAttr

	// Activity is the measured region's activity vector with TimeSec
	// left zero: it depends only on the simulated timing, so Reprice
	// can price the run under any configuration of the same timing
	// class.
	Activity energy.CPUActivity
}

// ED returns the energy-delay product (J·s).
func (r CPUResult) ED() float64 { return energy.ED(r.Energy.Total(), r.TimeSec) }

// ED2 returns the energy-delay² product (J·s²).
func (r CPUResult) ED2() float64 { return energy.ED2(r.Energy.Total(), r.TimeSec) }

// CPUResult implements the device-independent Result surface.
var _ Result = CPUResult{}

func (r CPUResult) DeviceKind() string    { return "cpu" }
func (r CPUResult) ConfigName() string    { return r.Config }
func (r CPUResult) WorkloadName() string  { return r.Workload }
func (r CPUResult) Seconds() float64      { return r.TimeSec }
func (r CPUResult) TotalEnergyJ() float64 { return r.Energy.Total() }

// memPort binds one core ID to the shared hierarchy.
type memPort struct {
	h    *cache.Hierarchy
	core int
}

func (m memPort) InstFetch(pc uint64) int { return m.h.InstFetch(m.core, pc) }
func (m memPort) Read(addr uint64) int    { return m.h.Read(m.core, addr) }
func (m memPort) Write(addr uint64) int   { return m.h.Write(m.core, addr) }

// RunCPU executes a workload on a configuration and returns the
// measurement. Multicore runs shard the work across cores using the
// profile's Amdahl serial fraction (the serial share executes on core 0)
// and interleave execution in chunks so coherence traffic is exercised.
func RunCPU(cfg CPUConfig, prof trace.Profile, opts RunOpts) (CPUResult, error) {
	opts = opts.withDefaults()
	if err := prof.Validate(); err != nil {
		return CPUResult{}, err
	}
	wallStart := time.Now()
	hier, err := cache.NewHierarchy(cfg.Hier)
	if err != nil {
		return CPUResult{}, fmt.Errorf("hetsim %s: %w", cfg.Name, err)
	}

	n := cfg.Cores
	cores := make([]*cpu.Core, n)
	quota := make([]uint64, n)
	parallel := float64(opts.TotalInstructions) * (1 - prof.SerialFrac) / float64(n)
	for i := 0; i < n; i++ {
		gen, err := trace.NewGenerator(prof, opts.Seed, i)
		if err != nil {
			return CPUResult{}, err
		}
		cores[i], err = cpu.NewCore(cfg.Core, memPort{h: hier, core: i}, gen)
		if err != nil {
			return CPUResult{}, fmt.Errorf("hetsim %s: %w", cfg.Name, err)
		}
		quota[i] = uint64(parallel)
	}
	// The serial fraction runs on core 0 alone.
	quota[0] += uint64(float64(opts.TotalInstructions) * prof.SerialFrac)

	prog := opts.Obs.Prog()
	tr := opts.Obs.Tracer()
	var pid int64
	if tr.Enabled() {
		pid = tr.NextPID()
		tr.ProcessName(pid, fmt.Sprintf("cpu %s / %s", cfg.Name, prof.Name))
		for i := 0; i < n; i++ {
			tr.ThreadName(pid, int64(i), fmt.Sprintf("core %d", i))
		}
	}
	var budget uint64
	for _, q := range quota {
		budget += q + opts.WarmupInstructions
	}
	prog.AddTarget(budget)

	asn := adjustAssign(cfg.Assign, opts.CMOSAdjust, opts.TFETAdjust)
	detach := attachCPUTelemetry(opts.Obs,
		"cpu."+cfg.Name+"."+prof.Name+".", cfg.FreqGHz(), cores, hier, asn)
	defer detach()

	runInterleaved := func(remaining []uint64) {
		for {
			active := false
			for i := 0; i < n; i++ {
				if remaining[i] == 0 {
					continue
				}
				active = true
				chunk := opts.ChunkInstructions
				if chunk > remaining[i] {
					chunk = remaining[i]
				}
				cores[i].Run(chunk)
				remaining[i] -= chunk
				prog.Add(chunk)
			}
			if !active {
				break
			}
			if tr.Enabled() {
				var cyc, com uint64
				for _, c := range cores {
					s := c.Stats()
					if s.Cycles > cyc {
						cyc = s.Cycles
					}
					com += s.Committed
				}
				if cyc > 0 {
					tr.CounterSample(pid, "ipc", obs.SimTS(cyc, cfg.FreqGHz()),
						map[string]float64{"per_core": float64(com) / float64(cyc) / float64(n)})
				}
			}
		}
	}

	// Warmup: run every core for the warmup quota, then snapshot the
	// counters so the measured region excludes cold-start effects.
	warm := make([]uint64, n)
	for i := range warm {
		warm[i] = opts.WarmupInstructions
	}
	runInterleaved(warm)
	coreSnap := make([]cpu.Stats, n)
	for i, c := range cores {
		coreSnap[i] = c.Stats()
	}
	hierSnap := hier.Counts()

	remaining := make([]uint64, n)
	copy(remaining, quota)
	runInterleaved(remaining)

	// Aggregate the measured region.
	var maxCycles, coreCycles, insts uint64
	var attr cpu.CycleAttr
	var act energy.CPUActivity
	var lookups, mispred uint64
	for i, c := range cores {
		s := c.Stats().Delta(coreSnap[i])
		if s.Cycles > maxCycles {
			maxCycles = s.Cycles
		}
		coreCycles += s.Cycles
		attr = attr.Add(s.Attr)
		if tr.Enabled() {
			f := cfg.FreqGHz()
			tr.Complete(pid, int64(i), "warmup", "sim",
				0, obs.SimTS(coreSnap[i].Cycles, f),
				map[string]any{"insts": coreSnap[i].Committed})
			tr.Complete(pid, int64(i), "measure", "sim",
				obs.SimTS(coreSnap[i].Cycles, f), obs.SimTS(s.Cycles, f),
				map[string]any{"insts": s.Committed,
					"ipc": float64(s.Committed) / float64(max(s.Cycles, 1))})
		}
		insts += s.Committed
		act.Instructions += s.Committed
		act.BPredLookups += s.BPred.Lookups
		lookups += s.BPred.Lookups
		mispred += s.BPred.Mispredicts
		act.IntRFReads += s.IntRegReads
		act.IntRFWrites += s.IntRegWrites
		act.FPRFReads += s.FPRegReads
		act.FPRFWrites += s.FPRegWrites
		act.ALUFastOps += s.ALUFastOps
		act.ALUSlowOps += s.ALUSlowOps
		act.MulOps += s.Ops[trace.IntMul]
		act.DivOps += s.Ops[trace.IntDiv]
		act.FPAddOps += s.Ops[trace.FPAdd]
		act.FPMulOps += s.Ops[trace.FPMul]
		act.FPDivOps += s.Ops[trace.FPDiv]
		act.MemOps += s.Ops[trace.Load] + s.Ops[trace.Store]
		_ = i
	}
	counts := hier.Counts().Delta(hierSnap)
	act.IL1Accesses = counts.IL1.Accesses()
	if cfg.Hier.AsymDL1 {
		act.DL1Accesses = counts.DL1Slow.Accesses()
		act.DL1FastAccesses = counts.DL1Fast.Accesses()
	} else {
		act.DL1Accesses = counts.DL1.Accesses()
	}
	act.L2Accesses = counts.L2.Accesses()
	act.L3Accesses = counts.L3.Accesses()
	act.RingHops = counts.RingHops
	act.DRAMAccesses = counts.DRAMAccesses

	act.Cores = n

	res := CPUResult{
		Workload: prof.Name, Cores: n,
		Cycles:       maxCycles,
		Instructions: insts,
		DL1HitRate:   counts.DL1.HitRate(),
		CoreCycles:   coreCycles, Attr: attr,
		Activity: act,
	}
	if insts > 0 {
		perKilo := 1000 / float64(insts)
		res.DL1MPKI = float64(counts.DL1.Misses()) * perKilo
		res.L2MPKI = float64(counts.L2.Misses()) * perKilo
		res.L3MPKI = float64(counts.L3.Misses()) * perKilo
	}
	occ := hier.Occupancy()
	res.DL1Occupancy, res.L2Occupancy, res.L3Occupancy = occ.DL1, occ.L2, occ.L3
	if cfg.Hier.AsymDL1 {
		fa, sl := counts.DL1Fast, counts.DL1Slow
		if total := fa.Accesses(); total > 0 {
			hits := total - fa.Misses() + (sl.Reads - sl.ReadMisses)
			if hits > total {
				hits = total
			}
			res.DL1HitRate = float64(hits) / float64(total)
			res.FastHitRate = fa.HitRate()
		}
	}
	if maxCycles > 0 {
		res.IPC = float64(insts) / float64(maxCycles) / float64(n)
	}
	if lookups > 0 {
		res.MispredictRate = float64(mispred) / float64(lookups)
	}
	res, err = price(res, cfg, asn)
	if err != nil {
		return CPUResult{}, err
	}
	timeSec, bd := res.TimeSec, res.Energy
	if o := opts.Obs; o.Enabled() {
		if reg := o.Reg(); reg != nil {
			counts.Visit(func(name string, v uint64) {
				reg.Counter(name).Add(v)
			})
			// Per-run locality gauges. The run prefix keeps concurrent
			// engine jobs on disjoint gauge names: a bare cache.l1d_mpki
			// would be last-write-wins across jobs and make the metrics
			// snapshot depend on completion order, breaking the
			// -jobs=1 vs -jobs=N byte-identical report contract.
			prefix := "cpu." + cfg.Name + "." + prof.Name + "."
			for name, v := range map[string]float64{
				"cache.l1d_mpki":      res.DL1MPKI,
				"cache.l2_mpki":       res.L2MPKI,
				"cache.l3_mpki":       res.L3MPKI,
				"cache.l1d_occupancy": res.DL1Occupancy,
				"cache.l2_occupancy":  res.L2Occupancy,
				"cache.l3_occupancy":  res.L3Occupancy,
			} {
				reg.Gauge(prefix + name).Set(v)
			}
		}
		if tr.Enabled() && timeSec > 0 {
			tr.CounterSample(pid, "avg_power_w",
				obs.SimTS(maxCycles, cfg.FreqGHz()),
				map[string]float64{"total": bd.Total() / timeSec})
		}
		o.FinishRecord(obs.RunRecord{
			Kind: "cpu", Config: cfg.Name, Workload: prof.Name,
			Seed:         opts.Seed,
			Instructions: insts, Cycles: maxCycles, CoreCycles: coreCycles,
			TimeSec: timeSec, IPC: res.IPC,
			CycleAttribution: attr.Map(),
			EnergyJ:          bd.Map(),
			Extra: map[string]float64{
				"dl1_hit_rate":    res.DL1HitRate,
				"fast_hit_rate":   res.FastHitRate,
				"mispredict_rate": res.MispredictRate,
				"l1d_mpki":        res.DL1MPKI,
				"l2_mpki":         res.L2MPKI,
				"l3_mpki":         res.L3MPKI,
				"l1d_occupancy":   res.DL1Occupancy,
				"l2_occupancy":    res.L2Occupancy,
				"l3_occupancy":    res.L3Occupancy,
			},
		}, wallStart, insts+uint64(n)*opts.WarmupInstructions)
	}
	return res, nil
}

// adjustAssign applies voltage-derived adjustments per domain. A unit is
// classified as TFET-domain when its dynamic scale is below 1 (the
// conservative 4x factor); CMOS and high-Vt units keep dynamic scale 1.
func adjustAssign(a energy.CPUAssign, cmosAdj, tfetAdj energy.Scale) energy.CPUAssign {
	adj := func(s energy.Scale) energy.Scale {
		if s.Dyn < 1 {
			return s.Mul(tfetAdj)
		}
		return s.Mul(cmosAdj)
	}
	a.Core = adj(a.Core)
	a.ALUSlow = adj(a.ALUSlow)
	a.ALUFast = adj(a.ALUFast)
	a.ALULeak = adj(a.ALULeak)
	a.Mul = adj(a.Mul)
	a.FPU = adj(a.FPU)
	a.DL1 = adj(a.DL1)
	a.DL1Fast = adj(a.DL1Fast)
	a.L2 = adj(a.L2)
	a.L3 = adj(a.L3)
	return a
}
