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
	// Streams, when non-nil, supplies each core's instruction stream
	// from a store shared with other runs instead of a private
	// generator. The streams are the same, so results are too.
	Streams *trace.StreamStore
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
	n := cfg.Cores
	tr := opts.Obs.Tracer()
	var pid int64
	if tr.Enabled() {
		pid = tr.NextPID()
		tr.ProcessName(pid, fmt.Sprintf("cpu %s / %s", cfg.Name, prof.Name))
		for i := 0; i < n; i++ {
			tr.ThreadName(pid, int64(i), fmt.Sprintf("core %d", i))
		}
	}
	asn := adjustAssign(cfg.Assign, opts.CMOSAdjust, opts.TFETAdjust)
	m, err := cpuCoreSet(cfg, prof, opts, asn).run(prof, opts, pid)
	if err != nil {
		return CPUResult{}, fmt.Errorf("hetsim %s: %w", cfg.Name, err)
	}

	// Aggregate the measured region.
	act := cpuActivity(m.stats, m.counts, cfg.Hier.AsymDL1)
	var mispred uint64
	for _, s := range m.stats {
		mispred += s.BPred.Mispredicts
	}
	counts := m.counts
	res := CPUResult{
		Workload: prof.Name, Cores: n,
		Cycles:       m.maxCycles,
		Instructions: m.insts,
		DL1HitRate:   counts.DL1.HitRate(),
		CoreCycles:   m.coreCycles, Attr: m.attr,
		Activity: act,
	}
	if m.insts > 0 {
		perKilo := 1000 / float64(m.insts)
		res.DL1MPKI = float64(counts.DL1.Misses()) * perKilo
		res.L2MPKI = float64(counts.L2.Misses()) * perKilo
		res.L3MPKI = float64(counts.L3.Misses()) * perKilo
	}
	res.DL1Occupancy, res.L2Occupancy, res.L3Occupancy = m.occ.DL1, m.occ.L2, m.occ.L3
	if cfg.Hier.AsymDL1 {
		res.FastHitRate = counts.DL1Fast.HitRate()
	}
	if m.maxCycles > 0 {
		res.IPC = float64(m.insts) / float64(m.maxCycles) / float64(n)
	}
	if act.BPredLookups > 0 {
		res.MispredictRate = float64(mispred) / float64(act.BPredLookups)
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
		}
		if tr.Enabled() && timeSec > 0 {
			tr.CounterSample(pid, "avg_power_w",
				obs.SimTS(m.maxCycles, cfg.FreqGHz()),
				map[string]float64{"total": bd.Total() / timeSec})
		}
		o.FinishRecord(obs.RunRecord{
			Kind: "cpu", Config: cfg.Name, Workload: prof.Name,
			Seed:         opts.Seed,
			Instructions: m.insts, Cycles: m.maxCycles, CoreCycles: m.coreCycles,
			TimeSec: timeSec, IPC: res.IPC,
			CycleAttribution: m.attr.Map(),
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
		}, wallStart, m.insts+uint64(n)*opts.WarmupInstructions)
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

// coreSet is one CPU run: a core per entry of cores over one shared
// hierarchy, each running quota[i] measured instructions after
// opts.WarmupInstructions of warmup. RunCPU and RunHeteroCMP both drive
// their cores through it.
type coreSet struct {
	cores []cpu.Config
	hier  cache.Config
	quota []uint64
	// warmChunk is the warmup's round-robin chunk; the measured region
	// interleaves in opts.ChunkInstructions.
	warmChunk uint64
	series    string  // live telemetry series prefix
	price     pricing // the run's accounting, applied to each window
}

// measured is the measured region of a coreSet run.
type measured struct {
	stats  []cpu.Stats  // per-core counter deltas
	counts cache.Counts // hierarchy counter delta
	occ    cache.Occupancy

	insts, maxCycles, coreCycles uint64 // summed over cores; maxCycles is the slowest core's
	attr                         cpu.CycleAttr
}

// run builds the cores, warms them up, snapshots the counters and runs
// the measured region round-robin. Core i reads stream i of opts.Streams
// or, without a store, its own generator. With a tracer, pid's timeline
// gets an IPC counter per round and every core its warmup and measure
// spans at its own clock.
func (s coreSet) run(prof trace.Profile, opts RunOpts, pid int64) (measured, error) {
	hier, err := cache.NewHierarchy(s.hier)
	if err != nil {
		return measured{}, err
	}
	n := len(s.cores)
	cores := make([]*cpu.Core, n)
	gens := make([]*trace.Generator, 0, n)
	for i, cfg := range s.cores {
		var src cpu.InstSource
		if opts.Streams != nil {
			src, err = opts.Streams.Reader(prof, opts.Seed, i)
		} else {
			var gen *trace.Generator
			gen, err = trace.NewGenerator(prof, opts.Seed, i)
			gens, src = append(gens, gen), gen
		}
		if err != nil {
			return measured{}, err
		}
		if cores[i], err = cpu.NewCore(cfg, memPort{h: hier, core: i}, src); err != nil {
			return measured{}, err
		}
	}
	prog := opts.Obs.Prog()
	var budget uint64
	for _, q := range s.quota {
		budget += q + opts.WarmupInstructions
	}
	prog.AddTarget(budget)
	freq := s.cores[0].FreqGHz
	defer attachCPUTelemetry(opts.Obs, s.series, freq, cores, hier, s.price)()

	tr := opts.Obs.Tracer()
	runInterleaved := func(remaining []uint64, chunk uint64) {
		for {
			active := false
			for i := 0; i < n; i++ {
				if remaining[i] == 0 {
					continue
				}
				active = true
				c := min(chunk, remaining[i])
				cores[i].Run(c)
				remaining[i] -= c
				prog.Add(c)
			}
			if !active {
				break
			}
			if tr.Enabled() {
				var cyc, com uint64
				for _, c := range cores {
					st := c.Stats()
					cyc = max(cyc, st.Cycles)
					com += st.Committed
				}
				if cyc > 0 {
					tr.CounterSample(pid, "ipc", obs.SimTS(cyc, freq),
						map[string]float64{"per_core": float64(com) / float64(cyc) / float64(n)})
				}
			}
		}
	}

	// Warmup, then snapshot the counters so the measured region excludes
	// cold-start effects.
	warm := make([]uint64, n)
	for i := range warm {
		warm[i] = opts.WarmupInstructions
	}
	runInterleaved(warm, s.warmChunk)
	snap := make([]cpu.Stats, n)
	for i, c := range cores {
		snap[i] = c.Stats()
	}
	hierSnap := hier.Counts()
	runInterleaved(append([]uint64(nil), s.quota...), opts.ChunkInstructions)

	if reg := opts.Obs.Reg(); reg != nil {
		var synth uint64
		for _, g := range gens {
			synth += g.Generated()
		}
		reg.Counter(trace.SynthesizedCounter).Add(synth)
	}

	m := measured{stats: make([]cpu.Stats, n), counts: hier.Counts().Delta(hierSnap), occ: hier.Occupancy()}
	for i, c := range cores {
		d := c.Stats().Delta(snap[i])
		m.stats[i] = d
		m.insts += d.Committed
		m.maxCycles = max(m.maxCycles, d.Cycles)
		m.coreCycles += d.Cycles
		m.attr = m.attr.Add(d.Attr)
		if tr.Enabled() {
			f := s.cores[i].FreqGHz
			tr.Complete(pid, int64(i), "warmup", "sim",
				0, obs.SimTS(snap[i].Cycles, f),
				map[string]any{"insts": snap[i].Committed})
			tr.Complete(pid, int64(i), "measure", "sim",
				obs.SimTS(snap[i].Cycles, f), obs.SimTS(d.Cycles, f),
				map[string]any{"insts": d.Committed,
					"ipc": float64(d.Committed) / float64(max(d.Cycles, 1))})
		}
	}
	return m, nil
}

// cpuCoreSet is RunCPU's core set: cfg.Cores copies of cfg.Core sharing
// the work evenly, warmed up in opts.ChunkInstructions chunks and priced
// under asn.
func cpuCoreSet(cfg CPUConfig, prof trace.Profile, opts RunOpts, asn energy.CPUAssign) coreSet {
	cores := make([]cpu.Config, cfg.Cores)
	for i := range cores {
		cores[i] = cfg.Core
	}
	return coreSet{
		cores: cores, hier: cfg.Hier,
		quota:     shares(opts.TotalInstructions, prof.SerialFrac, cores, false),
		warmChunk: opts.ChunkInstructions,
		series:    "cpu." + cfg.Name + "." + prof.Name + ".",
		price:     uniformPricing(asn, cfg.Hier.AsymDL1),
	}
}

// shares splits total instructions over cores: the parallel part evenly,
// or in proportion to each core's clock when byClock is set, and the
// serial fraction on core 0 on top of its share.
func shares(total uint64, serialFrac float64, cores []cpu.Config, byClock bool) []uint64 {
	weight := func(c cpu.Config) float64 {
		if byClock {
			return c.FreqGHz
		}
		return 1
	}
	var sum float64
	for _, c := range cores {
		sum += weight(c)
	}
	parallel := float64(total) * (1 - serialFrac)
	quota := make([]uint64, len(cores))
	for i, c := range cores {
		quota[i] = uint64(parallel * weight(c) / sum)
	}
	quota[0] += uint64(float64(total) * serialFrac)
	return quota
}

// cpuActivity sums a span's per-core counter deltas and its hierarchy
// delta into the activity vector the energy model prices. An asymmetric
// DL1 is priced per array: counts.DL1 counts its requests, not the
// array accesses that cost energy.
func cpuActivity(stats []cpu.Stats, counts cache.Counts, asymDL1 bool) energy.CPUActivity {
	act := energy.CPUActivity{Cores: len(stats)}
	for _, s := range stats {
		act.Instructions += s.Committed
		act.BPredLookups += s.BPred.Lookups
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
	}
	act.IL1Accesses = counts.IL1.Accesses()
	if asymDL1 {
		act.DL1Accesses = counts.DL1Slow.Accesses()
		act.DL1FastAccesses = counts.DL1Fast.Accesses()
	} else {
		act.DL1Accesses = counts.DL1.Accesses()
	}
	act.L2Accesses = counts.L2.Accesses()
	act.L3Accesses = counts.L3.Accesses()
	act.RingHops = counts.RingHops
	act.DRAMAccesses = counts.DRAMAccesses
	return act
}

// pricing is a run's energy accounting: it prices a span from the
// per-core counter deltas and the hierarchy's over timeSec seconds
// (timeSec 0 prices the dynamic energy alone).
type pricing func(stats []cpu.Stats, counts cache.Counts, timeSec float64) (energy.Breakdown, error)

// uniformPricing prices every core under one assignment.
func uniformPricing(asn energy.CPUAssign, asymDL1 bool) pricing {
	return func(stats []cpu.Stats, counts cache.Counts, timeSec float64) (energy.Breakdown, error) {
		act := cpuActivity(stats, counts, asymDL1)
		act.TimeSec = timeSec
		return energy.ComputeCPU(energy.DefaultCPULibrary(), act, asn)
	}
}
