package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"hetcore/internal/cache"
	"hetcore/internal/cpu"
	"hetcore/internal/dist"
	"hetcore/internal/energy"
	"hetcore/internal/engine"
	"hetcore/internal/gpu"
	"hetcore/internal/hetsim"
	"hetcore/internal/soc"
	"hetcore/internal/trace"
	"hetcore/internal/traffic"
)

// The layer probes time one layer at a time, each on inputs the layer
// above recorded, and check that the isolated layer reproduces what the
// full simulation computed. Any mismatch fails the traced run.

// probeConfigs are the CPU probe's configurations, reduced to one core:
// the all-CMOS baseline and the full HetCore design.
var probeConfigs = []string{"BaseCMOS", "AdvHet"}

// probeInstr is the CPU probe's instruction budget per run (the hetsim
// default, as in the paper figures).
const probeInstr = 400_000

// compInstr is the budget of the component runs the SoC and traffic
// probes compose from; composition cost does not depend on it.
const compInstr = 40_000

// chunk is hetsim.RunCPU's interleaving granularity. A chunk boundary can
// end a cycle's commit early, so cycle-exact replay must use it too.
const chunk = 4_000

// Memory-port call kinds.
const (
	portFetch uint8 = iota
	portRead
	portWrite
)

// portCall is one memory-port call and the latency the hierarchy gave.
type portCall struct {
	kind uint8
	lat  int32
	addr uint64
}

// recordingPort forwards a core's memory calls to core 0 of a hierarchy
// and records them.
type recordingPort struct {
	h     *cache.Hierarchy
	calls []portCall
}

func (p *recordingPort) note(kind uint8, addr uint64, lat int) int {
	p.calls = append(p.calls, portCall{kind: kind, lat: int32(lat), addr: addr})
	return lat
}

func (p *recordingPort) InstFetch(pc uint64) int { return p.note(portFetch, pc, p.h.InstFetch(0, pc)) }
func (p *recordingPort) Read(addr uint64) int    { return p.note(portRead, addr, p.h.Read(0, addr)) }
func (p *recordingPort) Write(addr uint64) int   { return p.note(portWrite, addr, p.h.Write(0, addr)) }

// replayPort answers a core's memory calls with recorded latencies, in
// order, and notes any call that differs from the recording.
type replayPort struct {
	calls    []portCall
	next     int
	mismatch bool
}

func (p *replayPort) answer(kind uint8, addr uint64) int {
	if p.next >= len(p.calls) || p.calls[p.next].kind != kind || p.calls[p.next].addr != addr {
		p.mismatch = true
		return 1
	}
	p.next++
	return int(p.calls[p.next-1].lat)
}

func (p *replayPort) InstFetch(pc uint64) int { return p.answer(portFetch, pc) }
func (p *replayPort) Read(addr uint64) int    { return p.answer(portRead, addr) }
func (p *replayPort) Write(addr uint64) int   { return p.answer(portWrite, addr) }

// recordingSource hands a core a generator's instructions and keeps them.
type recordingSource struct {
	g     *trace.Generator
	insts []trace.Inst
}

func (s *recordingSource) Next() trace.Inst {
	in := s.g.Next()
	s.insts = append(s.insts, in)
	return in
}

// sliceSource replays a materialised trace.
type sliceSource struct {
	insts   []trace.Inst
	next    int
	overrun bool
}

func (s *sliceSource) Next() trace.Inst {
	if s.next >= len(s.insts) {
		s.overrun = true
		return trace.Inst{}
	}
	s.next++
	return s.insts[s.next-1]
}

// measure runs hetsim.RunCPU's one-core schedule on c: the warm-up
// quota, then the measured quota, both in chunks. It returns the
// measured region's core stats and hierarchy counts (h may be nil).
func measure(c *cpu.Core, h *cache.Hierarchy, prof trace.Profile, instr uint64) (cpu.Stats, cache.Counts) {
	run := func(n uint64) {
		for n > 0 {
			k := min(chunk, n)
			c.Run(k)
			n -= k
		}
	}
	run(instr / 8)
	coreSnap := c.Stats()
	var hierSnap, end cache.Counts
	if h != nil {
		hierSnap = h.Counts()
	}
	run(uint64(float64(instr)*(1-prof.SerialFrac)) + uint64(float64(instr)*prof.SerialFrac))
	if h != nil {
		end = h.Counts()
	}
	return c.Stats().Delta(coreSnap), end.Delta(hierSnap)
}

// activity assembles the energy model's input from one core's measured
// region exactly as hetsim.RunCPU does.
func activity(s cpu.Stats, n cache.Counts, asym bool, timeSec float64) energy.CPUActivity {
	act := energy.CPUActivity{
		TimeSec: timeSec, Cores: 1,
		Instructions: s.Committed, BPredLookups: s.BPred.Lookups,
		IntRFReads: s.IntRegReads, IntRFWrites: s.IntRegWrites,
		FPRFReads: s.FPRegReads, FPRFWrites: s.FPRegWrites,
		ALUFastOps: s.ALUFastOps, ALUSlowOps: s.ALUSlowOps,
		MulOps: s.Ops[trace.IntMul], DivOps: s.Ops[trace.IntDiv],
		FPAddOps: s.Ops[trace.FPAdd], FPMulOps: s.Ops[trace.FPMul], FPDivOps: s.Ops[trace.FPDiv],
		MemOps:      s.Ops[trace.Load] + s.Ops[trace.Store],
		IL1Accesses: n.IL1.Accesses(), DL1Accesses: n.DL1.Accesses(),
		L2Accesses: n.L2.Accesses(), L3Accesses: n.L3.Accesses(),
		RingHops: n.RingHops, DRAMAccesses: n.DRAMAccesses,
	}
	if asym {
		act.DL1Accesses, act.DL1FastAccesses = n.DL1Slow.Accesses(), n.DL1Fast.Accesses()
	}
	return act
}

// cpuProbe is the CPU stack taken apart: the whole hetsim.RunCPU, then
// trace synthesis, the out-of-order core behind a port that replays
// recorded latencies, the cache hierarchy fed the recorded calls, and
// the energy accounting, each timed alone.
type cpuProbe struct {
	runSec, synthSec, coreSec, cacheSec, energySec float64
	insts, synthInsts, calls                       uint64
	energyCalls                                    int
	pairs                                          int
	mismatches                                     []string
}

// energyReps is how many times the probe repeats each energy
// computation; one call takes well under a microsecond.
const energyReps = 200

func probeCPU(seed, instr uint64) (*cpuProbe, error) {
	p := &cpuProbe{}
	var insts, synth []trace.Inst
	var calls []portCall
	for _, cn := range probeConfigs {
		full, err := hetsim.CPUConfigByName(cn)
		if err != nil {
			return nil, err
		}
		cfg := hetsim.SingleCore(full)
		for _, prof := range trace.CPUWorkloads() {
			name := cn + "/" + prof.Name
			bad := func(what string) { p.mismatches = append(p.mismatches, name+": "+what) }
			p.pairs++

			start := time.Now()
			res, err := hetsim.RunCPU(cfg, prof, hetsim.RunOpts{TotalInstructions: instr, Seed: seed})
			p.runSec += time.Since(start).Seconds()
			if err != nil {
				return nil, err
			}

			// Record: the same one-core run with the port calls and the
			// instruction stream kept.
			hier, err := cache.NewHierarchy(cfg.Hier)
			if err != nil {
				return nil, err
			}
			gen, err := trace.NewGenerator(prof, seed, 0)
			if err != nil {
				return nil, err
			}
			src := &recordingSource{g: gen, insts: insts[:0]}
			port := &recordingPort{h: hier, calls: calls[:0]}
			core, err := cpu.NewCore(cfg.Core, port, src)
			if err != nil {
				return nil, err
			}
			s, counts := measure(core, hier, prof, instr)
			insts, calls = src.insts, port.calls
			recorded := hier.Counts()
			if s.Cycles != res.Cycles {
				bad(fmt.Sprintf("recorded run %d cycles, RunCPU %d", s.Cycles, res.Cycles))
			}
			p.insts += core.Stats().Committed
			p.calls += uint64(len(calls))

			// Energy accounting on the recorded activity.
			act := activity(s, counts, cfg.Hier.AsymDL1, float64(s.Cycles)/(cfg.FreqGHz()*1e9))
			var bd energy.Breakdown
			start = time.Now()
			for i := 0; i < energyReps; i++ {
				if bd, err = energy.ComputeCPU(energy.DefaultCPULibrary(), act, cfg.Assign); err != nil {
					return nil, err
				}
			}
			p.energySec += time.Since(start).Seconds()
			p.energyCalls += energyReps
			if bd != res.Energy {
				bad("energy differs from RunCPU")
			}

			// Trace synthesis alone, into a reused buffer.
			gen, err = trace.NewGenerator(prof, seed, 0)
			if err != nil {
				return nil, err
			}
			synth = slices.Grow(synth[:0], len(insts))[:len(insts)]
			start = time.Now()
			for i := range synth {
				synth[i] = gen.Next()
			}
			p.synthSec += time.Since(start).Seconds()
			p.synthInsts += uint64(len(synth))
			if !slices.Equal(synth, insts) {
				bad("regenerated trace differs")
			}

			// The core alone, on the materialised trace.
			rsrc := &sliceSource{insts: insts}
			rport := &replayPort{calls: calls}
			core, err = cpu.NewCore(cfg.Core, rport, rsrc)
			if err != nil {
				return nil, err
			}
			start = time.Now()
			rs, _ := measure(core, nil, prof, instr)
			p.coreSec += time.Since(start).Seconds()
			if rs.Cycles != res.Cycles || rport.mismatch || rport.next != len(calls) ||
				rsrc.overrun || rsrc.next != len(insts) {
				bad(fmt.Sprintf("replay-port core %d cycles, RunCPU %d", rs.Cycles, res.Cycles))
			}

			// The hierarchy alone, fed the recorded calls.
			h, err := cache.NewHierarchy(cfg.Hier)
			if err != nil {
				return nil, err
			}
			latMismatch := false
			start = time.Now()
			for _, c := range calls {
				var lat int
				switch c.kind {
				case portFetch:
					lat = h.InstFetch(0, c.addr)
				case portRead:
					lat = h.Read(0, c.addr)
				default:
					lat = h.Write(0, c.addr)
				}
				latMismatch = latMismatch || int32(lat) != c.lat
			}
			p.cacheSec += time.Since(start).Seconds()
			if latMismatch || h.Counts() != recorded {
				bad("replayed hierarchy differs from the recording")
			}
		}
	}
	return p, nil
}

// probeGPU runs every GPU kernel on the baseline and HetCore GPUs and
// returns the wave-instruction rate.
func probeGPU(seed uint64) (float64, error) {
	var insts uint64
	var dur time.Duration
	for _, cn := range probeConfigs {
		cfg, err := hetsim.GPUConfigByName(cn)
		if err != nil {
			return 0, err
		}
		for _, k := range gpu.Kernels() {
			start := time.Now()
			r, err := hetsim.RunGPU(cfg, k, seed)
			dur += time.Since(start)
			if err != nil {
				return 0, err
			}
			insts += r.WaveInsts
		}
	}
	return float64(insts) / dur.Seconds() / 1e6, nil
}

// probeSoC returns the mean cost of composing one SoC design point: every
// in-budget mix of the default space on the first paired workload.
func probeSoC(seed uint64) (float64, error) {
	wl := soc.Workloads()[0]
	comps, err := soc.MeasureComponents(wl, seed, compInstr, true)
	if err != nil {
		return 0, err
	}
	in, _ := soc.Partition(soc.DefaultSpace(), soc.DefaultBudget())
	const rounds = 10
	start := time.Now()
	for r := 0; r < rounds; r++ {
		for _, cfg := range in {
			if _, err := soc.Evaluate(cfg, wl, compInstr, comps); err != nil {
				return 0, err
			}
		}
	}
	return us(time.Since(start)) / float64(rounds*len(in)), nil
}

// probeTraffic returns the mean cost of one diurnal traffic scenario over
// the default mixes and every scheduling policy.
func probeTraffic(seed uint64) (float64, error) {
	services, err := traffic.MeasureServices(traffic.MixWorkloads(), seed, compInstr)
	if err != nil {
		return 0, err
	}
	var n int
	var dur time.Duration
	for _, mix := range traffic.DefaultMixes {
		cfg, err := soc.ParseConfig(mix)
		if err != nil {
			return 0, err
		}
		for _, pol := range traffic.Policies() {
			start := time.Now()
			_, err := traffic.Simulate(traffic.SimOptions{SoC: cfg, Policy: pol,
				Trace: traffic.Diurnal(), Services: services, Seed: seed})
			dur += time.Since(start)
			if err != nil {
				return 0, err
			}
			n++
		}
	}
	return float64(dur.Nanoseconds()) / 1e6 / float64(n), nil
}

// probeEngine returns the engine's own cost per job over the workload's
// keys: a plan of no-op jobs, then the same plan again, served from the
// in-memory cache.
func probeEngine(keys []engine.Key) (jobUS, memHitUS float64, err error) {
	eng := engine.New(2, nil)
	jobs := make([]engine.Job, len(keys))
	for i, k := range keys {
		jobs[i] = engine.Job{Key: k, Run: func() (any, error) { return nil, nil }}
	}
	start := time.Now()
	if _, err := eng.RunAll(jobs); err != nil {
		return 0, 0, err
	}
	jobUS = us(time.Since(start)) / float64(len(keys))
	start = time.Now()
	if _, err := eng.RunAll(jobs); err != nil {
		return 0, 0, err
	}
	memHitUS = us(time.Since(start)) / float64(len(keys))
	if eng.JobsRun() != uint64(len(keys)) || eng.CacheHits() != uint64(len(keys)) {
		return 0, 0, fmt.Errorf("engine probe ran %d jobs and hit %d, want %d each",
			eng.JobsRun(), eng.CacheHits(), len(keys))
	}
	return jobUS, memHitUS, nil
}

// distProbe is the result codec and the disk cache over one result set.
type distProbe struct {
	encodeUS, decodeUS, putUS, getUS, resultBytes float64
	mismatches                                    int
}

// probeDist encodes and decodes every result, then writes each to a
// fresh disk cache under dir and reads it back, timing every call.
func probeDist(dir string, keys []engine.Key, results map[engine.Key]any) (*distProbe, error) {
	disk, err := dist.OpenCache(dir, nil)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	var enc, dec, put, get time.Duration
	var size int
	p := &distProbe{}
	for _, k := range keys {
		start := time.Now()
		typ, data, err := dist.EncodeResult(results[k])
		enc += time.Since(start)
		if err != nil {
			return nil, err
		}
		size += len(data)
		start = time.Now()
		v, err := dist.DecodeResult(typ, data)
		dec += time.Since(start)
		if err != nil {
			return nil, err
		}
		if _, again, err := dist.EncodeResult(v); err != nil || !bytes.Equal(again, data) {
			p.mismatches++
		}
	}
	for _, k := range keys {
		start := time.Now()
		disk.Put(k, results[k])
		put += time.Since(start)
	}
	for _, k := range keys {
		start := time.Now()
		v, ok := disk.Get(k)
		get += time.Since(start)
		_, want, _ := dist.EncodeResult(results[k])
		if _, got, err := dist.EncodeResult(v); !ok || err != nil || !bytes.Equal(got, want) {
			p.mismatches++
		}
	}
	n := float64(len(keys))
	p.encodeUS, p.decodeUS = us(enc)/n, us(dec)/n
	p.putUS, p.getUS = us(put)/n, us(get)/n
	p.resultBytes = float64(size) / n
	return p, nil
}

// syntheticUse returns distinct (profile, seed, core) instruction
// streams over streams instantiated, across the jobs behind keys: how
// much trace synthesis a run would save by generating each stream once.
// onDaemon says the keys ran on hetserved, where soc and traffic keys
// measure their own 1-core components (one CMOS and one TFET run per
// workload) instead of sharing the harness's component jobs.
func syntheticUse(keys []engine.Key, onDaemon bool) (float64, error) {
	type stream struct {
		workload string
		seed     uint64
		core     int
	}
	seen := map[stream]bool{}
	made := 0
	add := func(workload string, seed uint64, core int) {
		made++
		seen[stream{workload, seed, core}] = true
	}
	components := func(workload string, seed uint64) {
		add(workload, seed, 0) // CMOS core run
		add(workload, seed, 0) // TFET core run
	}
	for _, k := range keys {
		switch k.Device {
		case "cpu":
			cfg, err := hetsim.CPUConfigByName(k.Config)
			if err != nil {
				return 0, err
			}
			n := cfg.Cores
			if k.Variant == "cores=1" {
				n = 1
			}
			for i := 0; i < n; i++ {
				add(k.Workload, k.Seed, i)
			}
		case "cmp":
			hc := hetsim.DefaultHeteroCMP()
			for i := 0; i < hc.CMOSCores+hc.TFETCores; i++ {
				add(k.Workload, k.Seed, i)
			}
		case "trace":
			var c int
			if _, err := fmt.Sscanf(k.Variant, "core=%d", &c); err != nil {
				return 0, fmt.Errorf("trace key %s: %w", k, err)
			}
			add(k.Workload, k.Seed, c)
		case "soc":
			if onDaemon {
				components(k.Workload, k.Seed)
			}
		case "traffic":
			if onDaemon {
				for _, wl := range traffic.MixWorkloads() {
					components(wl, k.Seed)
				}
			}
		}
	}
	if made == 0 {
		return 0, fmt.Errorf("no key instantiates an instruction stream")
	}
	return float64(len(seen)) / float64(made), nil
}

// rttProbe measures the daemon round trip for the paper workloads: serve's
// request stream at the workload's seed and budget, for rttWindow, at a
// fresh hetserved whose disk cache holds the workload's own results for
// the stream's first pass. That pass comes back from the cache; later
// passes carry fresh seeds and simulate. It returns the checked requests
// and checkLoad's share.
func (e *env) rttProbe(results map[engine.Key]any, instr uint64) ([]sample, float64, error) {
	log, err := e.requestLog()
	if err != nil {
		return nil, 0, err
	}
	keys := poolKeys(log, e.seed, instr)
	dir := filepath.Join(e.tmp, "rtt-cache")
	defer os.RemoveAll(dir)
	disk, err := dist.OpenCache(dir, nil)
	if err != nil {
		return nil, 0, err
	}
	given := map[engine.Key][]byte{}
	for _, k := range keys {
		v, ok := results[k]
		if !ok {
			return nil, 0, fmt.Errorf("workload has no result for %s", k)
		}
		if _, given[k], err = dist.EncodeResult(v); err != nil {
			return nil, 0, err
		}
		disk.Put(k, v)
	}
	d, err := e.startDaemon(dir)
	if err != nil {
		return nil, 0, err
	}
	samples, _ := runLoad(newClient(), loadSpec{base: d.base, keys: keys, seed: e.seed, window: rttWindow})
	if _, err := d.stop(); err != nil {
		return nil, 0, err
	}
	return samples, checkLoad(samples, given), nil
}

// rttWindow is the round-trip probe's closed-loop window.
const rttWindow = 2 * time.Second
