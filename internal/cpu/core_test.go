package cpu

import (
	"testing"

	"hetcore/internal/trace"
)

// fakeMem is a constant-latency memory port for unit tests.
type fakeMem struct {
	fetchLat, readLat, writeLat int
	reads, writes, fetches      int
}

func (m *fakeMem) InstFetch(pc uint64) int { m.fetches++; return m.fetchLat }
func (m *fakeMem) Read(addr uint64) int    { m.reads++; return m.readLat }
func (m *fakeMem) Write(addr uint64) int   { m.writes++; return m.writeLat }

// ipcOf returns committed instructions per cycle.
func ipcOf(s Stats) float64 { return float64(s.Committed) / float64(s.Cycles) }

// listSource replays a fixed instruction slice, then repeats the last
// element forever (keeps lookahead simple).
type listSource struct {
	insts []trace.Inst
	pos   int
}

func (s *listSource) Next() trace.Inst {
	if s.pos < len(s.insts) {
		in := s.insts[s.pos]
		s.pos++
		return in
	}
	return trace.Inst{Op: trace.IntALU, PC: 0x7f00}
}

func newTestCore(t *testing.T, cfg Config, mem MemPort, src InstSource) *Core {
	t.Helper()
	c, err := NewCore(cfg, mem, src)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func alu(dep int) trace.Inst { return trace.Inst{Op: trace.IntALU, Dep1: dep, PC: 0x1000} }

func TestCoreValidation(t *testing.T) {
	mem := &fakeMem{fetchLat: 2, readLat: 2, writeLat: 2}
	src := &listSource{}
	if _, err := NewCore(DefaultConfig(), nil, src); err == nil {
		t.Error("nil mem accepted")
	}
	if _, err := NewCore(DefaultConfig(), mem, nil); err == nil {
		t.Error("nil source accepted")
	}
	bad := DefaultConfig()
	bad.ROBSize = 0
	if _, err := NewCore(bad, mem, src); err == nil {
		t.Error("zero ROB accepted")
	}
	bad = DefaultConfig()
	bad.DualSpeedALU = true // missing CMOSALULat/SteerWindow
	if _, err := NewCore(bad, mem, src); err == nil {
		t.Error("incomplete dual-speed config accepted")
	}
}

// Independent ALU ops on a 4-wide machine should sustain IPC close to 4.
func TestIndependentALUThroughput(t *testing.T) {
	mem := &fakeMem{fetchLat: 2, readLat: 2, writeLat: 2}
	src := &listSource{} // defaults to independent ALU ops
	c := newTestCore(t, DefaultConfig(), mem, src)
	s := c.Run(40000)
	if ipc := ipcOf(s); ipc < 3.5 {
		t.Errorf("independent ALU IPC = %.2f, want >= 3.5", ipc)
	}
}

// A fully serial dependency chain of 1-cycle ALU ops commits one per cycle.
func TestSerialChainCMOS(t *testing.T) {
	mem := &fakeMem{fetchLat: 2, readLat: 2, writeLat: 2}
	insts := make([]trace.Inst, 50000)
	for i := range insts {
		insts[i] = alu(1)
	}
	c := newTestCore(t, DefaultConfig(), mem, &listSource{insts: insts})
	s := c.Run(40000)
	if ipc := ipcOf(s); ipc < 0.90 || ipc > 1.05 {
		t.Errorf("serial CMOS chain IPC = %.3f, want ≈1.0", ipc)
	}
}

// The same chain on TFET ALUs (2-cycle) halves throughput — the BaseHet
// effect the dual-speed cluster exists to fix.
func TestSerialChainTFET(t *testing.T) {
	mem := &fakeMem{fetchLat: 2, readLat: 2, writeLat: 2}
	insts := make([]trace.Inst, 50000)
	for i := range insts {
		insts[i] = alu(1)
	}
	cfg := DefaultConfig()
	cfg.IntLat = TFETLatencies()
	c := newTestCore(t, cfg, mem, &listSource{insts: insts})
	s := c.Run(40000)
	if ipc := ipcOf(s); ipc < 0.45 || ipc > 0.55 {
		t.Errorf("serial TFET chain IPC = %.3f, want ≈0.5", ipc)
	}
}

// With the dual-speed cluster, a serial chain steers to the CMOS ALU and
// recovers back-to-back issue.
func TestDualSpeedRecoversSerialChain(t *testing.T) {
	mem := &fakeMem{fetchLat: 2, readLat: 2, writeLat: 2}
	insts := make([]trace.Inst, 50000)
	for i := range insts {
		insts[i] = alu(1)
	}
	cfg := DefaultConfig()
	cfg.IntLat = TFETLatencies()
	cfg.DualSpeedALU = true
	cfg.CMOSALULat = 1
	cfg.SteerWindow = cfg.IssueWidth
	c := newTestCore(t, cfg, mem, &listSource{insts: insts})
	s := c.Run(40000)
	if ipc := ipcOf(s); ipc < 0.90 {
		t.Errorf("dual-speed serial chain IPC = %.3f, want ≈1.0", ipc)
	}
	if s.ALUFastOps == 0 {
		t.Error("no ops executed on the CMOS ALU")
	}
	if s.SteeredFast == 0 {
		t.Error("steering never chose the CMOS ALU")
	}
}

// Independent work should mostly flow to the TFET ALUs (power savings):
// steering sends only consumer-feeding ops to the CMOS ALU.
func TestDualSpeedSteersIndependentWorkToTFET(t *testing.T) {
	mem := &fakeMem{fetchLat: 2, readLat: 2, writeLat: 2}
	insts := make([]trace.Inst, 50000)
	for i := range insts {
		insts[i] = trace.Inst{Op: trace.IntALU, Dep1: 100, PC: 0x1000} // far deps
	}
	cfg := DefaultConfig()
	cfg.IntLat = TFETLatencies()
	cfg.DualSpeedALU = true
	cfg.CMOSALULat = 1
	cfg.SteerWindow = cfg.IssueWidth
	c := newTestCore(t, cfg, mem, &listSource{insts: insts})
	s := c.Run(40000)
	frac := float64(s.ALUSlowOps) / float64(s.ALUSlowOps+s.ALUFastOps)
	if frac < 0.6 {
		t.Errorf("TFET ALU share %.2f of independent work, want majority", frac)
	}
}

// Load latency gates dependent consumers.
func TestLoadUseLatency(t *testing.T) {
	run := func(readLat int) float64 {
		mem := &fakeMem{fetchLat: 2, readLat: readLat, writeLat: 2}
		insts := make([]trace.Inst, 60000)
		for i := range insts {
			if i%2 == 0 {
				insts[i] = trace.Inst{Op: trace.Load, Dep1: 2, Addr: 0x1000, PC: 0x100}
			} else {
				insts[i] = trace.Inst{Op: trace.IntALU, Dep1: 1, PC: 0x104}
			}
		}
		cfg := DefaultConfig()
		c, _ := NewCore(cfg, mem, &listSource{insts: insts})
		return ipcOf(c.Run(50000))
	}
	fast, slow := run(2), run(4)
	if slow >= fast {
		t.Errorf("IPC with 4-cycle DL1 (%.3f) should be below 2-cycle (%.3f)", slow, fast)
	}
	ratio := fast / slow
	if ratio < 1.2 {
		t.Errorf("load-use chain speedup %.2fx, want >= 1.2x", ratio)
	}
}

// Mispredicted branches cost the frontend refill penalty.
func TestMispredictPenalty(t *testing.T) {
	run := func(random bool) float64 {
		mem := &fakeMem{fetchLat: 2, readLat: 2, writeLat: 2}
		rng := trace.NewRNG(5)
		insts := make([]trace.Inst, 80000)
		for i := range insts {
			if i%8 == 7 {
				taken := true
				if random {
					taken = rng.Bool(0.5)
				}
				insts[i] = trace.Inst{Op: trace.Branch, PC: uint64(0x2000 + (i%64)*4), Taken: taken}
			} else {
				insts[i] = trace.Inst{Op: trace.IntALU, Dep1: 20, PC: uint64(0x2000 + (i%64)*4)}
			}
		}
		c, _ := NewCore(DefaultConfig(), mem, &listSource{insts: insts})
		return ipcOf(c.Run(60000))
	}
	predictable, unpredictable := run(false), run(true)
	if unpredictable >= predictable*0.8 {
		t.Errorf("random branches IPC %.3f vs predictable %.3f: mispredict penalty missing",
			unpredictable, predictable)
	}
}

// FP divides are unpipelined: sustained FP divide throughput is bounded by
// the issue interval.
func TestFPDivIssueInterval(t *testing.T) {
	mem := &fakeMem{fetchLat: 2, readLat: 2, writeLat: 2}
	insts := make([]trace.Inst, 30000)
	for i := range insts {
		insts[i] = trace.Inst{Op: trace.FPDiv, Dep1: 500, PC: 0x100}
	}
	cfg := DefaultConfig()
	c, _ := NewCore(cfg, mem, &listSource{insts: insts})
	s := c.Run(20000)
	// 2 FPUs, one divide each per 8 cycles -> IPC <= 0.25.
	if ipc := ipcOf(s); ipc > 0.26 {
		t.Errorf("FP divide IPC = %.3f, exceeds issue-interval bound 0.25", ipc)
	}
}

// Stores drain at commit and hit the memory port.
func TestStoresReachMemory(t *testing.T) {
	mem := &fakeMem{fetchLat: 2, readLat: 2, writeLat: 2}
	insts := make([]trace.Inst, 10000)
	for i := range insts {
		insts[i] = trace.Inst{Op: trace.Store, Addr: uint64(i * 8), PC: 0x100}
	}
	c, _ := NewCore(DefaultConfig(), mem, &listSource{insts: insts})
	s := c.Run(9000)
	if mem.writes < 9000 {
		t.Errorf("memory saw %d writes, want >= 9000", mem.writes)
	}
	if s.Ops[trace.Store] < 9000 {
		t.Errorf("committed stores = %d", s.Ops[trace.Store])
	}
}

// The frontend performs one IL1 access per fetched line.
func TestFetchLineAccounting(t *testing.T) {
	mem := &fakeMem{fetchLat: 2, readLat: 2, writeLat: 2}
	c, _ := NewCore(DefaultConfig(), mem, &listSource{}) // all PCs identical
	s := c.Run(10000)
	if s.FetchLines == 0 {
		t.Fatal("no fetch lines counted")
	}
	if uint64(mem.fetches) != s.FetchLines {
		t.Errorf("mem fetches %d != stat %d", mem.fetches, s.FetchLines)
	}
	// Same line throughout: only the initial access.
	if s.FetchLines > 2 {
		t.Errorf("fetch lines = %d for a single-line loop", s.FetchLines)
	}
}

// Slow instruction fetch (IL1 misses) throttles dispatch.
func TestFetchMissStalls(t *testing.T) {
	run := func(fetchLat int) uint64 {
		mem := &fakeMem{fetchLat: fetchLat, readLat: 2, writeLat: 2}
		insts := make([]trace.Inst, 30000)
		for i := range insts {
			// New line every 16 instructions.
			insts[i] = trace.Inst{Op: trace.IntALU, Dep1: 50, PC: uint64(i * 4)}
		}
		c, _ := NewCore(DefaultConfig(), mem, &listSource{insts: insts})
		return c.Run(25000).Cycles
	}
	if fast, slow := run(2), run(12); slow <= fast {
		t.Errorf("IL1-missing run (%d cycles) not slower than hitting run (%d)", slow, fast)
	}
}

// The larger AdvHet window (ROB 192, FP RF 128) helps an FP-heavy stream
// with long-latency units — the Section IV-C4 rationale.
func TestLargerWindowHelpsFP(t *testing.T) {
	mkInsts := func() []trace.Inst {
		insts := make([]trace.Inst, 120000)
		rng := trace.NewRNG(8)
		for i := range insts {
			if rng.Bool(0.5) {
				insts[i] = trace.Inst{Op: trace.FPMul, Dep1: 60, PC: 0x100}
			} else {
				insts[i] = trace.Inst{Op: trace.Load, Dep1: 70, Addr: uint64(i%512) * 64, PC: 0x100}
			}
		}
		return insts
	}
	run := func(rob, fprf int) float64 {
		mem := &fakeMem{fetchLat: 2, readLat: 40, writeLat: 2}
		cfg := DefaultConfig()
		cfg.FPLat = TFETLatencies()
		cfg.ROBSize, cfg.FPRegs = rob, fprf
		c, _ := NewCore(cfg, mem, &listSource{insts: mkInsts()})
		return ipcOf(c.Run(100000))
	}
	small, big := run(96, 64), run(192, 128)
	if big <= small {
		t.Errorf("bigger window IPC %.3f not above smaller %.3f", big, small)
	}
}

func TestStatsAccounting(t *testing.T) {
	mem := &fakeMem{fetchLat: 2, readLat: 2, writeLat: 2}
	insts := []trace.Inst{
		{Op: trace.IntALU, Dep1: 1, Dep2: 2, PC: 0x100},
		{Op: trace.FPAdd, Dep1: 1, PC: 0x104},
		{Op: trace.Load, Dep1: 1, Addr: 0x40, PC: 0x108},
		{Op: trace.Store, Dep1: 1, Addr: 0x80, PC: 0x10c},
		{Op: trace.Branch, Taken: true, PC: 0x110},
	}
	c, _ := NewCore(DefaultConfig(), mem, &listSource{insts: insts})
	s := c.Run(5)
	// Run may overshoot by up to a commit group (the source pads with
	// ALU filler).
	if s.Committed < 5 || s.Committed > 5+uint64(DefaultConfig().CommitWidth) {
		t.Fatalf("committed = %d", s.Committed)
	}
	if s.Ops[trace.IntALU] < 1 || s.Ops[trace.FPAdd] != 1 || s.Ops[trace.Load] != 1 ||
		s.Ops[trace.Store] != 1 || s.Ops[trace.Branch] != 1 {
		t.Errorf("op counts = %v", s.Ops)
	}
	if s.FPRegWrites != 1 || s.FPRegReads != 1 {
		t.Errorf("FP reg activity = %d writes %d reads", s.FPRegWrites, s.FPRegReads)
	}
	if s.IntRegWrites < 2 { // ALU + load (+ filler)
		t.Errorf("int reg writes = %d, want >= 2", s.IntRegWrites)
	}
	if s.BPred.Lookups == 0 {
		t.Error("no predictor lookups")
	}
	if s.TimeNS(2.0) != float64(s.Cycles)/2.0 {
		t.Error("TimeNS inconsistent")
	}
}

// End-to-end: a real workload trace runs and commits deterministically.
func TestCoreWithRealTrace(t *testing.T) {
	p, err := trace.CPUWorkload("barnes")
	if err != nil {
		t.Fatal(err)
	}
	run := func() Stats {
		mem := &fakeMem{fetchLat: 2, readLat: 4, writeLat: 4}
		gen := trace.MustGenerator(p, 42, 0)
		c, _ := NewCore(DefaultConfig(), mem, gen)
		return c.Run(50000)
	}
	a, b := run(), run()
	if a.Cycles != b.Cycles || a.Committed != b.Committed {
		t.Errorf("nondeterministic: %d/%d vs %d/%d cycles/insts",
			a.Cycles, a.Committed, b.Cycles, b.Committed)
	}
	if ipc := ipcOf(a); ipc < 0.3 || ipc > 4 {
		t.Errorf("barnes IPC = %.3f, outside sanity range", ipc)
	}
	if rate := float64(a.BPred.Mispredicts) / float64(a.BPred.Lookups); rate <= 0 || rate > 0.3 {
		t.Errorf("mispredict rate = %.3f", rate)
	}
}
