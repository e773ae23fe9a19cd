package cpu

import (
	"testing"
	"testing/quick"

	"hetcore/internal/trace"
)

// chaosSource feeds the core adversarial instruction streams: random ops,
// random dependency distances (including out-of-window ones), random
// addresses and branch outcomes. Used to show the pipeline never
// deadlocks or loses instructions.
type chaosSource struct {
	rng *trace.RNG
}

func (s *chaosSource) Next() trace.Inst {
	ops := []trace.Op{trace.IntALU, trace.IntMul, trace.IntDiv,
		trace.FPAdd, trace.FPMul, trace.FPDiv,
		trace.Load, trace.Store, trace.Branch}
	op := ops[s.rng.Intn(len(ops))]
	in := trace.Inst{
		Op:   op,
		Dep1: s.rng.Intn(512), // often beyond the ROB on purpose
		PC:   uint64(s.rng.Intn(1<<20)) &^ 3,
	}
	if s.rng.Bool(0.5) {
		in.Dep2 = s.rng.Intn(512)
	}
	if op.IsMem() {
		in.Addr = s.rng.Uint64() % (1 << 30)
	}
	if op == trace.Branch {
		in.Taken = s.rng.Bool(0.5)
	}
	return in
}

// Property: for arbitrary seeds and window shapes, the core commits every
// requested instruction within a bounded cycle budget (no deadlock, no
// lost instructions) and the statistics stay internally consistent.
func TestCoreNeverDeadlocksProperty(t *testing.T) {
	f := func(seed uint64, robSel, dual uint8) bool {
		cfg := DefaultConfig()
		cfg.ROBSize = 32 + int(robSel%4)*48 // 32..176
		if cfg.IQSize > cfg.ROBSize {
			cfg.IQSize = cfg.ROBSize
		}
		if dual%2 == 1 {
			cfg.DualSpeedALU = true
			cfg.CMOSALULat = 1
			cfg.SteerWindow = cfg.IssueWidth
			cfg.IntLat = TFETLatencies()
		}
		mem := &fakeMem{fetchLat: 2, readLat: 12, writeLat: 4}
		c, err := NewCore(cfg, mem, &chaosSource{rng: trace.NewRNG(seed)})
		if err != nil {
			return false
		}
		const n = 3000
		s := c.Run(n)
		if s.Committed < n {
			return false
		}
		// Generous bound: even fully serialised FP divides fit.
		if s.Cycles > n*64 {
			return false
		}
		var opSum uint64
		for _, v := range s.Ops {
			opSum += v
		}
		return opSum == s.Committed
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: stat deltas are consistent — running twice as long commits at
// least as much of everything.
func TestStatsDeltaProperty(t *testing.T) {
	f := func(seed uint64) bool {
		mem := &fakeMem{fetchLat: 2, readLat: 6, writeLat: 2}
		c, err := NewCore(DefaultConfig(), mem, &chaosSource{rng: trace.NewRNG(seed)})
		if err != nil {
			return false
		}
		c.Run(2000)
		snap := c.Stats()
		c.Run(2000)
		d := c.Stats().Delta(snap)
		if d.Committed < 2000 || d.Cycles == 0 {
			return false
		}
		if d.BPred.Mispredicts > d.BPred.Lookups {
			return false
		}
		for _, v := range []uint64{d.StallROB, d.StallIQ, d.StallLSQ, d.StallRegs, d.StallFetch} {
			if v > d.Cycles {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestOccupancyHelpers(t *testing.T) {
	mem := &fakeMem{fetchLat: 2, readLat: 2, writeLat: 2}
	insts := make([]trace.Inst, 30000)
	for i := range insts {
		insts[i] = trace.Inst{Op: trace.IntALU, Dep1: 1, PC: 0x100} // serial chain
	}
	c, _ := NewCore(DefaultConfig(), mem, &listSource{insts: insts})
	s := c.Run(20000)
	// A serial chain keeps the window full.
	if occ := float64(s.ROBOccAccum) / float64(s.Cycles); occ < 10 {
		t.Errorf("ROB occupancy %.1f on a serial chain, expected a full window", occ)
	}
}
