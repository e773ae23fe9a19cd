package cpu

import "testing"

// TFET latencies are exactly double the CMOS ones (Table III): the units
// are pipelined twice as deep at the same clock.
func TestLatencyTables(t *testing.T) {
	c, f := CMOSLatencies(), TFETLatencies()
	pairs := [][2]int{
		{c.ALU, f.ALU}, {c.IntMul, f.IntMul}, {c.IntDiv, f.IntDiv},
		{c.FPAdd, f.FPAdd}, {c.FPMul, f.FPMul}, {c.FPDiv, f.FPDiv},
		{c.IntDivIssueInterval, f.IntDivIssueInterval},
		{c.FPDivIssueInterval, f.FPDivIssueInterval},
	}
	for i, p := range pairs {
		if p[1] != 2*p[0] {
			t.Errorf("pair %d: TFET %d != 2x CMOS %d", i, p[1], p[0])
		}
	}
	// Table III spot checks.
	if c.ALU != 1 || c.FPAdd != 2 || c.FPMul != 4 || c.FPDiv != 8 {
		t.Errorf("CMOS latencies wrong: %+v", c)
	}
	if f.FPDiv != 16 || f.FPDivIssueInterval != 16 {
		t.Errorf("TFET divide wrong: %+v", f)
	}
}

// High-Vt latencies sit between CMOS and TFET (1.4-1.6x CMOS, Table IV).
func TestHighVtLatencies(t *testing.T) {
	h := HighVtLatencies()
	if h.IntMul != 3 || h.IntDiv != 6 || h.FPAdd != 3 || h.FPMul != 6 || h.FPDiv != 12 {
		t.Errorf("high-Vt latencies wrong: %+v (Table IV: Int 2/3/6, FP 3/6/12)", h)
	}
	if err := (func() error {
		cfg := DefaultConfig()
		cfg.IntLat, cfg.FPLat = h, h
		return cfg.Validate()
	})(); err != nil {
		t.Errorf("high-Vt config invalid: %v", err)
	}
}

// CMA FPUs shave one cycle from FP add/mul relative to the TFET FMA
// design (Section IV-C4) and leave divides untouched.
func TestCMALatencies(t *testing.T) {
	cma, tfet := CMALatencies(), TFETLatencies()
	if cma.FPAdd != tfet.FPAdd-1 || cma.FPMul != tfet.FPMul-1 {
		t.Errorf("CMA add/mul wrong: %+v", cma)
	}
	if cma.FPDiv != tfet.FPDiv || cma.ALU != tfet.ALU {
		t.Errorf("CMA changed unrelated latencies: %+v", cma)
	}
}

func TestConfigValidateRejects(t *testing.T) {
	cases := []func(*Config){
		func(c *Config) { c.FetchWidth = 0 },
		func(c *Config) { c.IQSize = c.ROBSize + 1 },
		func(c *Config) { c.NumFPU = 0 },
		func(c *Config) { c.IntLat.ALU = 0 },
		func(c *Config) { c.FPLat.FPDivIssueInterval = 0 },
		func(c *Config) { c.MispredictPenalty = -1 },
		func(c *Config) { c.FreqGHz = 0 },
		func(c *Config) { c.LineSize = 0 },
		func(c *Config) { c.BPred.HistoryBits = 0 },
		func(c *Config) { c.DualSpeedALU = true; c.NumALU = 1; c.CMOSALULat = 1; c.SteerWindow = 4 },
	}
	for i, mod := range cases {
		cfg := DefaultConfig()
		mod(&cfg)
		if cfg.Validate() == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}
