package cpu

import "fmt"

// UnitTech says whether a core unit is implemented in CMOS or TFET. TFET
// units run at the same clock via deeper pipelines, so their operation
// latencies in cycles double (Table III).
type UnitTech int

const (
	// CMOS is the baseline silicon implementation.
	CMOS UnitTech = iota
	// TFET is the heterojunction-TFET implementation.
	TFET
)

// Latencies holds functional-unit op latencies in cycles. Table III gives
// both variants: ALU 1/2, IntMul 2/4, IntDiv 4/8, FP add/mul/div 2/4/8 in
// CMOS vs 4/8/16 in TFET. Divides are unpipelined: a unit accepts a new
// divide only every IssueInterval cycles.
type Latencies struct {
	ALU                 int
	IntMul, IntDiv      int
	IntDivIssueInterval int
	FPAdd, FPMul, FPDiv int
	FPDivIssueInterval  int
}

// CMOSLatencies returns Table III's CMOS functional-unit latencies.
func CMOSLatencies() Latencies {
	return Latencies{
		ALU: 1, IntMul: 2, IntDiv: 4, IntDivIssueInterval: 4,
		FPAdd: 2, FPMul: 4, FPDiv: 8, FPDivIssueInterval: 8,
	}
}

// TFETLatencies returns Table III's TFET functional-unit latencies
// (double the CMOS ones; the units are pipelined twice as deep).
func TFETLatencies() Latencies {
	return Latencies{
		ALU: 2, IntMul: 4, IntDiv: 8, IntDivIssueInterval: 8,
		FPAdd: 4, FPMul: 8, FPDiv: 16, FPDivIssueInterval: 16,
	}
}

// CMALatencies returns the latencies of a TFET FPU built from
// carry-merge-adder (CMA) multipliers instead of fused multiply-add
// units — the Section IV-C4 alternative the paper declines: one cycle
// less forwarding latency on adds and multiplies, at 15% more area and
// 20% more power (the energy side is modelled in hetsim's AdvHet-CMA
// configuration).
func CMALatencies() Latencies {
	l := TFETLatencies()
	l.FPAdd--
	l.FPMul--
	return l
}

// HighVtLatencies returns the BaseHighVt configuration's latencies
// (Table IV): high-Vt CMOS FPUs and ALUs are 1.4-1.6x slower, giving
// Int add/mul/div of 2/3/6 and FP add/mul/div of 3/6/12 cycles.
func HighVtLatencies() Latencies {
	return Latencies{
		ALU: 2, IntMul: 3, IntDiv: 6, IntDivIssueInterval: 6,
		FPAdd: 3, FPMul: 6, FPDiv: 12, FPDivIssueInterval: 12,
	}
}

// Config describes one core (Table III) plus the HetCore design choices
// that affect the pipeline.
type Config struct {
	// Widths: Table III's core is 4-issue; fetch/commit match.
	FetchWidth, IssueWidth, CommitWidth int

	// Window resources.
	ROBSize, IQSize, LSQSize int
	IntRegs, FPRegs          int

	// Functional unit pool sizes: 4 ALU, 2 IntMul/Div, 2 LSU, 2 FPU.
	NumALU, NumMul, NumLSU, NumFPU int

	// IntLat/FPLat are the latencies of the integer and FP pools
	// (they may differ: BaseHet puts ALUs and FPUs in TFET while
	// BaseHet-FastALU keeps ALUs in CMOS).
	IntLat, FPLat Latencies

	// DualSpeedALU enables the AdvHet cluster: one ALU stays CMOS
	// (CMOSALULat) while the remaining NumALU-1 run TFET (IntLat.ALU).
	// Dispatch steers producer instructions whose consumer is within
	// SteerWindow instructions to the CMOS ALU (Section IV-C2).
	DualSpeedALU bool
	CMOSALULat   int
	SteerWindow  int

	// MispredictPenalty is the frontend refill depth in cycles charged
	// on a branch mispredict, on top of waiting for the branch to
	// resolve.
	MispredictPenalty int
	// BTBMissPenalty is the small fetch bubble for a correctly
	// predicted taken branch whose target missed the BTB.
	BTBMissPenalty int

	BPred BPredConfig

	// FreqGHz is the core clock (2 for CMOS-clocked designs, 1 for
	// BaseTFET).
	FreqGHz float64

	// LineSize is the instruction-fetch granularity (the frontend
	// performs one IL1 access per line or redirect).
	LineSize int
}

// DefaultConfig returns the Table III BaseCMOS core.
func DefaultConfig() Config {
	return Config{
		FetchWidth: 4, IssueWidth: 4, CommitWidth: 4,
		ROBSize: 160, IQSize: 64, LSQSize: 48,
		IntRegs: 128, FPRegs: 80,
		NumALU: 4, NumMul: 2, NumLSU: 2, NumFPU: 2,
		IntLat: CMOSLatencies(), FPLat: CMOSLatencies(),
		MispredictPenalty: 12, BTBMissPenalty: 2,
		BPred:    DefaultBPredConfig(),
		FreqGHz:  2.0,
		LineSize: 64,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.FetchWidth <= 0 || c.IssueWidth <= 0 || c.CommitWidth <= 0 {
		return fmt.Errorf("cpu: non-positive pipeline width")
	}
	if c.ROBSize <= 0 || c.IQSize <= 0 || c.LSQSize <= 0 {
		return fmt.Errorf("cpu: non-positive window resource")
	}
	if c.IQSize > c.ROBSize {
		return fmt.Errorf("cpu: IQ (%d) larger than ROB (%d)", c.IQSize, c.ROBSize)
	}
	if c.NumALU <= 0 || c.NumMul <= 0 || c.NumLSU <= 0 || c.NumFPU <= 0 {
		return fmt.Errorf("cpu: empty functional unit pool")
	}
	if c.DualSpeedALU {
		if c.NumALU < 2 {
			return fmt.Errorf("cpu: dual-speed ALU cluster needs >= 2 ALUs")
		}
		if c.CMOSALULat <= 0 || c.SteerWindow <= 0 {
			return fmt.Errorf("cpu: dual-speed ALU cluster missing CMOSALULat/SteerWindow")
		}
	}
	for _, l := range []Latencies{c.IntLat, c.FPLat} {
		if l.ALU <= 0 || l.IntMul <= 0 || l.IntDiv <= 0 || l.FPAdd <= 0 || l.FPMul <= 0 || l.FPDiv <= 0 {
			return fmt.Errorf("cpu: non-positive latency in %+v", l)
		}
		if l.IntDivIssueInterval <= 0 || l.FPDivIssueInterval <= 0 {
			return fmt.Errorf("cpu: non-positive divide issue interval")
		}
	}
	if c.MispredictPenalty < 0 || c.BTBMissPenalty < 0 {
		return fmt.Errorf("cpu: negative penalty")
	}
	if c.FreqGHz <= 0 {
		return fmt.Errorf("cpu: non-positive frequency %v", c.FreqGHz)
	}
	if c.LineSize <= 0 {
		return fmt.Errorf("cpu: non-positive line size")
	}
	return c.BPred.Validate()
}
