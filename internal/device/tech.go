// Package device models the transistor technologies that HetCore mixes
// inside a single core: Silicon CMOS (FinFET), heterojunction TFET
// (HetJTFET), homojunction TFET (HomJTFET) and a futuristic InAs MOSFET.
//
// The package encodes the 15 nm characterisation data of Table I of the
// paper, the I-V curves of Figure 1, the ALU-power-versus-activity model of
// Figure 2, the Vdd-frequency curves of Figure 3, the multi-Vdd substrate
// overhead model of Section V-B, and the DVFS and process-variation models
// of Sections III-D, III-E and VII-D.
//
// All constants trace back to numbers quoted in the paper, which in turn
// come from Nikonov & Young's beyond-CMOS benchmarking and Intel's TFET
// measurements.
package device

import "fmt"

// Technology identifies one of the four device technologies compared in
// Table I of the paper.
type Technology int

const (
	// SiCMOS is the baseline 15 nm silicon FinFET technology operated at
	// its most cost-effective supply voltage of 0.73 V.
	SiCMOS Technology = iota
	// HetJTFET is a heterojunction tunneling FET (GaSb source, InAs
	// drain) operated at 0.40 V. It is the TFET flavour HetCore uses:
	// roughly 2x slower than Si-CMOS but ~8x lower power.
	HetJTFET
	// InAsCMOS is a futuristic MOSFET built from InAs, operated at
	// 0.30 V. Too slow (≈10x) to mix with Si-CMOS in one core.
	InAsCMOS
	// HomJTFET is a homojunction TFET (InAs source and drain) operated
	// at 0.20 V. Too slow (≈16x) to mix with Si-CMOS in one core.
	HomJTFET
)

// String returns the name used in the paper for the technology.
func (t Technology) String() string {
	switch t {
	case SiCMOS:
		return "Si-CMOS"
	case HetJTFET:
		return "HetJTFET"
	case InAsCMOS:
		return "InAs-CMOS"
	case HomJTFET:
		return "HomJTFET"
	default:
		return fmt.Sprintf("Technology(%d)", int(t))
	}
}

// Technologies lists all four technologies in Table I column order.
var Technologies = []Technology{SiCMOS, HetJTFET, InAsCMOS, HomJTFET}

// Characteristics holds one column of Table I: the performance, energy and
// power characteristics of a technology at 15 nm, at its most cost-effective
// supply voltage.
type Characteristics struct {
	Tech Technology

	// SupplyVoltage is the most cost-effective Vdd in volts.
	SupplyVoltage float64

	// SwitchingDelayPS is the switching delay of a single transistor in
	// picoseconds.
	SwitchingDelayPS float64
	// InterconnectDelayPS is the interconnect delay per transistor
	// length in picoseconds.
	InterconnectDelayPS float64
	// ALUDelayPS is the delay of a 32-bit ALU operation in picoseconds
	// (switching plus interconnect delay).
	ALUDelayPS float64

	// SwitchingEnergyAJ is the switching energy of a transistor in
	// attojoules.
	SwitchingEnergyAJ float64
	// InterconnectEnergyAJ is the interconnect energy per transistor
	// length in attojoules.
	InterconnectEnergyAJ float64
	// ALUDynamicEnergyFJ is the dynamic energy of a 32-bit ALU operation
	// in femtojoules.
	ALUDynamicEnergyFJ float64

	// ALULeakageUW is the leakage power of a 32-bit ALU in microwatts.
	ALULeakageUW float64
	// ALUPowerDensity is the power density of an ALU in W/cm².
	ALUPowerDensity float64
}

// tableI is Table I of the paper, verbatim.
var tableI = map[Technology]Characteristics{
	SiCMOS: {
		Tech:                 SiCMOS,
		SupplyVoltage:        0.73,
		SwitchingDelayPS:     0.41,
		InterconnectDelayPS:  0.18,
		ALUDelayPS:           939,
		SwitchingEnergyAJ:    32.71,
		InterconnectEnergyAJ: 10.08,
		ALUDynamicEnergyFJ:   170.1,
		ALULeakageUW:         90.2,
		ALUPowerDensity:      50.4,
	},
	HetJTFET: {
		Tech:                 HetJTFET,
		SupplyVoltage:        0.40,
		SwitchingDelayPS:     0.79,
		InterconnectDelayPS:  0.42,
		ALUDelayPS:           1881,
		SwitchingEnergyAJ:    7.86,
		InterconnectEnergyAJ: 3.03,
		ALUDynamicEnergyFJ:   43.4,
		ALULeakageUW:         0.30,
		ALUPowerDensity:      5.1,
	},
	InAsCMOS: {
		Tech:                 InAsCMOS,
		SupplyVoltage:        0.30,
		SwitchingDelayPS:     3.80,
		InterconnectDelayPS:  2.50,
		ALUDelayPS:           9327,
		SwitchingEnergyAJ:    3.62,
		InterconnectEnergyAJ: 1.70,
		ALUDynamicEnergyFJ:   20.5,
		ALULeakageUW:         0.14,
		ALUPowerDensity:      0.6,
	},
	HomJTFET: {
		Tech:                 HomJTFET,
		SupplyVoltage:        0.20,
		SwitchingDelayPS:     6.68,
		InterconnectDelayPS:  3.60,
		ALUDelayPS:           15990,
		SwitchingEnergyAJ:    1.96,
		InterconnectEnergyAJ: 0.76,
		ALUDynamicEnergyFJ:   10.8,
		ALULeakageUW:         1.44,
		ALUPowerDensity:      0.2,
	},
}

// Characterize returns the Table I characteristics of the technology at its
// most cost-effective supply voltage.
func Characterize(t Technology) Characteristics {
	c, ok := tableI[t]
	if !ok {
		panic(fmt.Sprintf("device: unknown technology %d", int(t)))
	}
	return c
}

// DelayRatio returns how many times slower a transistor of this technology
// switches compared with Si-CMOS (≈2x for HetJTFET, ≈10x for InAs-CMOS,
// ≈16x for HomJTFET).
func (c Characteristics) DelayRatio() float64 {
	return c.SwitchingDelayPS / tableI[SiCMOS].SwitchingDelayPS
}

// ALUEnergyRatio returns the Si-CMOS 32-bit ALU dynamic energy divided by
// this technology's (≈4x for HetJTFET, ≈8x for InAs-CMOS, ≈16x for
// HomJTFET).
func (c Characteristics) ALUEnergyRatio() float64 {
	return tableI[SiCMOS].ALUDynamicEnergyFJ / c.ALUDynamicEnergyFJ
}

// MixableWithCMOS reports whether the paper considers the technology
// feasible to mix with Si-CMOS units inside one core at a single clock
// frequency. Only HetJTFET qualifies: its 2x speed differential is absorbed
// by pipelining the TFET units at least twice as deep, whereas InAs-CMOS
// and HomJTFET would need unrealistic 10x and 16x deeper pipelines.
func (c Characteristics) MixableWithCMOS() bool {
	return c.Tech == SiCMOS || c.Tech == HetJTFET
}

// HighVtLeakageReduction is the factor by which high-Vt CMOS transistors
// leak less than regular-Vt ones. The paper measures 25-30x with a Synopsys
// 28/32 nm library; we use the midpoint.
const HighVtLeakageReduction = 27.5

// HighVtFraction is the fraction of high-Vt transistors in the non-critical
// paths of commercial CMOS core logic (AMD Ryzen and prior designs contain
// about 60%).
const HighVtFraction = 0.60

// HighVtDelayFactor is the delay penalty of high-Vt CMOS devices relative
// to regular-Vt ones (the paper quotes 1.4-1.6x; midpoint used for the
// BaseHighVt configuration's latencies).
const HighVtDelayFactor = 1.5

// DualVtLeakageFactor returns the effective leakage of a typical dual-Vt
// Si-CMOS unit relative to an all-regular-Vt implementation, given the
// fraction of high-Vt transistors. With the paper's 60% high-Vt share this
// is ≈0.42 ("the leakage power of a typical Si-CMOS unit is only about 42%
// of the value in Table I").
func DualVtLeakageFactor(highVtFraction float64) float64 {
	if highVtFraction < 0 || highVtFraction > 1 {
		panic(fmt.Sprintf("device: high-Vt fraction %v out of [0,1]", highVtFraction))
	}
	return (1 - highVtFraction) + highVtFraction/HighVtLeakageReduction
}

// EffectiveALULeakageUW returns the leakage power in microwatts of a dual-Vt
// Si-CMOS 32-bit ALU with the given high-Vt fraction. Against this, a
// HetJTFET ALU leaks ≈125x less (paper, Section III-B).
func EffectiveALULeakageUW(highVtFraction float64) float64 {
	return tableI[SiCMOS].ALULeakageUW * DualVtLeakageFactor(highVtFraction)
}

// Conservative power-scaling factors adopted by the paper's evaluation
// (Section V-B and VI). Although the technology data supports 8x lower
// dynamic power (6.1x after multi-Vdd overheads) and >100x lower leakage,
// the evaluation assumes only 4x dynamic and 10x leakage savings.
const (
	// ConservativeDynamicPowerFactor is the assumed reduction in dynamic
	// power when a unit moves from Si-CMOS to HetJTFET at equal
	// frequency (deeper pipeline).
	ConservativeDynamicPowerFactor = 4.0
	// ConservativeLeakageFactor is the assumed reduction in leakage
	// power for TFET units, as if all displaced CMOS transistors had
	// been high-Vt devices.
	ConservativeLeakageFactor = 10.0
	// AllTFETDynamicPowerFactor is the dynamic-power reduction of an
	// all-TFET core running at half the CMOS frequency (BaseTFET):
	// "consumes 8x less dynamic power than BaseCMOS".
	AllTFETDynamicPowerFactor = 8.0
)
