package device

import (
	"fmt"
	"math"
)

// This file models the transfer (I_D-V_G) characteristics of Figure 1:
// an N-type HetJTFET against an N-type MOSFET, based on Intel data.
//
// The MOSFET follows the classic subthreshold/saturation composite: an
// exponential subthreshold region limited to 60 mV/decade, blending into a
// square-law ON region. The TFET conducts by band-to-band tunneling and is
// modelled with a steeper (sub-60 mV/decade) turn-on that saturates beyond
// ≈0.6 V, which is exactly why TFETs cannot replace CMOS at high Vdd.

// IVModel computes drain current as a function of gate voltage for one
// device. Currents are in amperes per micron of device width; voltages in
// volts. The models are calibrated to the qualitative anchor points of
// Figure 1: similar OFF currents, TFET overtaking MOSFET at low voltage,
// MOSFET overtaking beyond ≈0.6 V.
type IVModel struct {
	// ioff is the OFF-state current at Vg=0 (A/µm).
	ioff float64
	// ss is the subthreshold swing in mV/decade near the OFF state.
	ss float64
	// vt is the threshold (turn-on) voltage.
	vt float64
	// ion is the saturated ON current (A/µm) approached at high Vg.
	ion float64
	// sat controls how sharply the device saturates past threshold.
	sat float64
}

// NMOSFET returns the I-V model of the N-MOSFET curve in Figure 1.
// MOSFETs are thermionically limited to a 60 mV/decade subthreshold swing;
// they therefore need ≈240 mV of gate swing to traverse four decades of
// current.
func NMOSFET() IVModel {
	return IVModel{
		ioff: 1e-9, // 1 nA/µm OFF current
		ss:   60,   // thermionic limit, mV/decade
		vt:   0.30, // threshold voltage
		ion:  1.2e-3,
		sat:  2.2, // slow approach to saturation: keeps gaining at high V
	}
}

// NHetJTFET returns the I-V model of the N-HetJTFET curve in Figure 1.
// Band-to-band tunneling gives a steep ≈30 mV/decade swing near OFF, a
// higher current than the MOSFET at low voltage, and saturation beyond
// ≈0.6 V.
func NHetJTFET() IVModel {
	return IVModel{
		ioff: 1e-10, // extremely low OFF current
		ss:   30,    // steep slope, beats the 60 mV/dec limit
		vt:   0.15,
		ion:  4.5e-4,
		sat:  9.0, // sharp saturation: curve flattens past ~0.6 V
	}
}

// Current returns the drain current in A/µm at gate voltage vg (volts).
// The composite model is exponential below threshold (with swing m.ss) and
// saturating above it; the two regions blend continuously at vt.
func (m IVModel) Current(vg float64) float64 {
	if vg < 0 {
		vg = 0
	}
	// Subthreshold: I = Ioff * 10^(vg/ss).
	decadesPerVolt := 1000.0 / m.ss
	sub := m.ioff * math.Pow(10, vg*decadesPerVolt)
	// Above-threshold current at vt for continuity.
	ivt := m.ioff * math.Pow(10, m.vt*decadesPerVolt)
	if vg <= m.vt {
		return sub
	}
	// Saturating region: approach ion exponentially from ivt.
	span := m.ion - ivt
	if span < 0 {
		span = 0
	}
	return ivt + span*(1-math.Exp(-m.sat*(vg-m.vt)))
}

// CrossoverVoltage finds the high-voltage crossover: the gate voltage in
// [0.15, vmax] above which the MOSFET's current exceeds the TFET's,
// searching by bisection on the current difference. Figure 1 places this
// near 0.6 V. (There is also a low-voltage crossover below ≈0.1 V where the
// TFET's steeper slope first overtakes the MOSFET; that one is not the
// architecturally interesting point.) Returns an error if the curves do
// not cross in the interval.
func CrossoverVoltage(tfet, mosfet IVModel, vmax float64) (float64, error) {
	f := func(v float64) float64 { return mosfet.Current(v) - tfet.Current(v) }
	lo, hi := 0.15, vmax
	if f(lo) >= 0 || f(hi) <= 0 {
		return 0, fmt.Errorf("device: curves do not cross in [%.2f, %.2f]", lo, hi)
	}
	for i := 0; i < 80; i++ {
		mid := (lo + hi) / 2
		if f(mid) < 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, nil
}
