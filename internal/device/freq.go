package device

import (
	"fmt"
	"math"
)

// This file models the Vdd-frequency curves of Figure 3 and the DVFS
// voltage-pair solver of Section III-D.
//
// HetCore powers CMOS units at V_CMOS and TFET units at V_TFET, all clocked
// at one frequency f. TFET pipeline stages do half the work of CMOS stages,
// so a valid voltage pair (V_CMOS, V_TFET) is one where the CMOS circuit
// runs at f and the TFET circuit runs at f/2 for equivalent work. Because
// the TFET curve is less steep around the operating point, ΔV_TFET for a
// frequency step is typically larger than ΔV_CMOS (e.g. +75 mV CMOS vs
// +90 mV TFET to turbo from 2 GHz to 2.5 GHz).

// Nominal operating point of the HetCore evaluation (Section III-D):
// V_CMOS = 0.73 V and V_TFET = 0.40 V at f0 = 2 GHz.
const (
	NominalFrequencyGHz = 2.0
	NominalVCMOS        = 0.73
	NominalVTFET        = 0.40
)

// FreqCurve maps supply voltage to achievable clock frequency for one
// technology's pipeline stages.
type FreqCurve interface {
	// FrequencyGHz returns the clock frequency in GHz reachable at
	// supply voltage v.
	FrequencyGHz(v float64) float64
	// VoltageFor returns the supply voltage needed to reach frequency f
	// in GHz, or an error if f is unreachable.
	VoltageFor(f float64) (float64, error)
	// Domain returns the valid voltage range of the curve.
	Domain() (vmin, vmax float64)
}

// cmosCurve is an alpha-power-law fit of the Si-CMOS curve in Figure 3:
// f(V) = k (V - Vth)^alpha / V. The fit passes through the paper's three
// quoted anchors: 0.73 V → 2 GHz, +75 mV → 2.5 GHz, −70 mV → 1.5 GHz.
type cmosCurve struct {
	k, vth, alpha float64
}

// CMOSFreqCurve returns the Si-CMOS Vdd-frequency curve of Figure 3.
func CMOSFreqCurve() FreqCurve {
	return cmosCurve{k: 8.609, vth: 0.40, alpha: 1.6}
}

func (c cmosCurve) FrequencyGHz(v float64) float64 {
	if v <= c.vth {
		return 0
	}
	return c.k * math.Pow(v-c.vth, c.alpha) / v
}

func (c cmosCurve) Domain() (float64, float64) { return c.vth + 0.01, 1.2 }

func (c cmosCurve) VoltageFor(f float64) (float64, error) {
	return invertMonotone(c, f)
}

// tfetCurve is a logistic fit of the HetJTFET curve in Figure 3:
// f(V) = fsat / (1 + exp(-k (V - Vm))). It passes through 0.40 V → 1 GHz,
// +90 mV → 1.25 GHz, −80 mV → 0.75 GHz, and saturates at fsat — the
// defining TFET property that performance stops scaling with voltage.
type tfetCurve struct {
	fsat, k, vm float64
}

// TFETFreqCurve returns the HetJTFET Vdd-frequency curve of Figure 3.
func TFETFreqCurve() FreqCurve {
	return tfetCurve{fsat: 1.55, k: 8.7, vm: 0.3313}
}

func (c tfetCurve) FrequencyGHz(v float64) float64 {
	if v <= 0 {
		return 0
	}
	return c.fsat / (1 + math.Exp(-c.k*(v-c.vm)))
}

func (c tfetCurve) Domain() (float64, float64) { return 0.05, 0.9 }

func (c tfetCurve) VoltageFor(f float64) (float64, error) {
	if f >= c.fsat {
		return 0, fmt.Errorf("device: TFET frequency %.3f GHz unreachable (saturates at %.3f GHz)", f, c.fsat)
	}
	return invertMonotone(c, f)
}

// invertMonotone bisects a monotonically increasing FreqCurve to find the
// voltage delivering frequency f.
func invertMonotone(c FreqCurve, f float64) (float64, error) {
	lo, hi := c.Domain()
	if f <= c.FrequencyGHz(lo) || f > c.FrequencyGHz(hi) {
		return 0, fmt.Errorf("device: frequency %.3f GHz outside curve range (%.3f, %.3f] GHz",
			f, c.FrequencyGHz(lo), c.FrequencyGHz(hi))
	}
	for i := 0; i < 100; i++ {
		mid := (lo + hi) / 2
		if c.FrequencyGHz(mid) < f {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, nil
}

// VoltagePair is a matched (V_CMOS, V_TFET) supply pair for one core clock
// frequency: the CMOS units reach Frequency and the TFET units reach
// Frequency/2 per (half-work) pipeline stage, so both close timing at the
// same core clock.
type VoltagePair struct {
	FrequencyGHz float64
	VCMOS        float64
	VTFET        float64
}

// DVFS solves for matched voltage pairs across the two curves.
type DVFS struct {
	cmos FreqCurve
	tfet FreqCurve
}

// NewDVFS builds a DVFS solver over the Figure 3 curves.
func NewDVFS() *DVFS {
	return &DVFS{cmos: CMOSFreqCurve(), tfet: TFETFreqCurve()}
}

// PairFor returns the voltage pair for core frequency f in GHz: V_CMOS such
// that the CMOS curve delivers f, and V_TFET such that the TFET curve
// delivers f/2 (TFET stages do half the work).
func (d *DVFS) PairFor(f float64) (VoltagePair, error) {
	vc, err := d.cmos.VoltageFor(f)
	if err != nil {
		return VoltagePair{}, fmt.Errorf("CMOS side: %w", err)
	}
	vt, err := d.tfet.VoltageFor(f / 2)
	if err != nil {
		return VoltagePair{}, fmt.Errorf("TFET side: %w", err)
	}
	return VoltagePair{FrequencyGHz: f, VCMOS: vc, VTFET: vt}, nil
}

// Nominal returns the 2 GHz operating pair (≈0.73 V, ≈0.40 V).
func (d *DVFS) Nominal() VoltagePair {
	p, err := d.PairFor(NominalFrequencyGHz)
	if err != nil {
		panic(fmt.Sprintf("device: nominal pair unsolvable: %v", err))
	}
	return p
}

// MaxFrequencyGHz returns the highest core frequency for which a matched
// pair exists, limited by the TFET curve's saturation at f/2 and the CMOS
// curve's voltage domain.
func (d *DVFS) MaxFrequencyGHz() float64 {
	_, vmaxC := d.cmos.Domain()
	_, vmaxT := d.tfet.Domain()
	fc := d.cmos.FrequencyGHz(vmaxC)
	ft := 2 * d.tfet.FrequencyGHz(vmaxT)
	return math.Min(fc, ft) * 0.999
}

// EnergyScale describes how per-operation dynamic energy and leakage power
// scale when moving from the nominal voltage to a new one. Dynamic energy
// scales with V² (CV² switching); leakage power scales roughly with V³
// (supply times DIBL-amplified subthreshold current), the usual first-order
// architectural approximation.
type EnergyScale struct {
	Dynamic float64 // multiplier on per-op dynamic energy
	Leakage float64 // multiplier on leakage power
}

// ScaleFrom returns the energy scaling of running at voltage v relative to
// reference voltage vref.
func ScaleFrom(vref, v float64) EnergyScale {
	r := v / vref
	return EnergyScale{Dynamic: r * r, Leakage: r * r * r}
}
