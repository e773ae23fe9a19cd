package device

import (
	"math"
	"testing"
	"testing/quick"
)

func TestIVMonotone(t *testing.T) {
	for i, m := range []IVModel{NMOSFET(), NHetJTFET()} {
		prev := m.Current(0)
		for v := 0.01; v <= 0.9; v += 0.01 {
			cur := m.Current(v)
			if cur < prev {
				t.Fatalf("model %d: current decreased at Vg=%.2f: %v < %v", i, v, cur, prev)
			}
			prev = cur
		}
	}
}

func TestIVContinuityAtThreshold(t *testing.T) {
	for i, m := range []IVModel{NMOSFET(), NHetJTFET()} {
		below := m.Current(m.vt - 1e-9)
		above := m.Current(m.vt + 1e-9)
		if math.Abs(above-below)/below > 1e-3 {
			t.Errorf("model %d: discontinuity at threshold: %v vs %v", i, below, above)
		}
	}
}

// subthresholdSwing returns m's measured swing in mV/decade between two
// gate voltages in the subthreshold region.
func subthresholdSwing(m IVModel, vlo, vhi float64) float64 {
	ilo, ihi := m.Current(vlo), m.Current(vhi)
	decades := math.Log10(ihi / ilo)
	if decades == 0 {
		return math.Inf(1)
	}
	return (vhi - vlo) * 1000 / decades
}

// The MOSFET is thermionically limited to 60 mV/decade; the HetJTFET's
// band-to-band tunneling gives a steeper (smaller) swing.
func TestSubthresholdSwing(t *testing.T) {
	mos := NMOSFET()
	tfet := NHetJTFET()
	approxRel(t, subthresholdSwing(mos, 0.05, 0.20), 60, 0.01, "MOSFET swing")
	approxRel(t, subthresholdSwing(tfet, 0.02, 0.10), 30, 0.01, "TFET swing")
	if subthresholdSwing(tfet, 0.02, 0.10) >= subthresholdSwing(mos, 0.05, 0.20) {
		t.Error("TFET swing should beat the MOSFET's 60 mV/decade limit")
	}
}

// Figure 1: the HetJTFET outperforms the MOSFET at low voltage but stops
// scaling beyond ≈0.6 V, where the MOSFET overtakes it.
func TestIVCrossover(t *testing.T) {
	tfet, mos := NHetJTFET(), NMOSFET()
	v, err := CrossoverVoltage(tfet, mos, 0.9)
	if err != nil {
		t.Fatalf("CrossoverVoltage: %v", err)
	}
	if v < 0.45 || v > 0.75 {
		t.Errorf("crossover at %.3f V, want near 0.6 V", v)
	}
	// Below crossover TFET wins, above it MOSFET wins.
	if tfet.Current(0.35) <= mos.Current(0.35) {
		t.Error("TFET should conduct more at 0.35 V")
	}
	if mos.Current(0.8) <= tfet.Current(0.8) {
		t.Error("MOSFET should conduct more at 0.8 V")
	}
}

func TestIVCrossoverErrors(t *testing.T) {
	// Same model against itself never crosses.
	if _, err := CrossoverVoltage(NMOSFET(), NMOSFET(), 0.9); err == nil {
		t.Error("expected error for identical curves")
	}
}

// The ON/OFF separation should span at least four orders of magnitude —
// the requirement the paper states for an effective low-voltage switch.
func TestOnOffSeparation(t *testing.T) {
	tfet := NHetJTFET()
	onOff := tfet.Current(0.40) / tfet.Current(0)
	if onOff < 1e4 {
		t.Errorf("TFET ON/OFF at 0.4 V = %.2e, want >= 1e4", onOff)
	}
}

func TestTFETSaturates(t *testing.T) {
	tfet := NHetJTFET()
	// Past 0.6 V, the marginal current gain per 100 mV should be small.
	gain := tfet.Current(0.8) / tfet.Current(0.7)
	if gain > 1.05 {
		t.Errorf("TFET gains %.3fx from 0.7→0.8 V, expected saturation (<1.05x)", gain)
	}
	// The MOSFET keeps gaining in the same range.
	mos := NMOSFET()
	if mosGain := mos.Current(0.8) / mos.Current(0.7); mosGain < 1.10 {
		t.Errorf("MOSFET gains only %.3fx from 0.7→0.8 V, expected >1.10x", mosGain)
	}
}

// Property: current is non-negative and monotone for arbitrary voltage
// pairs, for both devices.
func TestIVMonotoneProperty(t *testing.T) {
	f := func(a, b uint16) bool {
		v1 := float64(a) / float64(math.MaxUint16) // [0,1]
		v2 := float64(b) / float64(math.MaxUint16)
		if v1 > v2 {
			v1, v2 = v2, v1
		}
		for _, m := range []IVModel{NMOSFET(), NHetJTFET()} {
			i1, i2 := m.Current(v1), m.Current(v2)
			if i1 < 0 || i2 < 0 || i1 > i2+1e-18 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
