package device

import (
	"fmt"
	"math"
	"testing"
)

// Curve fitting: how the Figure 3 parametric curves were derived from the
// paper's quoted anchor points. The fitters recover curve parameters from
// (voltage, frequency) anchors by coarse-to-fine grid search on the sum
// of squared relative errors; the shipped constants in freq.go are the
// result of exactly these fits.

// AnchorPoint is one (Vdd, frequency) observation.
type AnchorPoint struct {
	V float64 // volts
	F float64 // GHz
}

// CMOSAnchors returns the Si-CMOS anchors quoted in Sections III-D and
// VII-D: 0.73 V → 2 GHz, +75 mV → 2.5 GHz, −70 mV → 1.5 GHz.
func CMOSAnchors() []AnchorPoint {
	return []AnchorPoint{{0.73, 2.0}, {0.805, 2.5}, {0.66, 1.5}}
}

// TFETAnchors returns the HetJTFET anchors: 0.40 V → 1 GHz (half the core
// clock per half-work stage), +90 mV → 1.25 GHz, −80 mV → 0.75 GHz.
func TFETAnchors() []AnchorPoint {
	return []AnchorPoint{{0.40, 1.0}, {0.49, 1.25}, {0.32, 0.75}}
}

// fitError is the sum of squared relative frequency errors of a curve
// against the anchors.
func fitError(c FreqCurve, anchors []AnchorPoint) float64 {
	var e float64
	for _, a := range anchors {
		rel := (c.FrequencyGHz(a.V) - a.F) / a.F
		e += rel * rel
	}
	return e
}

// FitCMOSCurve fits the alpha-power-law f = k(V-Vth)^alpha / V to the
// anchors and returns the fitted curve with its residual error.
func FitCMOSCurve(anchors []AnchorPoint) (FreqCurve, float64, error) {
	if len(anchors) < 3 {
		return nil, 0, fmt.Errorf("device: need >= 3 anchors, got %d", len(anchors))
	}
	best := cmosCurve{}
	bestErr := math.Inf(1)
	// Coarse-to-fine grid over (vth, alpha); k follows in closed form
	// from the first anchor.
	vthLo, vthHi := 0.1, 0.6
	alLo, alHi := 1.0, 2.5
	for pass := 0; pass < 4; pass++ {
		vthStep := (vthHi - vthLo) / 20
		alStep := (alHi - alLo) / 20
		for vth := vthLo; vth <= vthHi; vth += vthStep {
			if vth >= anchors[0].V {
				continue
			}
			for al := alLo; al <= alHi; al += alStep {
				k := anchors[0].F * anchors[0].V / math.Pow(anchors[0].V-vth, al)
				c := cmosCurve{k: k, vth: vth, alpha: al}
				if e := fitError(c, anchors); e < bestErr {
					bestErr, best = e, c
				}
			}
		}
		// Zoom in around the best point.
		vthLo, vthHi = best.vth-2*vthStep, best.vth+2*vthStep
		alLo, alHi = best.alpha-2*alStep, best.alpha+2*alStep
		if vthLo < 0.01 {
			vthLo = 0.01
		}
		if alLo < 0.5 {
			alLo = 0.5
		}
	}
	return best, bestErr, nil
}

// FitTFETCurve fits the logistic f = fsat / (1 + exp(-k(V-Vm))) to the
// anchors and returns the fitted curve with its residual error.
func FitTFETCurve(anchors []AnchorPoint) (FreqCurve, float64, error) {
	if len(anchors) < 3 {
		return nil, 0, fmt.Errorf("device: need >= 3 anchors, got %d", len(anchors))
	}
	var fmaxAnchor float64
	for _, a := range anchors {
		if a.F > fmaxAnchor {
			fmaxAnchor = a.F
		}
	}
	best := tfetCurve{}
	bestErr := math.Inf(1)
	fsLo, fsHi := fmaxAnchor*1.05, fmaxAnchor*2.5
	kLo, kHi := 2.0, 20.0
	vmLo, vmHi := 0.1, 0.5
	for pass := 0; pass < 4; pass++ {
		fsStep := (fsHi - fsLo) / 15
		kStep := (kHi - kLo) / 15
		vmStep := (vmHi - vmLo) / 15
		for fs := fsLo; fs <= fsHi; fs += fsStep {
			for k := kLo; k <= kHi; k += kStep {
				for vm := vmLo; vm <= vmHi; vm += vmStep {
					c := tfetCurve{fsat: fs, k: k, vm: vm}
					if e := fitError(c, anchors); e < bestErr {
						bestErr, best = e, c
					}
				}
			}
		}
		fsLo, fsHi = best.fsat-2*fsStep, best.fsat+2*fsStep
		kLo, kHi = best.k-2*kStep, best.k+2*kStep
		vmLo, vmHi = best.vm-2*vmStep, best.vm+2*vmStep
		if fsLo <= fmaxAnchor {
			fsLo = fmaxAnchor * 1.001
		}
		if kLo < 0.5 {
			kLo = 0.5
		}
		if vmLo < 0.01 {
			vmLo = 0.01
		}
	}
	return best, bestErr, nil
}

// The fitter should recover a curve that passes through the paper's
// anchors about as well as the shipped constants do.
func TestFitCMOSCurve(t *testing.T) {
	fitted, residual, err := FitCMOSCurve(CMOSAnchors())
	if err != nil {
		t.Fatal(err)
	}
	if residual > 1e-3 {
		t.Errorf("CMOS fit residual %v too large", residual)
	}
	for _, a := range CMOSAnchors() {
		got := fitted.FrequencyGHz(a.V)
		if rel := (got - a.F) / a.F; rel > 0.03 || rel < -0.03 {
			t.Errorf("fitted CMOS f(%v) = %v, want %v", a.V, got, a.F)
		}
	}
	// The shipped curve should agree with the fit across the DVFS range.
	shipped := CMOSFreqCurve()
	for v := 0.6; v <= 0.85; v += 0.05 {
		f1, f2 := fitted.FrequencyGHz(v), shipped.FrequencyGHz(v)
		if rel := (f1 - f2) / f2; rel > 0.06 || rel < -0.06 {
			t.Errorf("fit diverges from shipped curve at %v V: %v vs %v", v, f1, f2)
		}
	}
}

func TestFitTFETCurve(t *testing.T) {
	fitted, residual, err := FitTFETCurve(TFETAnchors())
	if err != nil {
		t.Fatal(err)
	}
	if residual > 2e-3 {
		t.Errorf("TFET fit residual %v too large", residual)
	}
	for _, a := range TFETAnchors() {
		got := fitted.FrequencyGHz(a.V)
		if rel := (got - a.F) / a.F; rel > 0.04 || rel < -0.04 {
			t.Errorf("fitted TFET f(%v) = %v, want %v", a.V, got, a.F)
		}
	}
	// The fit must saturate like a TFET: little gain past 0.7 V.
	if gain := fitted.FrequencyGHz(0.85) / fitted.FrequencyGHz(0.70); gain > 1.15 {
		t.Errorf("fitted TFET curve does not saturate (gain %v)", gain)
	}
}

func TestFitRejectsTooFewAnchors(t *testing.T) {
	if _, _, err := FitCMOSCurve(CMOSAnchors()[:2]); err == nil {
		t.Error("CMOS fit accepted 2 anchors")
	}
	if _, _, err := FitTFETCurve(TFETAnchors()[:1]); err == nil {
		t.Error("TFET fit accepted 1 anchor")
	}
}

// A DVFS solver built on freshly fitted curves reproduces the paper's
// turbo voltage deltas.
func TestDVFSOnFittedCurves(t *testing.T) {
	cm, _, err := FitCMOSCurve(CMOSAnchors())
	if err != nil {
		t.Fatal(err)
	}
	tf, _, err := FitTFETCurve(TFETAnchors())
	if err != nil {
		t.Fatal(err)
	}
	d := &DVFS{cmos: cm, tfet: tf}
	nom, err := d.PairFor(2.0)
	if err != nil {
		t.Fatal(err)
	}
	turbo, err := d.PairFor(2.5)
	if err != nil {
		t.Fatal(err)
	}
	dC := (turbo.VCMOS - nom.VCMOS) * 1000
	dT := (turbo.VTFET - nom.VTFET) * 1000
	if dC < 55 || dC > 95 {
		t.Errorf("fitted ΔV_CMOS = %.0f mV, want ≈75", dC)
	}
	if dT < 70 || dT > 115 {
		t.Errorf("fitted ΔV_TFET = %.0f mV, want ≈90", dT)
	}
	if dT <= dC {
		t.Error("fitted curves lost the ΔV_TFET > ΔV_CMOS property")
	}
}
