package device

import (
	"math"
	"testing"
)

func approx(t *testing.T, got, want, tol float64, what string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %v, want %v ± %v", what, got, want, tol)
	}
}

func approxRel(t *testing.T, got, want, relTol float64, what string) {
	t.Helper()
	if want == 0 {
		t.Fatalf("%s: relative tolerance against zero", what)
	}
	if math.Abs(got-want)/math.Abs(want) > relTol {
		t.Errorf("%s = %v, want %v ± %v%%", what, got, want, relTol*100)
	}
}

func TestCharacterizeTableI(t *testing.T) {
	cases := []struct {
		tech Technology
		vdd  float64
		sw   float64
		alu  float64
		aluE float64
		leak float64
	}{
		{SiCMOS, 0.73, 0.41, 939, 170.1, 90.2},
		{HetJTFET, 0.40, 0.79, 1881, 43.4, 0.30},
		{InAsCMOS, 0.30, 3.80, 9327, 20.5, 0.14},
		{HomJTFET, 0.20, 6.68, 15990, 10.8, 1.44},
	}
	for _, c := range cases {
		ch := Characterize(c.tech)
		if ch.Tech != c.tech {
			t.Errorf("%v: Tech field = %v", c.tech, ch.Tech)
		}
		approx(t, ch.SupplyVoltage, c.vdd, 1e-9, c.tech.String()+" Vdd")
		approx(t, ch.SwitchingDelayPS, c.sw, 1e-9, c.tech.String()+" switching delay")
		approx(t, ch.ALUDelayPS, c.alu, 1e-9, c.tech.String()+" ALU delay")
		approx(t, ch.ALUDynamicEnergyFJ, c.aluE, 1e-9, c.tech.String()+" ALU energy")
		approx(t, ch.ALULeakageUW, c.leak, 1e-9, c.tech.String()+" ALU leakage")
	}
}

func TestCharacterizeUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Characterize(99) did not panic")
		}
	}()
	Characterize(Technology(99))
}

func TestTechnologyString(t *testing.T) {
	want := map[Technology]string{
		SiCMOS: "Si-CMOS", HetJTFET: "HetJTFET",
		InAsCMOS: "InAs-CMOS", HomJTFET: "HomJTFET",
	}
	for tech, name := range want {
		if tech.String() != name {
			t.Errorf("%d.String() = %q, want %q", int(tech), tech.String(), name)
		}
	}
	if s := Technology(42).String(); s != "Technology(42)" {
		t.Errorf("unknown String() = %q", s)
	}
}

// The paper quotes HetJTFET, InAs-CMOS and HomJTFET transistors as about
// 2x, 10x and 16x slower than Si-CMOS (Section III-A).
func TestDelayRatios(t *testing.T) {
	approxRel(t, Characterize(HetJTFET).DelayRatio(), 2, 0.05, "HetJTFET delay ratio")
	approxRel(t, Characterize(InAsCMOS).DelayRatio(), 10, 0.10, "InAs-CMOS delay ratio")
	approxRel(t, Characterize(HomJTFET).DelayRatio(), 16, 0.05, "HomJTFET delay ratio")
	approx(t, Characterize(SiCMOS).DelayRatio(), 1, 1e-12, "Si-CMOS delay ratio")
}

// A Si-CMOS 32-bit ALU op consumes about 4x, 8x and 16x as much energy as
// HetJTFET, InAs-CMOS and HomJTFET respectively (Section III-B).
func TestALUEnergyRatios(t *testing.T) {
	approxRel(t, Characterize(HetJTFET).ALUEnergyRatio(), 4, 0.05, "HetJTFET energy ratio")
	approxRel(t, Characterize(InAsCMOS).ALUEnergyRatio(), 8, 0.05, "InAs-CMOS energy ratio")
	approxRel(t, Characterize(HomJTFET).ALUEnergyRatio(), 16, 0.05, "HomJTFET energy ratio")
}

// A HetJTFET ALU leaks about 300x less than a regular-Vt Si-CMOS ALU.
func TestALULeakageRatio(t *testing.T) {
	ratio := Characterize(SiCMOS).ALULeakageUW / Characterize(HetJTFET).ALULeakageUW
	approxRel(t, ratio, 300, 0.01, "HetJTFET leakage ratio")
}

func TestMixableWithCMOS(t *testing.T) {
	if !Characterize(HetJTFET).MixableWithCMOS() {
		t.Error("HetJTFET should be mixable with CMOS (2x differential)")
	}
	if !Characterize(SiCMOS).MixableWithCMOS() {
		t.Error("Si-CMOS must be mixable with itself")
	}
	if Characterize(InAsCMOS).MixableWithCMOS() {
		t.Error("InAs-CMOS should not be mixable (10x differential)")
	}
	if Characterize(HomJTFET).MixableWithCMOS() {
		t.Error("HomJTFET should not be mixable (16x differential)")
	}
}

// With 60% high-Vt transistors, a typical dual-Vt Si-CMOS unit leaks about
// 42% of the all-regular-Vt value (Section III-B).
func TestDualVtLeakageFactor(t *testing.T) {
	approxRel(t, DualVtLeakageFactor(HighVtFraction), 0.42, 0.02, "dual-Vt leakage factor")
	approx(t, DualVtLeakageFactor(0), 1, 1e-12, "all regular-Vt")
	// 100% high-Vt leaks HighVtLeakageReduction times less.
	approxRel(t, DualVtLeakageFactor(1), 1/HighVtLeakageReduction, 1e-9, "all high-Vt")
}

func TestDualVtLeakageFactorMonotone(t *testing.T) {
	prev := DualVtLeakageFactor(0)
	for f := 0.1; f <= 1.0001; f += 0.1 {
		cur := DualVtLeakageFactor(math.Min(f, 1))
		if cur >= prev {
			t.Fatalf("leakage factor not decreasing at fraction %.1f: %v >= %v", f, cur, prev)
		}
		prev = cur
	}
}

func TestDualVtLeakageFactorPanics(t *testing.T) {
	for _, bad := range []float64{-0.1, 1.1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("DualVtLeakageFactor(%v) did not panic", bad)
				}
			}()
			DualVtLeakageFactor(bad)
		}()
	}
}

// Against a dual-Vt Si-CMOS ALU, the HetJTFET ALU leaks ≈125x less
// (Section III-B: "a HetJTFET ALU consumes 125x lower leakage power than a
// dual-Vt Si-CMOS ALU").
func TestDualVtTFETLeakageAdvantage(t *testing.T) {
	ratio := EffectiveALULeakageUW(HighVtFraction) / Characterize(HetJTFET).ALULeakageUW
	approxRel(t, ratio, 125, 0.05, "dual-Vt vs TFET leakage advantage")
}

// Even in the worst case (100% high-Vt CMOS), TFET still leaks ≈10x less
// (Section III-B), which is exactly the conservative factor the evaluation
// assumes.
func TestWorstCaseLeakageAdvantage(t *testing.T) {
	ratio := EffectiveALULeakageUW(1.0) / Characterize(HetJTFET).ALULeakageUW
	approxRel(t, ratio, ConservativeLeakageFactor, 0.15, "worst-case leakage advantage")
}
