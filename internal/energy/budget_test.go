package energy

import (
	"math"
	"testing"
)

func TestBudgetValidate(t *testing.T) {
	for _, tc := range []struct {
		b  Budget
		ok bool
	}{
		{Budget{AreaMM2: 50, PowerW: 20}, true},
		{Budget{}, true}, // fully unconstrained
		{Budget{AreaMM2: -1, PowerW: 20}, false},
		{Budget{AreaMM2: 50, PowerW: -0.1}, false},
		{Budget{AreaMM2: math.NaN(), PowerW: 20}, false},
		{Budget{AreaMM2: 50, PowerW: math.NaN()}, false},
	} {
		if err := tc.b.Validate(); (err == nil) != tc.ok {
			t.Errorf("Validate(%+v) = %v, want ok=%v", tc.b, err, tc.ok)
		}
	}
}

func TestBudgetFits(t *testing.T) {
	b := Budget{AreaMM2: 50, PowerW: 20}
	for _, tc := range []struct {
		area, power float64
		fits        bool
	}{
		{10, 10, true},
		{50, 20, true}, // exactly met fits
		{50.0001, 20, false},
		{50, 20.0001, false},
		{0, 0, true},
	} {
		if got := b.Fits(tc.area, tc.power); got != tc.fits {
			t.Errorf("Fits(%v, %v) = %v, want %v", tc.area, tc.power, got, tc.fits)
		}
	}
	// A zero dimension is unconstrained.
	if !(Budget{PowerW: 20}).Fits(1e9, 20) {
		t.Error("zero area budget should not constrain area")
	}
	if !(Budget{AreaMM2: 50}).Fits(50, 1e9) {
		t.Error("zero power budget should not constrain power")
	}
}

func TestBudgetString(t *testing.T) {
	if got := (Budget{AreaMM2: 50, PowerW: 20}).String(); got != "20.0 W / 50.0 mm²" {
		t.Errorf("String() = %q", got)
	}
}
