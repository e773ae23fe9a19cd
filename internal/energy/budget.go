package energy

import "fmt"

// Budget bounds a system design by total silicon area and sustained
// power draw — the two resources a single-chip design trades cores
// against (Chung et al.'s single-chip heterogeneous-computing analysis,
// which the lumos HetSys/MPSoC models and our SoC layer follow). A zero
// field means unconstrained in that dimension.
type Budget struct {
	// AreaMM2 is the die-area budget in mm².
	AreaMM2 float64
	// PowerW is the peak-power budget in watts.
	PowerW float64
}

// Validate rejects negative or NaN-ish budgets.
func (b Budget) Validate() error {
	if b.AreaMM2 < 0 || b.AreaMM2 != b.AreaMM2 {
		return fmt.Errorf("energy: budget area %v mm² invalid", b.AreaMM2)
	}
	if b.PowerW < 0 || b.PowerW != b.PowerW {
		return fmt.Errorf("energy: budget power %v W invalid", b.PowerW)
	}
	return nil
}

// Fits reports whether a design needing areaMM2 and powerW stays within
// the budget. Exactly meeting the budget fits; zero budget dimensions
// are unconstrained.
func (b Budget) Fits(areaMM2, powerW float64) bool {
	if b.AreaMM2 > 0 && areaMM2 > b.AreaMM2 {
		return false
	}
	if b.PowerW > 0 && powerW > b.PowerW {
		return false
	}
	return true
}

// String formats the budget for reports.
func (b Budget) String() string {
	return fmt.Sprintf("%.1f W / %.1f mm²", b.PowerW, b.AreaMM2)
}
