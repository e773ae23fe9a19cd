// Package governor implements a DVFS operating-point selector for HetCore
// processors: given a measured power profile at the nominal operating
// point and a power budget, it picks the highest core frequency whose
// matched (V_CMOS, V_TFET) pair — solved from the Figure 3 curves — still
// fits the budget.
//
// This operationalises Section III-D: because the two technologies have
// different Vdd-frequency slopes, boosting costs the TFET domain
// relatively more voltage (and therefore energy) than the CMOS domain,
// so a hetero-device core's power curve is steeper above the nominal
// point than a pure-CMOS core's.
package governor

import (
	"fmt"

	"hetcore/internal/device"
	"hetcore/internal/energy"
)

// Profile is a processor's power draw measured at the nominal operating
// point (2 GHz, 0.73 V / 0.40 V), split by domain.
type Profile struct {
	// DynamicWatts is total dynamic power at the nominal point.
	DynamicWatts float64
	// LeakageWatts is total leakage power at the nominal point.
	LeakageWatts float64
	// CMOSDynShare is the fraction of dynamic power drawn by CMOS-domain
	// units (1.0 for an all-CMOS core; ≈0.6-0.7 for AdvHet).
	CMOSDynShare float64
	// CMOSLeakShare is the CMOS-domain fraction of leakage power.
	CMOSLeakShare float64
}

// Validate checks the profile.
func (p Profile) Validate() error {
	if p.DynamicWatts < 0 || p.LeakageWatts < 0 {
		return fmt.Errorf("governor: negative power in %+v", p)
	}
	if p.DynamicWatts+p.LeakageWatts == 0 {
		return fmt.Errorf("governor: zero-power profile")
	}
	if p.CMOSDynShare < 0 || p.CMOSDynShare > 1 || p.CMOSLeakShare < 0 || p.CMOSLeakShare > 1 {
		return fmt.Errorf("governor: domain shares out of [0,1] in %+v", p)
	}
	return nil
}

// FromMeasurement derives a profile from an energy breakdown and the run
// time it was integrated over. The domain shares must be supplied by the
// caller (they follow from the configuration's unit assignment).
func FromMeasurement(bd energy.Breakdown, timeSec, cmosDynShare, cmosLeakShare float64) (Profile, error) {
	if timeSec <= 0 {
		return Profile{}, fmt.Errorf("governor: non-positive time %v", timeSec)
	}
	return Profile{
		DynamicWatts:  bd.Dynamic() / timeSec,
		LeakageWatts:  bd.Leakage() / timeSec,
		CMOSDynShare:  cmosDynShare,
		CMOSLeakShare: cmosLeakShare,
	}, nil
}

// PowerAt estimates total power at core frequency f (GHz): dynamic power
// scales with frequency and per-domain V², leakage with per-domain V³.
func PowerAt(p Profile, f float64, d *device.DVFS) (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	pair, err := d.PairFor(f)
	if err != nil {
		return 0, err
	}
	nom := d.Nominal()
	cs := device.ScaleFrom(nom.VCMOS, pair.VCMOS)
	ts := device.ScaleFrom(nom.VTFET, pair.VTFET)
	fr := f / nom.FrequencyGHz

	dyn := p.DynamicWatts * fr *
		(p.CMOSDynShare*cs.Dynamic + (1-p.CMOSDynShare)*ts.Dynamic)
	leak := p.LeakageWatts *
		(p.CMOSLeakShare*cs.Leakage + (1-p.CMOSLeakShare)*ts.Leakage)
	return dyn + leak, nil
}

// Decision is the governor's chosen operating point.
type Decision struct {
	FrequencyGHz float64
	Pair         device.VoltagePair
	Watts        float64
}

// Select returns the highest frequency in [fmin, fmax] (stepGHz
// granularity) whose estimated power fits the budget. It returns an error
// if even fmin exceeds the budget or no matched voltage pair exists in
// the range.
func Select(p Profile, budgetWatts, fmin, fmax, stepGHz float64, d *device.DVFS) (Decision, error) {
	if err := p.Validate(); err != nil {
		return Decision{}, err
	}
	if budgetWatts <= 0 || fmin <= 0 || fmax < fmin || stepGHz <= 0 {
		return Decision{}, fmt.Errorf("governor: bad search range (budget %v, [%v,%v] step %v)",
			budgetWatts, fmin, fmax, stepGHz)
	}
	best := Decision{}
	found := false
	for f := fmin; f <= fmax+1e-9; f += stepGHz {
		w, err := PowerAt(p, f, d)
		if err != nil {
			continue // outside the matched-pair range
		}
		if w <= budgetWatts {
			pair, _ := d.PairFor(f)
			best = Decision{FrequencyGHz: f, Pair: pair, Watts: w}
			found = true
		}
	}
	if !found {
		return Decision{}, fmt.Errorf("governor: budget %.3g W unreachable (min frequency %.2f GHz)",
			budgetWatts, fmin)
	}
	return best, nil
}
