package hetsim

import (
	"fmt"
	"math"
	"testing"

	"hetcore/internal/trace"
)

// TestWindowPricingMatchesAccounting: the live sampler prices a window
// with its run's own accounting, so a window spanning a run's whole
// measured region reads that run's end-of-run dynamic energy. A copy of
// the energy model in the sampler drifts from it: pricing the
// asymmetric DL1's fast way twice, the ring at CMOS scale in a TFET
// core, or every CMP core at CMOS scale each fails here.
func TestWindowPricingMatchesAccounting(t *testing.T) {
	prof, err := trace.CPUWorkload("barnes")
	if err != nil {
		t.Fatal(err)
	}
	opts := RunOpts{TotalInstructions: 40_000, Seed: 1}.withDefaults()
	check := func(name string, set coreSet, want float64) {
		t.Helper()
		m, err := set.run(prof, opts, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := windowDynJ(set.price, m.stats, m.counts)
		if rel := math.Abs(got-want) / want; !(rel <= 1e-12) {
			t.Errorf("%s: window prices the measured region at %.6g J, the accounting at %.6g J (ratio %.4f)",
				name, got, want, got/want)
		}
	}
	for _, name := range []string{"BaseCMOS", "BaseTFET", "AdvHet", "BaseCMOS-Enh"} {
		cfg, err := CPUConfigByName(name)
		if err != nil {
			t.Fatal(err)
		}
		r, err := RunCPU(cfg, prof, opts)
		if err != nil {
			t.Fatal(err)
		}
		check(name, cpuCoreSet(cfg, prof, opts), r.Energy.Dynamic())
	}
	for _, migrate := range []bool{true, false} {
		hc := DefaultHeteroCMP()
		hc.Migrate = migrate
		r, err := RunHeteroCMP(hc, prof, opts)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("HeteroCMP migrate=%v", migrate), hc.coreSet(prof, opts, ""), r.Energy.Dynamic())
	}
}

// TestWindowPricingAllocatesNothing: the daemon arms the samplers on
// every job it runs, so pricing a window must not allocate.
func TestWindowPricingAllocatesNothing(t *testing.T) {
	prof, err := trace.CPUWorkload("lu")
	if err != nil {
		t.Fatal(err)
	}
	opts := RunOpts{TotalInstructions: 8_000, Seed: 1}.withDefaults()
	adv, err := CPUConfigByName("AdvHet")
	if err != nil {
		t.Fatal(err)
	}
	for name, set := range map[string]coreSet{
		"AdvHet":    cpuCoreSet(adv, prof, opts),
		"HeteroCMP": DefaultHeteroCMP().coreSet(prof, opts, ""),
	} {
		m, err := set.run(prof, opts, 0)
		if err != nil {
			t.Fatal(err)
		}
		var e float64
		allocs := testing.AllocsPerRun(20, func() { e = windowDynJ(set.price, m.stats, m.counts) })
		if allocs != 0 {
			t.Errorf("%s: pricing a window allocates %v objects, want 0", name, allocs)
		}
		if !(e > 0) {
			t.Errorf("%s: window energy %v, want > 0", name, e)
		}
	}
}
