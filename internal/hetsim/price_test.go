package hetsim

import (
	"testing"

	"hetcore/internal/device"
	"hetcore/internal/energy"
	"hetcore/internal/trace"
)

var priceOpts = RunOpts{TotalInstructions: 20_000, Seed: 1}

// sameTimingPairs returns every pair of distinct configurations in cfgs
// that SameTiming groups together, the earlier one first.
func sameTimingPairs(cfgs []CPUConfig) [][2]CPUConfig {
	var out [][2]CPUConfig
	for i, a := range cfgs {
		for _, b := range cfgs[i+1:] {
			if SameTiming(a, b) {
				out = append(out, [2]CPUConfig{a, b})
			}
		}
	}
	return out
}

// fig14Point is one Fig. 14 operating point (nominal, 2.5 and 1.5 GHz
// DVFS, process-variation guardband): a clock plus the voltage scales
// of each domain, derived the same way the harness does.
type fig14Point struct {
	freq             float64
	cmosAdj, tfetAdj energy.Scale
}

func fig14Points(t *testing.T) []fig14Point {
	t.Helper()
	dvfs := device.NewDVFS()
	nominal := dvfs.Nominal()
	scale := func(s device.EnergyScale) energy.Scale { return energy.Scale{Dyn: s.Dynamic, Leak: s.Leakage} }
	id := energy.Scale{Dyn: 1, Leak: 1}
	pts := []fig14Point{{2.0, id, id}}
	for _, f := range []float64{2.5, 1.5} {
		pair, err := dvfs.PairFor(f)
		if err != nil {
			t.Fatal(err)
		}
		pts = append(pts, fig14Point{f,
			scale(device.ScaleFrom(nominal.VCMOS, pair.VCMOS)),
			scale(device.ScaleFrom(nominal.VTFET, pair.VTFET))})
	}
	cs, ts := device.EnergyScales(nominal, device.DefaultVariationGuardband().Apply(nominal))
	return append(pts, fig14Point{2.0, scale(cs), scale(ts)})
}

// checkReprice asserts that repricing a run of from as to (with the
// adjustments) equals running to directly, over every workload.
func checkReprice(t *testing.T, from, to CPUConfig, cmosAdj, tfetAdj energy.Scale) {
	t.Helper()
	direct := priceOpts
	direct.CMOSAdjust, direct.TFETAdjust = cmosAdj, tfetAdj
	for _, prof := range trace.CPUWorkloads() {
		r, err := RunCPU(from, prof, priceOpts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Reprice(r, from, to, cmosAdj, tfetAdj)
		if err != nil {
			t.Fatalf("%s -> %s / %s: %v", from.Name, to.Name, prof.Name, err)
		}
		want, err := RunCPU(to, prof, direct)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s -> %s / %s:\n repriced %+v\n direct   %+v", from.Name, to.Name, prof.Name, got, want)
		}
	}
}

// TestRepriceMatchesRunCPU: a priced view is the whole CPUResult a
// direct simulation of the target configuration returns, for every
// timing class of the registry (stock and one-core) and every Fig. 14
// operating point.
func TestRepriceMatchesRunCPU(t *testing.T) {
	cfgs := CPUConfigs()
	stock := sameTimingPairs(cfgs)
	if len(stock) == 0 {
		t.Fatal("no SameTiming pair in the registry (BaseCMOS/BaseTFET expected)")
	}
	for _, p := range stock {
		checkReprice(t, p[0], p[1], energy.Scale{}, energy.Scale{})
	}
	singles := make([]CPUConfig, len(cfgs))
	for i, c := range cfgs {
		singles[i] = SingleCore(c)
	}
	for _, p := range sameTimingPairs(singles) {
		checkReprice(t, p[0], p[1], energy.Scale{}, energy.Scale{})
	}
	for _, name := range []string{"BaseCMOS", "AdvHet"} {
		cfg, err := CPUConfigByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, pt := range fig14Points(t) {
			to := cfg
			to.Core.FreqGHz, to.Hier.FreqGHz = pt.freq, pt.freq
			checkReprice(t, cfg, to, pt.cmosAdj, pt.tfetAdj)
		}
	}
}

// TestRepriceRejects: Reprice refuses every input it cannot price
// exactly.
func TestRepriceRejects(t *testing.T) {
	base, err := CPUConfigByName("BaseCMOS")
	if err != nil {
		t.Fatal(err)
	}
	tfet, err := CPUConfigByName("BaseTFET")
	if err != nil {
		t.Fatal(err)
	}
	prof, err := trace.CPUWorkload("barnes")
	if err != nil {
		t.Fatal(err)
	}
	r, err := RunCPU(base, prof, priceOpts)
	if err != nil {
		t.Fatal(err)
	}

	nsDRAM := base
	nsDRAM.Hier.DRAMFixedCycles = 0
	nsSlow := nsDRAM
	nsSlow.Core.FreqGHz, nsSlow.Hier.FreqGHz = 1.0, 1.0
	rob := base
	rob.Core.ROBSize++
	l2 := base
	l2.Hier.L2RT++
	for _, c := range []struct {
		name     string
		from, to CPUConfig
	}{
		{"clock without fixed DRAM cycles", nsDRAM, nsSlow},
		{"core field", base, rob},
		{"hierarchy field", base, l2},
	} {
		if SameTiming(c.from, c.to) {
			t.Errorf("%s: SameTiming = true", c.name)
		}
		if _, err := Reprice(r, c.from, c.to, energy.Scale{}, energy.Scale{}); err == nil {
			t.Errorf("%s: Reprice succeeded", c.name)
		}
	}

	noAct := r
	noAct.Activity = energy.CPUActivity{}
	if _, err := Reprice(noAct, base, tfet, energy.Scale{}, energy.Scale{}); err == nil {
		t.Error("zero Activity: Reprice succeeded")
	}

	if _, err := Reprice(r, tfet, base, energy.Scale{}, energy.Scale{}); err == nil {
		t.Error("result of BaseCMOS repriced as a run of BaseTFET")
	}
	if _, err := Reprice(r, SingleCore(base), SingleCore(tfet), energy.Scale{}, energy.Scale{}); err == nil {
		t.Error("4-core result repriced as a run of the one-core form")
	}
}

// TestRunPricedPicksRegistryRep: the representative of a timing class
// is the first registry entry, whatever the caller's order, and only
// representatives reach the simulator.
func TestRunPricedPicksRegistryRep(t *testing.T) {
	var views []CPUView
	for _, name := range []string{"BaseTFET", "AdvHet", "BaseCMOS"} {
		cfg, err := CPUConfigByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []string{"barnes", "radix"} {
			prof, err := trace.CPUWorkload(w)
			if err != nil {
				t.Fatal(err)
			}
			views = append(views, CPUView{Config: SingleCore(cfg), Profile: prof})
		}
	}
	var simulated []string
	sim := func(reps []CPUView) ([]CPUResult, error) {
		for _, r := range reps {
			simulated = append(simulated, r.Config.Name+"/"+r.Profile.Name)
		}
		return Simulate(priceOpts)(reps)
	}
	got, err := RunPriced(views, nil, sim)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"BaseCMOS/barnes", "BaseCMOS/radix", "AdvHet/barnes", "AdvHet/radix"}
	if len(simulated) != len(want) {
		t.Fatalf("simulated %v, want %v", simulated, want)
	}
	for i := range want {
		if simulated[i] != want[i] {
			t.Fatalf("simulated %v, want %v", simulated, want)
		}
	}
	for i, v := range views {
		direct, err := RunCPU(v.Config, v.Profile, priceOpts)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != direct {
			t.Errorf("%s/%s: RunPriced %+v, direct %+v", v.Config.Name, v.Profile.Name, got[i], direct)
		}
	}
}
