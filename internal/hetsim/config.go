// Package hetsim assembles the substrates into the HetCore evaluation: it
// defines every CPU and GPU configuration of Table IV, runs workloads on
// them (single-core and multicore under a fixed power budget), and
// produces time/energy/ED² results for the harness to normalise into the
// paper's figures.
package hetsim

import (
	"fmt"
	"sort"

	"hetcore/internal/cache"
	"hetcore/internal/cpu"
	"hetcore/internal/energy"
)

// CPUConfig is one Table IV CPU configuration, fully resolved: pipeline
// parameters, memory hierarchy latencies, and the per-unit technology
// assignment for the energy model.
type CPUConfig struct {
	Name  string
	Notes string
	// Cores is the number of cores powered (4 baseline; 8 for
	// AdvHet-2X under the same power budget).
	Cores  int
	Core   cpu.Config
	Hier   cache.Config
	Assign energy.CPUAssign
}

// FreqGHz returns the configuration's clock.
func (c CPUConfig) FreqGHz() float64 { return c.Core.FreqGHz }

// baseHier returns Table III's hierarchy with CMOS round trips.
func baseHier(cores int, freqGHz float64) cache.Config {
	return cache.Config{
		Cores: cores, LineSize: 64,
		IL1Size: 32 * 1024, IL1Ways: 2, IL1RT: 2,
		DL1Size: 32 * 1024, DL1Ways: 8, DL1RT: 2,
		L2Size: 256 * 1024, L2Ways: 8, L2RT: 8,
		L3SizePerCore: 2 * 1024 * 1024, L3Ways: 16, L3RT: 32,
		DRAMRoundTripNS: 50, DRAMFixedCycles: 100,
		RingHopLat: 2, FreqGHz: freqGHz,
		NextLinePrefetch: true,
	}
}

// tfetCaches switches DL1/L2/L3 to the TFET round trips of Table III.
func tfetCaches(h cache.Config) cache.Config {
	h.DL1RT, h.L2RT, h.L3RT = 4, 12, 40
	return h
}

// asymDL1 enables the AdvHet asymmetric DL1 (4 KB CMOS way at 1 cycle;
// slow ways at slowRT; 1-cycle scheduler replay on fast misses).
func asymDL1(h cache.Config, slowRT int) cache.Config {
	h.AsymDL1 = true
	h.FastSize, h.FastRT, h.SlowRT = 4*1024, 1, slowRT
	h.AsymReplayPenalty = 1
	return h
}

// enhance applies the BaseCMOS-Enh / AdvHet window enlargement:
// ROB 160→192 and FP RF 80→128.
func enhance(c cpu.Config) cpu.Config {
	c.ROBSize, c.FPRegs = 192, 128
	return c
}

// dualSpeed enables the AdvHet ALU cluster: 3 TFET ALUs + 1 CMOS ALU,
// steering window equal to the issue width.
func dualSpeed(c cpu.Config) cpu.Config {
	c.DualSpeedALU = true
	c.CMOSALULat = 1
	c.SteerWindow = c.IssueWidth
	return c
}

// assign builders -----------------------------------------------------------

// allTFETAssign returns the BaseTFET assignment: every unit in TFET.
func allTFETAssign() energy.CPUAssign {
	tf := energy.TFETScale()
	return energy.CPUAssign{Core: tf, ALUSlow: tf, ALUFast: tf,
		ALULeak: tf, Mul: tf, FPU: tf, DL1: tf, DL1Fast: tf, L2: tf, L3: tf}
}

func assignBaseHet() energy.CPUAssign {
	a := energy.AllCMOSAssign()
	tf := energy.TFETScale()
	a.ALUSlow, a.ALULeak, a.Mul, a.FPU = tf, tf, tf, tf
	a.DL1, a.L2, a.L3 = tf, tf, tf
	return a
}

func assignAdvHet() energy.CPUAssign {
	a := assignBaseHet()
	// Dual-speed cluster: 1 of 4 ALUs stays CMOS.
	a.ALUFast = energy.CMOSScale()
	a.ALULeak = energy.Scale{
		Dyn:  1, // unused for leak-only field
		Leak: 0.25*1 + 0.75*energy.TFETScale().Leak,
	}
	// Asymmetric DL1: the CMOS fast way plus TFET slow ways.
	a.DL1Fast = energy.CMOSScale()
	return a
}

// CPUConfigs returns every CPU configuration of Table IV, plus AdvHet-2X
// (Section VII-A1: 8 AdvHet cores under BaseCMOS's 4-core power budget).
func CPUConfigs() []CPUConfig {
	var out []CPUConfig

	// BaseCMOS: all-CMOS core.
	base := cpu.DefaultConfig()
	out = append(out, CPUConfig{
		Name: "BaseCMOS", Notes: "All-CMOS core", Cores: 4,
		Core: base, Hier: baseHier(4, base.FreqGHz),
		Assign: energy.AllCMOSAssign(),
	})

	// BaseCMOS-Enh: larger ROB/FP-RF + CMOS asymmetric DL1 (1 cycle for
	// 1 way, 3 cycles for the rest).
	enh := enhance(base)
	out = append(out, CPUConfig{
		Name:  "BaseCMOS-Enh",
		Notes: "BaseCMOS + larger ROB(160→192) & FP-RF(80→128) + CMOS asymm. DL1",
		Cores: 4, Core: enh, Hier: asymDL1(baseHier(4, enh.FreqGHz), 3),
		Assign: func() energy.CPUAssign {
			a := energy.AllCMOSAssign()
			a.DL1Fast = energy.CMOSScale()
			return a
		}(),
	})

	// BaseTFET: all-TFET core at half frequency. Unit latencies in
	// cycles match CMOS (the clock slowed with the devices).
	tfetCore := base
	tfetCore.FreqGHz = 1.0
	out = append(out, CPUConfig{
		Name: "BaseTFET", Notes: "All-TFET core at 1 GHz", Cores: 4,
		Core: tfetCore, Hier: baseHier(4, 1.0),
		Assign: allTFETAssign(),
	})

	// BaseHet: FPUs, ALUs, DL1, L2 and L3 in TFET.
	het := base
	het.IntLat, het.FPLat = cpu.TFETLatencies(), cpu.TFETLatencies()
	out = append(out, CPUConfig{
		Name: "BaseHet", Notes: "BaseCMOS + FPUs, ALUs, DL1, L2, L3 in TFET",
		Cores: 4, Core: het, Hier: tfetCaches(baseHier(4, het.FreqGHz)),
		Assign: assignBaseHet(),
	})

	// AdvHet: BaseHet + larger windows + dual-speed ALU + asymm. DL1.
	adv := dualSpeed(enhance(het))
	advHier := asymDL1(tfetCaches(baseHier(4, adv.FreqGHz)), 5)
	out = append(out, CPUConfig{
		Name:  "AdvHet",
		Notes: "BaseHet + larger ROB & FP-RF + dual-speed ALU + asymm. DL1",
		Cores: 4, Core: adv, Hier: advHier, Assign: assignAdvHet(),
	})

	// BaseL3: BaseCMOS + larger windows + TFET L3.
	l3Core := enhance(base)
	l3Hier := baseHier(4, l3Core.FreqGHz)
	l3Hier.L3RT = 40
	out = append(out, CPUConfig{
		Name: "BaseL3", Notes: "BaseCMOS + larger ROB & FP-RF + L3 in TFET",
		Cores: 4, Core: l3Core, Hier: l3Hier,
		Assign: func() energy.CPUAssign {
			a := energy.AllCMOSAssign()
			a.L3 = energy.TFETScale()
			return a
		}(),
	})

	// BaseHighVt: FPUs & ALUs built only from high-Vt transistors.
	hv := base
	hv.IntLat, hv.FPLat = cpu.HighVtLatencies(), cpu.HighVtLatencies()
	out = append(out, CPUConfig{
		Name: "BaseHighVt", Notes: "BaseCMOS + high-Vt FPUs & ALUs",
		Cores: 4, Core: hv, Hier: baseHier(4, hv.FreqGHz),
		Assign: func() energy.CPUAssign {
			a := energy.AllCMOSAssign()
			h := energy.HighVtScale()
			a.ALUSlow, a.ALULeak, a.Mul, a.FPU = h, h, h, h
			return a
		}(),
	})

	// BaseHet-FastALU: BaseHet but all ALUs stay CMOS.
	fa := het
	fa.IntLat.ALU = 1
	faAssign := assignBaseHet()
	faAssign.ALUSlow, faAssign.ALULeak = energy.CMOSScale(), energy.CMOSScale()
	out = append(out, CPUConfig{
		Name: "BaseHet-FastALU", Notes: "BaseHet + all ALUs in CMOS",
		Cores: 4, Core: fa, Hier: tfetCaches(baseHier(4, fa.FreqGHz)),
		Assign: faAssign,
	})

	// BaseHet-Enh: BaseHet + larger ROB & FP-RF.
	he := enhance(het)
	out = append(out, CPUConfig{
		Name: "BaseHet-Enh", Notes: "BaseHet + larger ROB & FP-RF",
		Cores: 4, Core: he, Hier: tfetCaches(baseHier(4, he.FreqGHz)),
		Assign: assignBaseHet(),
	})

	// BaseHet-Split: BaseHet-Enh + dual-speed ALU cluster.
	hs := dualSpeed(he)
	hsAssign := assignBaseHet()
	hsAssign.ALUFast = energy.CMOSScale()
	hsAssign.ALULeak = energy.Scale{Dyn: 1, Leak: 0.25 + 0.75*energy.TFETScale().Leak}
	out = append(out, CPUConfig{
		Name: "BaseHet-Split", Notes: "BaseHet-Enh + dual-speed ALU",
		Cores: 4, Core: hs, Hier: tfetCaches(baseHier(4, hs.FreqGHz)),
		Assign: hsAssign,
	})

	// AdvHet-2X: 8 AdvHet cores in BaseCMOS's power envelope.
	out = append(out, CPUConfig{
		Name:  "AdvHet-2X",
		Notes: "AdvHet with 2x cores under the BaseCMOS power budget",
		Cores: 8, Core: adv, Hier: asymDL1(tfetCaches(baseHier(8, adv.FreqGHz)), 5),
		Assign: assignAdvHet(),
	})

	// AdvHet-CMA: the Section IV-C4 FPU alternative — CMA multipliers
	// shave a cycle off FP add/mul forwarding at 20% more FPU power.
	cma := adv
	cma.FPLat = cpu.CMALatencies()
	cmaAssign := assignAdvHet()
	cmaAssign.FPU = cmaAssign.FPU.Mul(energy.Scale{Dyn: 1.2, Leak: 1.15})
	out = append(out, CPUConfig{
		Name:  "AdvHet-CMA",
		Notes: "AdvHet with CMA-multiplier FPUs (-1 cycle FP add/mul, +20% FPU power)",
		Cores: 4, Core: cma, Hier: asymDL1(tfetCaches(baseHier(4, cma.FreqGHz)), 5),
		Assign: cmaAssign,
	})

	return out
}

// SingleCore reduces a configuration to one powered core (hierarchy
// included). The SoC layer measures per-core component rates and
// energies from 1-core runs and composes many-core mixes from them.
func SingleCore(cfg CPUConfig) CPUConfig {
	cfg.Cores = 1
	cfg.Hier.Cores = 1
	return cfg
}

// CPUConfigByName returns the named configuration.
func CPUConfigByName(name string) (CPUConfig, error) {
	cfgs := CPUConfigs()
	for _, c := range cfgs {
		if c.Name == name {
			return c, nil
		}
	}
	names := make([]string, len(cfgs))
	for i, c := range cfgs {
		names[i] = c.Name
	}
	sort.Strings(names)
	return CPUConfig{}, fmt.Errorf("hetsim: unknown CPU config %q (have %v)", name, names)
}
