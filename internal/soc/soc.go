// Package soc composes the HetCore device models into budgeted
// many-core systems-on-chip: N Si-CMOS cores, M TFET cores, an optional
// TFET-CMOS hetero-device GPU and optional per-kernel fixed-function
// accelerators sharing one die under an area and peak-power budget
// (energy.Budget). It follows the lumos HetSys/MPSoC style of analysis —
// a serial core plus throughput components under a fixed budget with an
// Amdahl serial/parallel split per workload — which in turn follows
// Chung et al.'s single-chip heterogeneous-computing framework.
//
// The composition reuses the existing core and GPU models as measured
// components behind one pluggable Component surface: a 1-core BaseCMOS
// run, the BaseTFET view priced from it and an AdvHet GPU kernel run
// yield per-unit instruction rates, per-instruction dynamic energies
// and leakage powers (the accelerator builds derive from the same GPU
// run through the energy.AccelEntry catalog), and Evaluate combines
// them analytically, asking a governor.Dispatcher to place each
// workload's offloadable fraction. Each evaluated (config, workload)
// point is a pure function of (config name, workload, seed, instruction
// budget), so the design-space search runs as run-plan engine jobs and
// the memoizing cache, the disk cache and the dist layer absorb the
// combinatorics.
package soc

import (
	"fmt"
	"strconv"
	"strings"

	"hetcore/internal/device"
	"hetcore/internal/energy"
)

// AccelTech is the build technology of a mix's accelerator units.
type AccelTech string

const (
	// AccelCMOS is a Si-CMOS accelerator build ("c" in config names).
	AccelCMOS AccelTech = "cmos"
	// AccelTFET is an all-TFET accelerator build ("t" in config names).
	AccelTFET AccelTech = "tfet"
)

// letter is the tech's single-letter form in the config grammar.
func (t AccelTech) letter() string {
	if t == AccelTFET {
		return "t"
	}
	return "c"
}

// Config is one SoC component mix. Its canonical name
// "c<N>t<M>g<K>[x{c|t}<U>]" is the engine-key config string: parseable,
// unambiguous and stable, so any daemon can reconstruct the design from
// the key alone. The optional x-term adds <U> fixed-function accelerator
// units in a CMOS ("xc") or TFET ("xt") build.
type Config struct {
	// CMOSCores and TFETCores count the Si-CMOS (BaseCMOS-class) and
	// TFET (BaseTFET-class) cores.
	CMOSCores, TFETCores int
	// GPUCUs counts AdvHet GPU compute units (0 = no GPU on die).
	GPUCUs int
	// AccelUnits counts fixed-function accelerator units (0 = none).
	AccelUnits int
	// AccelTech is the accelerator build technology; it must be set
	// exactly when AccelUnits > 0.
	AccelTech AccelTech
}

// Name returns the canonical "c<N>t<M>g<K>[x{c|t}<U>]" form.
func (c Config) Name() string {
	base := fmt.Sprintf("c%dt%dg%d", c.CMOSCores, c.TFETCores, c.GPUCUs)
	if c.AccelUnits > 0 {
		return base + "x" + c.AccelTech.letter() + strconv.Itoa(c.AccelUnits)
	}
	return base
}

// ParseConfig parses a canonical "c<N>t<M>g<K>[x{c|t}<U>]" name. Only
// valid mixes parse: engine keys must name designs that can actually
// evaluate.
func ParseConfig(name string) (Config, error) {
	base, accel := name, ""
	if i := strings.IndexByte(name, 'x'); i >= 0 {
		base, accel = name[:i], name[i:]
	}
	var c Config
	n, err := fmt.Sscanf(base, "c%dt%dg%d", &c.CMOSCores, &c.TFETCores, &c.GPUCUs)
	if n != 3 || err != nil ||
		fmt.Sprintf("c%dt%dg%d", c.CMOSCores, c.TFETCores, c.GPUCUs) != base {
		return Config{}, fmt.Errorf("soc: config %q is not of the form c<N>t<M>g<K>[x{c|t}<U>]", name)
	}
	if accel != "" {
		if c.AccelUnits, c.AccelTech, err = parseAccelTerm(accel); err != nil {
			return Config{}, fmt.Errorf("soc: config %q: %w", name, err)
		}
	}
	if err := c.Validate(); err != nil {
		return Config{}, err
	}
	return c, nil
}

// parseAccelTerm parses an "x{c|t}<U>" accelerator term (U ≥ 1, no
// leading zeros, nothing trailing).
func parseAccelTerm(term string) (int, AccelTech, error) {
	bad := func() (int, AccelTech, error) {
		return 0, "", fmt.Errorf("bad accelerator term %q (want x{c|t}<U>)", term)
	}
	if len(term) < 3 || term[0] != 'x' {
		return bad()
	}
	tech := AccelCMOS
	switch term[1] {
	case 'c':
	case 't':
		tech = AccelTFET
	default:
		return bad()
	}
	digits := term[2:]
	units, err := strconv.Atoi(digits)
	if err != nil || units < 1 || strconv.Itoa(units) != digits {
		return bad()
	}
	return units, tech, nil
}

// Validate rejects impossible mixes. A SoC needs at least one core: the
// serial phase (and the OS) cannot run on a bare GPU or accelerator.
func (c Config) Validate() error {
	if c.CMOSCores < 0 || c.TFETCores < 0 || c.GPUCUs < 0 || c.AccelUnits < 0 {
		return fmt.Errorf("soc: %s has a negative component count", c.Name())
	}
	if c.CMOSCores+c.TFETCores == 0 {
		return fmt.Errorf("soc: %s has no CPU core to run the serial phase", c.Name())
	}
	switch {
	case c.AccelUnits > 0 && c.AccelTech != AccelCMOS && c.AccelTech != AccelTFET:
		return fmt.Errorf("soc: %s has accelerator units with unknown tech %q", c.Name(), c.AccelTech)
	case c.AccelUnits == 0 && c.AccelTech != "":
		return fmt.Errorf("soc: accelerator tech %q set with no units", c.AccelTech)
	}
	return nil
}

// Class buckets the mix by which throughput components it carries, for
// class-best comparisons ("which class wins at this budget?").
func (c Config) Class() string {
	switch {
	case c.GPUCUs == 0 && c.AccelUnits == 0:
		return "cores-only"
	case c.AccelUnits == 0:
		return "gpu-only"
	case c.GPUCUs == 0:
		return "accel-" + string(c.AccelTech)
	default:
		return "gpu+accel-" + string(c.AccelTech)
	}
}

// Footprint sums the static silicon cost of the mix: the fixed uncore
// plus every core, CU and accelerator unit.
func (c Config) Footprint() device.Footprint {
	f := device.UncoreFootprint
	f = f.Add(device.CMOSCoreFootprint.Times(c.CMOSCores))
	f = f.Add(device.TFETCoreFootprint.Times(c.TFETCores))
	f = f.Add(device.GPUCUFootprint.Times(c.GPUCUs))
	f = f.Add(device.AccelFootprint(c.AccelTech == AccelTFET).Times(c.AccelUnits))
	return f
}

// Fits reports whether the mix's footprint stays within the budget.
func (c Config) Fits(b energy.Budget) bool {
	f := c.Footprint()
	return b.Fits(f.AreaMM2, f.PeakW)
}

// DefaultBudget is the search's reference constraint: a 20 W / 50 mm²
// mobile-class die.
func DefaultBudget() energy.Budget {
	return energy.Budget{AreaMM2: 50, PowerW: 20}
}
