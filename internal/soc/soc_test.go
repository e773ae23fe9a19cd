package soc

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"hetcore/internal/energy"
	"hetcore/internal/governor"
	"hetcore/internal/hetsim"
	"hetcore/internal/trace"
)

// pickTarget is a forced dispatcher for tests: it always places the
// offloadable fraction on the named target.
func pickTarget(target string) governor.Dispatcher {
	return func(cands []governor.Candidate) (int, error) {
		for i, c := range cands {
			if c.Target == target {
				return i, nil
			}
		}
		return 0, fmt.Errorf("no %q candidate in %v", target, cands)
	}
}

func TestConfigNameRoundTrip(t *testing.T) {
	for _, cfg := range DefaultSpace() {
		got, err := ParseConfig(cfg.Name())
		if err != nil {
			t.Fatalf("ParseConfig(%q): %v", cfg.Name(), err)
		}
		if got != cfg {
			t.Fatalf("ParseConfig(%q) = %+v, want %+v", cfg.Name(), got, cfg)
		}
	}
	for _, bad := range []string{"", "c1t2", "c1t2g3x", "c01t2g3", "t2g3c1", "c-1t2g3", "c1 t2 g3"} {
		if _, err := ParseConfig(bad); err == nil {
			t.Errorf("ParseConfig(%q) should fail", bad)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	// A GPU alone cannot run the serial phase: zero-core mixes are invalid.
	for _, cfg := range []Config{
		{},
		{GPUCUs: 8},
	} {
		if err := cfg.Validate(); err == nil {
			t.Errorf("Validate(%+v) should fail (no CPU core)", cfg)
		}
	}
	if err := (Config{CMOSCores: -1, TFETCores: 2}).Validate(); err == nil {
		t.Error("negative core count should fail")
	}
	if err := (Config{TFETCores: 1}).Validate(); err != nil {
		t.Errorf("TFET-only mix should validate: %v", err)
	}
}

func TestConfigFitsExactBudget(t *testing.T) {
	cfg := Config{CMOSCores: 2, TFETCores: 1}
	fp := cfg.Footprint()
	// uncore 2.0/0.5 + 2 CMOS 8.0/4.0 + 1 TFET 4.0/0.5
	if fp.AreaMM2 != 14 || fp.PeakW != 5 {
		t.Fatalf("Footprint = %+v, want {14 5}", fp)
	}
	// A budget exactly equal to the footprint fits...
	if !cfg.Fits(energy.Budget{AreaMM2: fp.AreaMM2, PowerW: fp.PeakW}) {
		t.Error("exactly-met budget should fit")
	}
	// ...and any shortfall on either axis rejects.
	if cfg.Fits(energy.Budget{AreaMM2: fp.AreaMM2 - 0.001, PowerW: fp.PeakW}) {
		t.Error("area shortfall should reject")
	}
	if cfg.Fits(energy.Budget{AreaMM2: fp.AreaMM2, PowerW: fp.PeakW - 0.001}) {
		t.Error("power shortfall should reject")
	}
}

func TestDefaultSpace(t *testing.T) {
	space := DefaultSpace()
	// 5 accelerator tiers x (4 CU tiers x 9 CMOS counts x 13 TFET
	// counts, minus the 4 coreless).
	perTier := 4*9*13 - 4
	if want := 5 * perTier; len(space) != want {
		t.Fatalf("DefaultSpace has %d mixes, want %d", len(space), want)
	}
	// The pre-accelerator space stays a stable prefix: engine keys and
	// search order for old mixes are unchanged.
	for i := 0; i < perTier; i++ {
		if space[i].AccelUnits != 0 {
			t.Fatalf("mix %d (%s) in the no-accelerator prefix has accelerator units",
				i, space[i].Name())
		}
	}
	seen := map[string]bool{}
	for _, cfg := range space {
		if err := cfg.Validate(); err != nil {
			t.Fatalf("space contains invalid mix %s: %v", cfg.Name(), err)
		}
		if seen[cfg.Name()] {
			t.Fatalf("space contains duplicate mix %s", cfg.Name())
		}
		seen[cfg.Name()] = true
	}
	// The ISSUE's search scale: at least 200 mixes fit the default budget.
	in, over := Partition(space, DefaultBudget())
	if len(in) < 200 {
		t.Errorf("only %d mixes fit %s, want >= 200", len(in), DefaultBudget().String())
	}
	if len(in)+len(over) != len(space) {
		t.Errorf("partition loses mixes: %d + %d != %d", len(in), len(over), len(space))
	}
	for _, cfg := range over {
		if cfg.Fits(DefaultBudget()) {
			t.Errorf("over-budget partition contains fitting mix %s", cfg.Name())
		}
	}
}

func TestWorkloadsSortedAndPaired(t *testing.T) {
	wls := Workloads()
	if len(wls) == 0 {
		t.Fatal("no SoC workloads")
	}
	for i, wl := range wls {
		if i > 0 && wls[i-1].Name >= wl.Name {
			t.Errorf("Workloads not sorted: %q before %q", wls[i-1].Name, wl.Name)
		}
		if wl.OffloadFrac < 0 || wl.OffloadFrac > 1 {
			t.Errorf("%s: OffloadFrac %v out of [0,1]", wl.Name, wl.OffloadFrac)
		}
		if wl.OffloadFrac > 0 && wl.Kernel == "" {
			t.Errorf("%s: offload fraction without a paired kernel", wl.Name)
		}
		// Every workload must resolve in the CPU trace table.
		if _, err := trace.CPUWorkload(wl.Name); err != nil {
			t.Errorf("%s: no CPU profile: %v", wl.Name, err)
		}
	}
	if _, err := WorkloadByName("no-such-workload"); err == nil {
		t.Error("WorkloadByName should fail on unknown names")
	}
}

// measure returns components for one workload, shared across subtests.
func measure(t *testing.T, name string, instr uint64, needGPU bool) (Workload, Components) {
	t.Helper()
	wl, err := WorkloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	comps, err := MeasureComponents(wl, 1, instr, needGPU)
	if err != nil {
		t.Fatal(err)
	}
	return wl, comps
}

// relDiff is the relative difference between two positive floats.
func relDiff(a, b float64) float64 {
	return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
}

// TestSingleCoreConsistency is the consistency golden: a c1t0g0 SoC must
// reproduce the 1-core BaseCMOS hetsim run it is composed from — the
// composition adds no modelling of its own when there is nothing to
// compose. The only permitted deviation is the run's chunk-boundary
// overshoot: the core commits a handful of instructions past its quota,
// while the composition charges exactly the quota, so time and energy
// agree to overshoot/quota (well under 0.5% at this budget).
func TestSingleCoreConsistency(t *testing.T) {
	const instr = 50_000
	wl, comps := measure(t, "fft", instr, false)

	cfg, err := hetsim.CPUConfigByName(CMOSCoreConfig)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := trace.CPUWorkload(wl.Name)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := hetsim.RunCPU(hetsim.SingleCore(cfg), prof, hetsim.RunOpts{
		TotalInstructions: instr, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}

	res, err := Evaluate(Config{CMOSCores: 1}, wl, instr, comps)
	if err != nil {
		t.Fatal(err)
	}
	if res.Instructions > ref.Instructions {
		t.Errorf("c1t0g0 charges %d instructions, more than the run committed (%d)",
			res.Instructions, ref.Instructions)
	}
	overshoot := float64(ref.Instructions-res.Instructions) / float64(res.Instructions)
	tol := overshoot + 1e-9
	if d := relDiff(res.TimeSec, ref.TimeSec); d > tol {
		t.Errorf("c1t0g0 time %.9e vs 1-core run %.9e (rel %.2e > tol %.2e)",
			res.TimeSec, ref.TimeSec, d, tol)
	}
	refEnergy := ref.Energy.Dynamic() + ref.Energy.Leakage()
	if d := relDiff(res.TotalEnergyJ(), refEnergy); d > tol {
		t.Errorf("c1t0g0 energy %.9e vs 1-core run %.9e (rel %.2e > tol %.2e)",
			res.TotalEnergyJ(), refEnergy, d, tol)
	}
	if overshoot > 0.005 {
		t.Errorf("chunk overshoot %.4f%% unexpectedly large", overshoot*100)
	}
}

func TestEvaluateProperties(t *testing.T) {
	const instr = 50_000
	wl, comps := measure(t, "fft", instr, true)

	t.Run("more cores are faster", func(t *testing.T) {
		r1, err := Evaluate(Config{CMOSCores: 1}, wl, instr, comps)
		if err != nil {
			t.Fatal(err)
		}
		r4, err := Evaluate(Config{CMOSCores: 4}, wl, instr, comps)
		if err != nil {
			t.Fatal(err)
		}
		if r4.TimeSec >= r1.TimeSec {
			t.Errorf("4 cores (%.3e s) not faster than 1 (%.3e s)", r4.TimeSec, r1.TimeSec)
		}
		if r4.SerialSec != r1.SerialSec {
			t.Errorf("serial phase must not scale with cores: %v vs %v", r4.SerialSec, r1.SerialSec)
		}
	})

	t.Run("GPU offload", func(t *testing.T) {
		cfg := Config{CMOSCores: 2, GPUCUs: 8}
		// Force the GPU placement: the offloadable fraction lands there.
		rg, err := EvaluateWith(cfg, wl, instr, comps, pickTarget("gpu"))
		if err != nil {
			t.Fatal(err)
		}
		if rg.Target != "gpu" || rg.OffloadFrac != wl.OffloadFrac {
			t.Errorf("forced GPU placement gave target %q offload %v, want gpu/%v",
				rg.Target, rg.OffloadFrac, wl.OffloadFrac)
		}
		if rg.GPUInstrs <= 0 || rg.GPUDynJ <= 0 {
			t.Errorf("offloaded work should reach the GPU: instrs %v dyn %v", rg.GPUInstrs, rg.GPUDynJ)
		}
		// The default dispatcher picks the ED²-minimal placement.
		rc, err := EvaluateWith(cfg, wl, instr, comps, pickTarget("cores"))
		if err != nil {
			t.Fatal(err)
		}
		r, err := Evaluate(cfg, wl, instr, comps)
		if err != nil {
			t.Fatal(err)
		}
		if best := math.Min(rc.ED2(), rg.ED2()); r.ED2() > best {
			t.Errorf("dispatch picked %q with ED² %v, a placement has %v", r.Target, r.ED2(), best)
		}
		if r.Target == "cores" && r.OffloadFrac != 0 {
			t.Errorf("cores placement with nonzero OffloadFrac %v", r.OffloadFrac)
		}
		rn, err := Evaluate(Config{CMOSCores: 2}, wl, instr, comps)
		if err != nil {
			t.Fatal(err)
		}
		if rn.GPUInstrs != 0 || rn.GPUDynJ != 0 || rn.OffloadFrac != 0 || rn.Target != "cores" {
			t.Errorf("no CUs must mean no offload: %+v", rn)
		}
	})

	t.Run("CUs without GPU component rejected", func(t *testing.T) {
		var noGPU Components
		noGPU.CMOS, noGPU.TFET = comps.CMOS, comps.TFET
		if _, err := Evaluate(Config{CMOSCores: 1, GPUCUs: 4}, wl, instr, noGPU); err == nil {
			t.Error("CUs without a measured GPU component should fail")
		}
	})

	t.Run("zero-core mix rejected", func(t *testing.T) {
		if _, err := Evaluate(Config{GPUCUs: 8}, wl, instr, comps); err == nil {
			t.Error("coreless mix should fail")
		}
	})

	t.Run("instruction split conserves work", func(t *testing.T) {
		r, err := Evaluate(Config{CMOSCores: 2, TFETCores: 3, GPUCUs: 4}, wl, instr, comps)
		if err != nil {
			t.Fatal(err)
		}
		sum := r.SerialInstrs + r.CoreInstrs + r.GPUInstrs + r.AccelInstrs
		if d := relDiff(sum, float64(r.Instructions)); d > 1e-12 {
			t.Errorf("split loses instructions: %v + %v + %v + %v != %d",
				r.SerialInstrs, r.CoreInstrs, r.GPUInstrs, r.AccelInstrs, r.Instructions)
		}
	})
}

func TestSummarizeAndPareto(t *testing.T) {
	mk := func(cfg, wl string, time, en float64) Result {
		return Result{Config: cfg, Workload: wl, TimeSec: time, CoreDynJ: en}
	}
	results := []Result{
		mk("c1t0g0", "a", 4, 2), mk("c1t0g0", "b", 4, 2), // total (8, 4)
		mk("c2t0g0", "a", 2, 3), mk("c2t0g0", "b", 2, 3), // total (4, 6) fast+hungry
		mk("c0t1g0", "a", 5, 1), mk("c0t1g0", "b", 5, 1), // total (10, 2) slow+frugal
		mk("c0t2g0", "a", 5, 3), mk("c0t2g0", "b", 5, 3), // total (10, 6) dominated
	}
	sums := Summarize(results)
	if len(sums) != 4 {
		t.Fatalf("Summarize returned %d groups, want 4", len(sums))
	}
	for i := 1; i < len(sums); i++ {
		if sums[i-1].Name >= sums[i].Name {
			t.Errorf("summaries not sorted: %q before %q", sums[i-1].Name, sums[i].Name)
		}
	}
	for _, s := range sums {
		if s.Workloads != 2 {
			t.Errorf("%s: %d workloads, want 2", s.Name, s.Workloads)
		}
	}
	front := ParetoFront(sums)
	var names []string
	for _, s := range front {
		names = append(names, s.Name)
	}
	if got := strings.Join(names, ","); got != "c2t0g0,c1t0g0,c0t1g0" {
		t.Errorf("Pareto front = %s, want c2t0g0,c1t0g0,c0t1g0", got)
	}
}

// TestRunnerMatchesEvaluate checks Run — the path remote daemons take
// for a soc key — returns the same result as the in-process Evaluate
// over pre-measured components.
func TestRunnerMatchesEvaluate(t *testing.T) {
	const instr = 50_000
	wl, comps := measure(t, "radix", instr, false)
	want, err := Evaluate(Config{CMOSCores: 1, TFETCores: 2}, wl, instr, comps)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{CMOSCores: 1, TFETCores: 2}, wl, hetsim.RunOpts{
		TotalInstructions: instr, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res != want {
		t.Errorf("runner result differs from Evaluate:\n got %+v\nwant %+v", res, want)
	}
}
