package harness

import (
	"strings"
	"testing"

	"hetcore/internal/hetsim"
	"hetcore/internal/obs"
	"hetcore/internal/trace"
)

// engineTestWorkloads is a small subset so the 6-config matrix stays
// cheap; two profiles with different op mixes keep the tables
// non-trivial.
var engineTestWorkloads = []string{"barnes", "radix"}

// renderFigs runs fig7+fig8+fig9 on one shared engine with the given
// worker count and returns the concatenated formatted tables.
func renderFigs(t *testing.T, jobs int) string {
	t.Helper()
	opts, err := Options{
		Instructions: 40_000, Seed: 1,
		Workloads: engineTestWorkloads, Jobs: jobs,
	}.WithSharedEngine()
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	for _, exp := range []struct {
		name string
		run  func(Options) (Table, error)
	}{{"fig7", Fig7}, {"fig8", Fig8}, {"fig9", Fig9}} {
		tb, err := exp.run(opts)
		if err != nil {
			t.Fatalf("%s (jobs=%d): %v", exp.name, jobs, err)
		}
		if err := tb.Format(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.String()
}

// TestFigTablesDeterministicAcrossJobs is the tentpole determinism
// contract: -jobs=1 and -jobs=8 must produce byte-identical tables for
// the same seed.
func TestFigTablesDeterministicAcrossJobs(t *testing.T) {
	serial := renderFigs(t, 1)
	parallel := renderFigs(t, 8)
	if serial != parallel {
		t.Fatalf("fig7+fig8+fig9 differ between -jobs=1 and -jobs=8:\n--- jobs=1 ---\n%s\n--- jobs=8 ---\n%s",
			serial, parallel)
	}
	if !strings.Contains(serial, "AdvHet") {
		t.Fatalf("rendered tables look empty:\n%s", serial)
	}
}

// timingClasses counts the configurations of names that simulate: each
// one that has no earlier entry with the same timing. The others are
// priced from that entry's run.
func timingClasses(t *testing.T, names []string) uint64 {
	t.Helper()
	var reps []hetsim.CPUConfig
outer:
	for _, n := range names {
		cfg, err := hetsim.CPUConfigByName(n)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range reps {
			if hetsim.SameTiming(r, cfg) {
				continue outer
			}
		}
		reps = append(reps, cfg)
	}
	return uint64(len(reps))
}

// fig7Jobs splits the engine jobs behind fig7/8/9 over the engine test
// workloads: one simulation per timing class and workload, and one job
// per priced stock cell (BaseTFET, priced from BaseCMOS's run) that
// stores the priced result under its stock key.
func fig7Jobs(t *testing.T) (simulated, stored uint64) {
	t.Helper()
	classes := timingClasses(t, fig7Configs)
	if classes != uint64(len(fig7Configs))-1 {
		t.Fatalf("fig7 has %d timing classes, want %d (BaseTFET shares BaseCMOS's)",
			classes, len(fig7Configs)-1)
	}
	w := uint64(len(engineTestWorkloads))
	return classes * w, (uint64(len(fig7Configs)) - classes) * w
}

// checkPricedCells asserts that the priced BaseTFET cells of the fig7
// suite served by opts equal a direct RunCPU of BaseTFET.
func checkPricedCells(t *testing.T, opts Options) {
	t.Helper()
	results, workloads, err := cpuSuite(fig7Configs, opts)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := hetsim.CPUConfigByName("BaseTFET")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		prof, err := trace.CPUWorkload(w)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := hetsim.RunCPU(cfg, prof, opts.runOpts())
		if err != nil {
			t.Fatal(err)
		}
		got, ok := results["BaseTFET"][w]
		if !ok {
			t.Fatalf("BaseTFET/%s missing from the suite", w)
		}
		if got != direct {
			t.Errorf("BaseTFET/%s priced cell differs from a direct run:\n got  %+v\n want %+v", w, got, direct)
		}
	}
}

// TestEngineCacheSharedAcrossFigures asserts the memoization contract:
// fig7, fig8 and fig9 share one underlying suite, so running all three
// on a shared engine simulates each timing class × workload exactly
// once and serves the other two figures from cache.
func TestEngineCacheSharedAcrossFigures(t *testing.T) {
	o := &obs.Observer{Metrics: obs.NewRegistry()}
	opts, err := Options{
		Instructions: 40_000, Seed: 1,
		Workloads: engineTestWorkloads, Jobs: 4, Obs: o,
	}.WithSharedEngine()
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range []func(Options) (Table, error){Fig7, Fig8, Fig9} {
		if _, err := run(opts); err != nil {
			t.Fatal(err)
		}
	}
	simulated, stored := fig7Jobs(t)
	matrix := simulated + stored
	if got := opts.Engine.JobsRun(); got != matrix {
		t.Errorf("JobsRun = %d, want %d (each matrix cell must run exactly once)", got, matrix)
	}
	if got := opts.Engine.CacheHits(); got != 2*matrix {
		t.Errorf("CacheHits = %d, want %d (fig8 and fig9 served from cache)", got, 2*matrix)
	}
	snap := o.Reg().Snapshot()
	if got := snap.Counters["engine.jobs_total"]; got != matrix {
		t.Errorf("engine.jobs_total = %d, want %d", got, matrix)
	}
	if got := snap.Counters["engine.cache_hits"]; got != 2*matrix {
		t.Errorf("engine.cache_hits = %d, want %d", got, 2*matrix)
	}
	if got := snap.Counters["sim.cpu.runs_total"]; got != simulated {
		t.Errorf("sim.cpu.runs_total = %d, want %d (one simulation per timing class and workload)", got, simulated)
	}
	priced := 3 * uint64(len(engineTestWorkloads))
	if got := snap.Counters["cpu.priced_views"]; got != priced {
		t.Errorf("cpu.priced_views = %d, want %d (BaseTFET per workload and figure)", got, priced)
	}
	checkPricedCells(t, opts)
}

// TestPrivateEngineWithoutShared asserts the nil-Engine fallback: each
// experiment call gets a private engine and still works, so callers that
// never opt into sharing behave exactly as before.
func TestPrivateEngineWithoutShared(t *testing.T) {
	opts := Options{Instructions: 40_000, Seed: 1, Workloads: engineTestWorkloads, Jobs: 2}
	tb, err := Fig7(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) == 0 {
		t.Fatal("fig7 with a private engine returned no rows")
	}
}
