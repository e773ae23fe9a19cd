package harness

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"

	"hetcore/internal/dist"
	"hetcore/internal/obs"
	"hetcore/internal/traffic"
)

// fixtureReport builds a deterministic report with two runs.
func fixtureReport() obs.Report {
	return obs.Report{
		Manifest: obs.Manifest{
			Schema:      obs.SchemaVersion,
			Runs:        2,
			SimRateKIPS: 5000,
		},
		Runs: []obs.RunRecord{
			{
				Experiment: "fig7", Kind: "cpu", Config: "AdvHet", Workload: "barnes",
				Instructions: 400000, Cycles: 320000, TimeSec: 1.6e-4, IPC: 1.25,
				EnergyJ: map[string]float64{"core": 2.0e-4, "cache": 0.5e-4},
			},
			{
				Experiment: "fig10", Kind: "gpu", Config: "AdvHet-GPU", Workload: "MatMul",
				Instructions: 800000, Cycles: 500000, TimeSec: 5.0e-4, IPC: 1.6,
				EnergyJ: map[string]float64{"simd": 3.0e-4},
			},
		},
	}
}

func TestDiffReportsIdentical(t *testing.T) {
	r := fixtureReport()
	res := diffMetrics("report", reportMetrics(r), reportMetrics(r), DiffOptions{})
	if res.Regressed() {
		t.Fatalf("identical reports regressed: %+v", res.Regressions())
	}
	for _, row := range res.Rows {
		if row.Status != "ok" {
			t.Fatalf("row %s status = %s, want ok", row.Metric, row.Status)
		}
	}
}

func TestDiffReportsRegression(t *testing.T) {
	old := fixtureReport()
	bad := fixtureReport()
	bad.Runs[0].IPC = 1.0                // -20% IPC: regression
	bad.Runs[1].EnergyJ["simd"] = 4.0e-4 // +33% energy: regression
	bad.Manifest.SimRateKIPS = 4500      // -10%: within RateTol, ok
	res := diffMetrics("report", reportMetrics(old), reportMetrics(bad), DiffOptions{RelTol: 0.001, RateTol: 0.25})
	if !res.Regressed() {
		t.Fatal("regressed report passed")
	}
	status := map[string]string{}
	for _, row := range res.Rows {
		status[row.Metric] = row.Status
	}
	if status["fig7/cpu/AdvHet/barnes.ipc"] != "REGRESSED" {
		t.Fatalf("ipc drop not flagged: %v", status)
	}
	if status["fig10/gpu/AdvHet-GPU/MatMul.energy_j"] != "REGRESSED" {
		t.Fatalf("energy rise not flagged: %v", status)
	}
	if status["manifest.sim_rate_kips"] != "ok" {
		t.Fatalf("10%% rate dip should be within tolerance: %v", status)
	}
}

func TestDiffReportsImprovementPasses(t *testing.T) {
	old := fixtureReport()
	better := fixtureReport()
	better.Runs[0].IPC = 2.0        // higher is better
	better.Runs[0].TimeSec = 1.0e-4 // lower is better
	res := diffMetrics("report", reportMetrics(old), reportMetrics(better), DiffOptions{})
	if res.Regressed() {
		t.Fatalf("improvement flagged as regression: %+v", res.Regressions())
	}
}

func TestDiffReportsDeterminismDrift(t *testing.T) {
	old := fixtureReport()
	drift := fixtureReport()
	drift.Runs[0].Instructions = 400100 // instruction count is exact-match
	res := diffMetrics("report", reportMetrics(old), reportMetrics(drift), DiffOptions{RelTol: 1e-5})
	if !res.Regressed() {
		t.Fatal("instruction-count drift not flagged")
	}
}

func TestDiffReportsMissingRun(t *testing.T) {
	old := fixtureReport()
	short := fixtureReport()
	short.Runs = short.Runs[:1]
	short.Manifest.Runs = 1
	res := diffMetrics("report", reportMetrics(old), reportMetrics(short), DiffOptions{})
	if !res.Regressed() {
		t.Fatal("missing run not flagged")
	}
	// The reverse — a new run appearing — must pass.
	res = diffMetrics("report", reportMetrics(short), reportMetrics(old), DiffOptions{})
	if res.Regressed() {
		t.Fatalf("added run flagged as regression: %+v", res.Regressions())
	}
}

func TestDiffBench(t *testing.T) {
	old := BenchRecord{CPUInstsPerSec: 1e6, GPUWaveInstsPerSec: 2e6,
		CPUInstructions: 2000000, GPUWaveInsts: 500000}
	same := old
	if res := diffMetrics("bench", benchMetrics(old), benchMetrics(same), DiffOptions{RelTol: 0.001, RateTol: 0.25}); res.Regressed() {
		t.Fatalf("identical bench records regressed: %+v", res.Regressions())
	}
	slow := old
	slow.CPUInstsPerSec = 5e5 // -50%: beyond the default 25% RateTol
	if res := diffMetrics("bench", benchMetrics(old), benchMetrics(slow), DiffOptions{RelTol: 0.001, RateTol: 0.25}); !res.Regressed() {
		t.Fatal("halved sim rate not flagged")
	}
	jitter := old
	jitter.CPUInstsPerSec = 0.9e6 // -10%: host noise, within tolerance
	if res := diffMetrics("bench", benchMetrics(old), benchMetrics(jitter), DiffOptions{RelTol: 0.001, RateTol: 0.25}); res.Regressed() {
		t.Fatalf("10%% rate jitter flagged: %+v", res.Regressions())
	}
}

func fixtureLoadRecord() dist.LoadRecord {
	return dist.LoadRecord{
		Schema: dist.LoadSchemaVersion, Mode: "closed", Concurrency: 4,
		DurationSeconds: 2, ColdFraction: 0.1,
		Requests: 1000, RequestsPerSec: 500,
		LatencyMeanMS: 2, LatencyP50MS: 1.5, LatencyP95MS: 5, LatencyP99MS: 10,
	}
}

func TestDiffLoad(t *testing.T) {
	old := fixtureLoadRecord()
	if res := diffMetrics("load", loadMetrics(old), loadMetrics(old), DiffOptions{RelTol: 0.001, RateTol: 0.25}); res.Regressed() {
		t.Fatalf("identical load records regressed: %+v", res.Regressions())
	}
	// p99 blow-up beyond RateTol regresses; the direction is respected —
	// the same magnitude of improvement passes.
	slow := old
	slow.LatencyP99MS = 100
	res := diffMetrics("load", loadMetrics(old), loadMetrics(slow), DiffOptions{RelTol: 0.001, RateTol: 0.25})
	if !res.Regressed() {
		t.Fatal("10x p99 not flagged")
	}
	if got := res.Regressions()[0].Metric; got != "latency_p99_ms" {
		t.Fatalf("regressed metric = %s, want latency_p99_ms", got)
	}
	if res := diffMetrics("load", loadMetrics(slow), loadMetrics(old), DiffOptions{RelTol: 0.001, RateTol: 0.25}); res.Regressed() {
		t.Fatalf("p99 improvement flagged: %+v", res.Regressions())
	}
	// Throughput collapse regresses, jitter does not.
	stall := old
	stall.RequestsPerSec = 100
	if res := diffMetrics("load", loadMetrics(old), loadMetrics(stall), DiffOptions{RelTol: 0.001, RateTol: 0.25}); !res.Regressed() {
		t.Fatal("-80% throughput not flagged")
	}
	jitter := old
	jitter.RequestsPerSec = 450
	jitter.LatencyP99MS = 11
	if res := diffMetrics("load", loadMetrics(old), loadMetrics(jitter), DiffOptions{RelTol: 0.001, RateTol: 0.25}); res.Regressed() {
		t.Fatalf("host jitter flagged: %+v", res.Regressions())
	}
	// Any error against a zero-error baseline regresses, regardless of
	// how loose the rate tolerance is.
	errs := old
	errs.Errors, errs.ErrorRate = 3, 0.003
	if res := diffMetrics("load", loadMetrics(old), loadMetrics(errs), DiffOptions{RelTol: 0.001, RateTol: 10}); !res.Regressed() {
		t.Fatal("new errors against a clean baseline not flagged")
	}
}

func TestDiffFilesSniffing(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, gen func(w io.Writer) error) string {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := gen(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}
	rep := fixtureReport()
	repPath := write("report.json", rep.WriteJSON)
	bench := BenchRecord{Schema: "hetcore.bench/v1", CPUInstsPerSec: 1e6,
		GPUWaveInstsPerSec: 2e6, CPUInstructions: 2000000, GPUWaveInsts: 500000}
	benchPath := write("bench.json", bench.WriteJSON)
	loadPath := write("load.json", fixtureLoadRecord().WriteJSON)

	res, err := DiffFiles(repPath, repPath, DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != "report" || res.Regressed() {
		t.Fatalf("report self-diff: kind=%s regressed=%v", res.Kind, res.Regressed())
	}
	res, err = DiffFiles(benchPath, benchPath, DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != "bench" || res.Regressed() {
		t.Fatalf("bench self-diff: kind=%s regressed=%v", res.Kind, res.Regressed())
	}
	res, err = DiffFiles(loadPath, loadPath, DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != "load" || res.Regressed() {
		t.Fatalf("load self-diff: kind=%s regressed=%v", res.Kind, res.Regressed())
	}
	if _, err := DiffFiles(repPath, benchPath, DiffOptions{}); err == nil {
		t.Fatal("mixed-kind diff accepted")
	}
	if _, err := DiffFiles(benchPath, loadPath, DiffOptions{}); err == nil {
		t.Fatal("bench-vs-load diff accepted")
	}
	if _, err := DiffFiles(filepath.Join(dir, "absent.json"), repPath, DiffOptions{}); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestGoldenDiffTable(t *testing.T) {
	old := fixtureReport()
	bad := fixtureReport()
	bad.Runs[0].IPC = 1.0
	bad.Runs[1].EnergyJ["simd"] = 4.0e-4
	bad.Manifest.SimRateKIPS = 6000 // +20% improvement, within tolerance
	res := diffMetrics("report", reportMetrics(old), reportMetrics(bad), DiffOptions{RelTol: 0.001, RateTol: 0.25})
	var buf bytes.Buffer
	if err := res.Format(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "diff_report.golden", buf.Bytes())
}

// TestDiffReportEnergyDeterministic: a run's energy is summed in a fixed
// component order, so a report diffed against itself gives the same
// bytes every time and no delta at all, even where float addition in
// another order would round differently.
func TestDiffReportEnergyDeterministic(t *testing.T) {
	r := fixtureReport()
	r.Runs[0].EnergyJ = map[string]float64{
		"core": 1.0 / 3, "l1": 1.0 / 7, "l2": 1.0 / 11, "l3": 1.0 / 13,
		"dram": 1e-3 / 17, "noc": 1e-5 / 19, "leak": 2.0 / 23,
	}
	var first []byte
	for i := 0; i < 50; i++ {
		res := diffMetrics("report", reportMetrics(r), reportMetrics(r), DiffOptions{})
		for _, row := range res.Rows {
			if row.DeltaPct != 0 {
				t.Fatalf("self-diff row %s has delta %v", row.Metric, row.DeltaPct)
			}
		}
		var buf bytes.Buffer
		if err := res.Format(&buf); err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = buf.Bytes()
		} else if !bytes.Equal(first, buf.Bytes()) {
			t.Fatalf("self-diff table changed between calls:\n%s\n---\n%s", first, buf.Bytes())
		}
	}
}

// TestDiffZeroTolIsExact: a zero tolerance gates exactly, so a single
// instruction of drift regresses.
func TestDiffZeroTolIsExact(t *testing.T) {
	old := fixtureReport()
	drift := fixtureReport()
	drift.Runs[0].Instructions++
	res := diffMetrics("report", reportMetrics(old), reportMetrics(drift), DiffOptions{RelTol: 0, RateTol: 0.25})
	regs := res.Regressions()
	if len(regs) != 1 || regs[0].Metric != "fig7/cpu/AdvHet/barnes.instructions" {
		t.Fatalf("regressions = %+v, want only the instruction count", regs)
	}
}

// TestCommittedBaselines: every committed baseline that scripts/ci.sh
// diffs against loads as the payload kind its gate expects, and the
// traffic baseline, a deterministic simulation, matches a fresh report
// at CI's settings exactly.
func TestCommittedBaselines(t *testing.T) {
	dir := filepath.Join("..", "..", "scripts", "baseline")
	want := map[string]string{
		"BENCH_sim_rate.json": "bench",
		"BENCH_load.json":     "load",
		"BENCH_traffic.json":  "traffic",
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, e := range entries {
		kind, ok := want[e.Name()]
		if !ok {
			t.Errorf("%s: no CI gate diffs against this baseline", e.Name())
			continue
		}
		seen[e.Name()] = true
		p, err := loadPayload(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Errorf("%s: %v", e.Name(), err)
		} else if p.kind != kind {
			t.Errorf("%s loads as a %s, want a %s", e.Name(), p.kind, kind)
		}
	}
	for name := range want {
		if !seen[name] {
			t.Errorf("baseline %s is missing", name)
		}
	}

	// hetcore traffic -instr 40000: the diurnal trace, default mixes and
	// policies.
	tr, fileTrace, err := traffic.ResolveTrace("diurnal")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := TrafficReport(trafficTestOptions(t, 0), tr, fileTrace,
		traffic.DefaultMixes, traffic.PolicyNames(), TrafficKnobs{})
	if err != nil {
		t.Fatal(err)
	}
	fresh := filepath.Join(t.TempDir(), "traffic.json")
	if err := rep.WriteJSON(fresh); err != nil {
		t.Fatal(err)
	}
	res, err := DiffFiles(filepath.Join(dir, "BENCH_traffic.json"), fresh, DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("traffic baseline compared no metric")
	}
	for _, row := range res.Rows {
		if row.Status != "ok" {
			t.Errorf("traffic baseline %s: %v -> %v (%s)", row.Metric, row.Old, row.New, row.Status)
		}
	}
}
