package harness

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hetcore/internal/traffic"
)

// trafficTestOptions keeps traffic runs cheap: a small component budget
// is enough for service stats, and the scenario grid is fixed anyway.
func trafficTestOptions(t *testing.T, jobs int) Options {
	t.Helper()
	opts, err := Options{Instructions: 40_000, Seed: 1, Jobs: jobs}.WithSharedEngine()
	if err != nil {
		t.Fatal(err)
	}
	return opts
}

func renderTraffic(t *testing.T, jobs int) string {
	t.Helper()
	tb, err := Traffic(trafficTestOptions(t, jobs))
	if err != nil {
		t.Fatalf("traffic (jobs=%d): %v", jobs, err)
	}
	var buf strings.Builder
	if err := tb.Format(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestTrafficDeterministicAcrossJobs extends the determinism contract to
// the traffic scenario matrix: -jobs=1 and -jobs=8 must render
// byte-identical tables.
func TestTrafficDeterministicAcrossJobs(t *testing.T) {
	serial := renderTraffic(t, 1)
	parallel := renderTraffic(t, 8)
	if serial != parallel {
		t.Fatalf("traffic tables differ between -jobs=1 and -jobs=8:\n--- jobs=1 ---\n%s\n--- jobs=8 ---\n%s",
			serial, parallel)
	}
	// Every default scenario row must be present.
	for _, mix := range traffic.DefaultMixes {
		for _, pol := range traffic.PolicyNames() {
			if want := mix + "+" + pol; !strings.Contains(serial, want) {
				t.Errorf("table missing scenario %s:\n%s", want, serial)
			}
		}
	}
}

// fixtureTrafficReport builds a small deterministic report by hand — the
// diff only reads the scored fields.
func fixtureTrafficReport() traffic.Report {
	return traffic.Report{
		Schema: traffic.SchemaVersion, Trace: "diurnal", SLOMS: 50, Seed: 1,
		Scenarios: []traffic.Result{
			{Scenario: "c4t4g0+cacheaware", Mix: "c4t4g0", Policy: "cacheaware",
				Trace: "diurnal", Seed: 1, Requests: 1000, Completed: 1000,
				EnergyPerReqJ: 5e-5, P50Sec: 0.004, P99Sec: 0.012,
				SLOSec: 0.05, DynJ: 0.03, LeakJ: 0.02, SimSec: 60},
			{Scenario: "c4t4g0+naive", Mix: "c4t4g0", Policy: "naive",
				Trace: "diurnal", Seed: 1, Requests: 1000, Completed: 1000,
				EnergyPerReqJ: 7e-5, P50Sec: 0.003, P99Sec: 0.010,
				SLOSec: 0.05, DynJ: 0.05, LeakJ: 0.02, SimSec: 60},
		},
	}
}

// TestDiffTraffic: the simulation is deterministic, so the self-diff is
// clean and any drift beyond RelTol regresses in the costly direction
// only; vanished scenarios regress, new ones pass.
func TestDiffTraffic(t *testing.T) {
	old := fixtureTrafficReport()
	if res := diffMetrics("traffic", trafficMetrics(old), trafficMetrics(old), DiffOptions{}); res.Regressed() {
		t.Fatalf("identical reports regressed: %+v", res.Regressions())
	}

	costly := fixtureTrafficReport()
	costly.Scenarios[0].EnergyPerReqJ *= 1.10
	res := diffMetrics("traffic", trafficMetrics(old), trafficMetrics(costly), DiffOptions{})
	if !res.Regressed() {
		t.Fatal("+10% energy per request not flagged")
	}
	if got := res.Regressions()[0].Metric; !strings.Contains(got, "energy_per_req_j") {
		t.Fatalf("regressed metric = %s, want energy_per_req_j", got)
	}
	// The same magnitude of improvement passes.
	if res := diffMetrics("traffic", trafficMetrics(costly), trafficMetrics(old), DiffOptions{}); res.Regressed() {
		t.Fatalf("energy improvement flagged: %+v", res.Regressions())
	}

	// SLO violations appearing against a clean baseline regress.
	violated := fixtureTrafficReport()
	violated.Scenarios[1].SLOViolations = 25
	if res := diffMetrics("traffic", trafficMetrics(old), trafficMetrics(violated), DiffOptions{}); !res.Regressed() {
		t.Fatal("new SLO violations not flagged")
	}

	// Request counts are deterministic: drift in either direction fails.
	drifted := fixtureTrafficReport()
	drifted.Scenarios[0].Requests += 7
	if res := diffMetrics("traffic", trafficMetrics(old), trafficMetrics(drifted), DiffOptions{}); !res.Regressed() {
		t.Fatal("request-count drift not flagged")
	}

	// A scenario that vanished regresses; a new one is just noted.
	shrunk := fixtureTrafficReport()
	shrunk.Scenarios = shrunk.Scenarios[:1]
	res = diffMetrics("traffic", trafficMetrics(old), trafficMetrics(shrunk), DiffOptions{})
	if !res.Regressed() {
		t.Fatal("missing scenario not flagged")
	}
	if got := res.Regressions()[0].Metric; !strings.Contains(got, "missing") {
		t.Fatalf("regressed metric = %s, want *.missing", got)
	}
	if res := diffMetrics("traffic", trafficMetrics(shrunk), trafficMetrics(old), DiffOptions{}); res.Regressed() {
		t.Fatalf("new scenario flagged: %+v", res.Regressions())
	}
}

// TestDiffFilesTrafficSniffing: `hetcore diff` must recognise a traffic
// report by its schema stamp, and a mismatched-kind diff must name both
// sniffed kinds so the operator sees what each file actually is.
func TestDiffFilesTrafficSniffing(t *testing.T) {
	dir := t.TempDir()
	rep := fixtureTrafficReport()
	repPath := filepath.Join(dir, "traffic.json")
	if err := rep.WriteJSON(repPath); err != nil {
		t.Fatal(err)
	}
	bench := BenchRecord{Schema: "hetcore.bench/v1", CPUInstsPerSec: 1e6,
		GPUWaveInstsPerSec: 2e6, CPUInstructions: 2000000, GPUWaveInsts: 500000}
	benchPath := filepath.Join(dir, "bench.json")
	bf, err := os.Create(benchPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := bench.WriteJSON(bf); err != nil {
		t.Fatal(err)
	}
	if err := bf.Close(); err != nil {
		t.Fatal(err)
	}

	res, err := DiffFiles(repPath, repPath, DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != "traffic" || res.Regressed() {
		t.Fatalf("traffic self-diff: kind=%s regressed=%v", res.Kind, res.Regressed())
	}

	_, err = DiffFiles(repPath, benchPath, DiffOptions{})
	if err == nil {
		t.Fatal("traffic-vs-bench diff accepted")
	}
	for _, want := range []string{"traffic report (hetcore.traffic/v1)", "bench record"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("mismatch error %q does not name %q", err, want)
		}
	}
}

// withTrace returns the fixture report with every scenario on trace.
func withTrace(trace string) traffic.Report {
	r := fixtureTrafficReport()
	r.Trace = trace
	for i := range r.Scenarios {
		r.Scenarios[i].Trace = trace
	}
	return r
}

// TestDiffTrafficAcrossTraces: scenarios pair by name and trace, so a
// diurnal report diffed against a bursty one compares no numbers: every
// diurnal scenario is missing and every bursty one is new.
func TestDiffTrafficAcrossTraces(t *testing.T) {
	res := diffMetrics("traffic", trafficMetrics(withTrace("diurnal")),
		trafficMetrics(withTrace("bursty")), DiffOptions{})
	var got []string
	for _, row := range res.Rows {
		got = append(got, row.Metric+" "+row.Status)
	}
	want := []string{
		"c4t4g0+cacheaware/diurnal.missing REGRESSED",
		"c4t4g0+naive/diurnal.missing REGRESSED",
		"c4t4g0+cacheaware/bursty.new ok",
		"c4t4g0+naive/bursty.new ok",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("rows:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
