package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"hetcore/internal/dist"
	"hetcore/internal/obs"
	"hetcore/internal/traffic"
)

// This file is the cross-run regression gate: `hetcore diff` loads two
// run-record manifests (the -metrics-out reports, schema hetcore.obs/v1),
// two BENCH_sim_rate.json files, two BENCH_load.json load-test records
// or two traffic reports, flattens each to a vector of named metrics,
// computes per-metric deltas against configurable thresholds, renders a
// readable table and reports whether anything regressed. scripts/ci.sh
// runs it against the committed baselines so sim-rate, paper-metric or
// serving-latency drift fails CI.

// DiffOptions sets the regression thresholds. Deterministic simulation
// metrics (IPC, time, energy, instruction counts — fixed for a given
// config/workload/seed) use RelTol; host-timing metrics (simulation
// rates, wall seconds) vary run to run and machine to machine and use
// the much looser RateTol. A zero tolerance is exact: any move in the
// regressing direction fails.
type DiffOptions struct {
	// RelTol is the relative tolerance for deterministic metrics
	// (fraction; 0.001 = 0.1%). Any drift beyond it, in either
	// direction for direction-less metrics, is flagged.
	RelTol float64
	// RateTol is the relative tolerance for host-timing metrics
	// (fraction; 0.25 = a 25% slowdown fails).
	RateTol float64
}

// diffDirection says which way a metric may move without regressing.
type diffDirection int

const (
	higherBetter diffDirection = iota
	lowerBetter
	exactMatch // deterministic: any drift beyond tolerance regresses
)

// metricClass says which tolerance gates a metric.
type metricClass int

const (
	deterministic metricClass = iota // gated at RelTol
	hostTiming                       // gated at RateTol
)

// metric is one named value of a payload. Every payload `hetcore diff`
// reads flattens to a vector of these, so one function diffs any two.
type metric struct {
	subject string // run or scenario key; "" for a payload-wide metric
	name    string
	value   float64
	dir     diffDirection
	class   metricClass
}

// metricKey identifies a metric across vectors.
type metricKey struct{ subject, name string }

func (m metric) key() metricKey { return metricKey{m.subject, m.name} }

// DiffRow is one compared metric.
type DiffRow struct {
	Metric string  `json:"metric"`
	Old    float64 `json:"old"`
	New    float64 `json:"new"`
	// DeltaPct is 100*(new-old)/old (0 when old == 0).
	DeltaPct float64 `json:"delta_pct"`
	// Status is "ok", "improved", or "REGRESSED".
	Status string `json:"status"`
}

// DiffResult is the full comparison.
type DiffResult struct {
	Kind string    `json:"kind"` // "report", "bench", "load" or "traffic"
	Rows []DiffRow `json:"rows"`
}

// Regressed reports whether any metric regressed.
func (r DiffResult) Regressed() bool {
	for _, row := range r.Rows {
		if row.Status == "REGRESSED" {
			return true
		}
	}
	return false
}

// Regressions returns the regressed rows.
func (r DiffResult) Regressions() []DiffRow {
	var out []DiffRow
	for _, row := range r.Rows {
		if row.Status == "REGRESSED" {
			out = append(out, row)
		}
	}
	return out
}

// Format renders the comparison as an aligned table.
func (r DiffResult) Format(w io.Writer) error {
	width := len("metric")
	for _, row := range r.Rows {
		if len(row.Metric) > width {
			width = len(row.Metric)
		}
	}
	if _, err := fmt.Fprintf(w, "%-*s %14s %14s %9s  %s\n",
		width, "metric", "old", "new", "delta", "status"); err != nil {
		return err
	}
	for _, row := range r.Rows {
		if _, err := fmt.Fprintf(w, "%-*s %14s %14s %8.2f%%  %s\n",
			width, row.Metric, FormatMetric(row.Old), FormatMetric(row.New),
			row.DeltaPct, row.Status); err != nil {
			return err
		}
	}
	reg := len(r.Regressions())
	verdict := "OK"
	if reg > 0 {
		verdict = fmt.Sprintf("REGRESSED (%d metric(s))", reg)
	}
	_, err := fmt.Fprintf(w, "-- %d metric(s) compared: %s\n", len(r.Rows), verdict)
	return err
}

// FormatMetric formats a metric value compactly for the diff table.
func FormatMetric(v float64) string {
	av := math.Abs(v)
	switch {
	case v == math.Trunc(v) && av < 1e9:
		return fmt.Sprintf("%.0f", v)
	case av >= 1e6 || (av < 1e-3 && av > 0):
		return fmt.Sprintf("%.4g", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}

// classify scores one metric movement.
func classify(old, new float64, dir diffDirection, tol float64) (deltaPct float64, status string) {
	if old != 0 {
		deltaPct = 100 * (new - old) / old
	}
	var rel float64
	switch {
	case old == 0 && new == 0:
		return 0, "ok"
	case old == 0:
		rel = math.Inf(1)
		if new < 0 {
			rel = math.Inf(-1)
		}
	default:
		rel = (new - old) / math.Abs(old)
	}
	switch dir {
	case higherBetter:
		if rel < -tol {
			return deltaPct, "REGRESSED"
		}
		if rel > tol {
			return deltaPct, "improved"
		}
	case lowerBetter:
		if rel > tol {
			return deltaPct, "REGRESSED"
		}
		if rel < -tol {
			return deltaPct, "improved"
		}
	case exactMatch:
		if math.Abs(rel) > tol {
			return deltaPct, "REGRESSED"
		}
	}
	return deltaPct, "ok"
}

// diffMetrics compares two metric vectors of one payload kind, in the
// old vector's order. A subject missing from the new vector gives one
// REGRESSED .missing row, a subject only in the new vector one ok .new
// row; a payload-wide metric missing from either side is skipped.
func diffMetrics(kind string, old, new []metric, opts DiffOptions) DiffResult {
	newVals := make(map[metricKey]float64, len(new))
	newSubjects := map[string]bool{}
	for _, m := range new {
		newVals[m.key()] = m.value
		newSubjects[m.subject] = true
	}
	res := DiffResult{Kind: kind}
	seen := map[string]bool{} // subjects already handled
	for _, m := range old {
		first := !seen[m.subject]
		seen[m.subject] = true
		if m.subject != "" && !newSubjects[m.subject] {
			if first {
				res.Rows = append(res.Rows, DiffRow{Metric: m.subject + ".missing",
					Old: 1, New: 0, DeltaPct: -100, Status: "REGRESSED"})
			}
			continue
		}
		n, ok := newVals[m.key()]
		if !ok {
			continue
		}
		tol := opts.RelTol
		if m.class == hostTiming {
			tol = opts.RateTol
		}
		label := m.name
		if m.subject != "" {
			label = m.subject + "." + m.name
		}
		d, st := classify(m.value, n, m.dir, tol)
		res.Rows = append(res.Rows, DiffRow{Metric: label, Old: m.value, New: n, DeltaPct: d, Status: st})
	}
	for _, m := range new {
		if m.subject != "" && !seen[m.subject] {
			seen[m.subject] = true
			res.Rows = append(res.Rows, DiffRow{Metric: m.subject + ".new", Old: 0, New: 1, Status: "ok"})
		}
	}
	return res
}

// payload is one sniffed diff input flattened to its metric vector.
type payload struct {
	kind    string // DiffResult.Kind: "report", "bench", "load" or "traffic"
	desc    string // the kind with its schema, for a mixed-kind error
	metrics []metric
}

// loadPayload reads path and decides whether it is a -metrics-out
// report, a BENCH_sim_rate.json record, a BENCH_load.json record or a
// traffic report.
func loadPayload(path string) (payload, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return payload{}, err
	}
	var probe map[string]json.RawMessage
	if err := json.Unmarshal(raw, &probe); err != nil {
		return payload{}, fmt.Errorf("%s: not a JSON object: %w", path, err)
	}
	var schema string
	if probe["schema"] != nil {
		_ = json.Unmarshal(probe["schema"], &schema)
	}
	switch {
	case schema == traffic.SchemaVersion:
		var r traffic.Report
		if err := json.Unmarshal(raw, &r); err != nil {
			return payload{}, fmt.Errorf("%s: decoding traffic report: %w", path, err)
		}
		if err := r.Validate(); err != nil {
			return payload{}, fmt.Errorf("%s: %w", path, err)
		}
		return payload{"traffic", "traffic report (" + traffic.SchemaVersion + ")", trafficMetrics(r)}, nil
	case probe["manifest"] != nil:
		var r obs.Report
		if err := json.Unmarshal(raw, &r); err != nil {
			return payload{}, fmt.Errorf("%s: decoding report: %w", path, err)
		}
		if r.Manifest.Schema != obs.SchemaVersion {
			return payload{}, fmt.Errorf("%s: schema %q, want %q",
				path, r.Manifest.Schema, obs.SchemaVersion)
		}
		return payload{"report", "metrics report (" + obs.SchemaVersion + ")", reportMetrics(r)}, nil
	case probe["cpu_insts_per_sec"] != nil:
		var b BenchRecord
		if err := json.Unmarshal(raw, &b); err != nil {
			return payload{}, fmt.Errorf("%s: decoding bench record: %w", path, err)
		}
		return payload{"bench", "bench record", benchMetrics(b)}, nil
	case probe["requests_per_sec"] != nil:
		var l dist.LoadRecord
		if err := json.Unmarshal(raw, &l); err != nil {
			return payload{}, fmt.Errorf("%s: decoding load record: %w", path, err)
		}
		if l.Schema != dist.LoadSchemaVersion {
			return payload{}, fmt.Errorf("%s: schema %q, want %q",
				path, l.Schema, dist.LoadSchemaVersion)
		}
		return payload{"load", "load record (" + dist.LoadSchemaVersion + ")", loadMetrics(l)}, nil
	default:
		return payload{}, fmt.Errorf("%s: not a metrics report (manifest), bench record (cpu_insts_per_sec), load record (requests_per_sec) or traffic report (schema %s)", path, traffic.SchemaVersion)
	}
}

// DiffFiles loads and compares two payload files of the same kind.
func DiffFiles(oldPath, newPath string, opts DiffOptions) (DiffResult, error) {
	a, err := loadPayload(oldPath)
	if err != nil {
		return DiffResult{}, err
	}
	b, err := loadPayload(newPath)
	if err != nil {
		return DiffResult{}, err
	}
	if a.kind != b.kind {
		return DiffResult{}, fmt.Errorf("cannot diff payloads of different kinds: %s is a %s, %s is a %s",
			oldPath, a.desc, newPath, b.desc)
	}
	return diffMetrics(a.kind, a.metrics, b.metrics, opts), nil
}

// trafficMetrics lists a traffic report per scenario and trace. The
// simulation is deterministic, so everything is gated at RelTol: energy
// per request, latency quantiles and SLO accounting may only fall; the
// offered request count must match exactly.
func trafficMetrics(r traffic.Report) []metric {
	var ms []metric
	for _, s := range r.Scenarios {
		k := s.Scenario + "/" + s.Trace
		ms = append(ms,
			metric{k, "requests", float64(s.Requests), exactMatch, deterministic},
			metric{k, "energy_per_req_j", s.EnergyPerReqJ, lowerBetter, deterministic},
			metric{k, "p50_sec", s.P50Sec, lowerBetter, deterministic},
			metric{k, "p99_sec", s.P99Sec, lowerBetter, deterministic},
			metric{k, "slo_violations", float64(s.SLOViolations), lowerBetter, deterministic},
			metric{k, "deadline_misses", float64(s.DeadlineMisses), lowerBetter, deterministic})
	}
	return ms
}

// benchMetrics lists a simulation-rate benchmark record. Rates are host
// timing and may only fall by RateTol; instruction and run counts are
// exact.
func benchMetrics(b BenchRecord) []metric {
	return []metric{
		{"", "cpu_insts_per_sec", b.CPUInstsPerSec, higherBetter, hostTiming},
		{"", "gpu_wave_insts_per_sec", b.GPUWaveInstsPerSec, higherBetter, hostTiming},
		{"", "cpu_instructions", float64(b.CPUInstructions), exactMatch, deterministic},
		{"", "gpu_wave_insts", float64(b.GPUWaveInsts), exactMatch, deterministic},
		{"", "suite_runs", float64(b.SuiteRuns), exactMatch, deterministic},
		{"", "suite_runs_per_sec", b.SuiteRunsPerSec, higherBetter, hostTiming},
	}
}

// loadMetrics lists a load-test record: throughput may only fall,
// latency quantiles only rise, by RateTol. The error rate is a
// correctness signal gated at RelTol, so a zero-error baseline regresses
// on the first error.
func loadMetrics(l dist.LoadRecord) []metric {
	return []metric{
		{"", "requests_per_sec", l.RequestsPerSec, higherBetter, hostTiming},
		{"", "latency_p50_ms", l.LatencyP50MS, lowerBetter, hostTiming},
		{"", "latency_p95_ms", l.LatencyP95MS, lowerBetter, hostTiming},
		{"", "latency_p99_ms", l.LatencyP99MS, lowerBetter, hostTiming},
		{"", "error_rate", l.ErrorRate, lowerBetter, deterministic},
	}
}

// runKey identifies a run record across two reports.
func runKey(r obs.RunRecord) string {
	k := r.Kind + "/" + r.Config + "/" + r.Workload
	if r.Experiment != "" {
		k = r.Experiment + "/" + k
	}
	return k
}

// reportMetrics lists a -metrics-out report: the aggregate sim rate
// (host timing), the run count, and per run, in sorted run-key order,
// the deterministic paper metrics — IPC, simulated time, total energy,
// instruction count. The last record of a duplicated run key wins.
func reportMetrics(r obs.Report) []metric {
	ms := []metric{
		{"", "manifest.sim_rate_kips", r.Manifest.SimRateKIPS, higherBetter, hostTiming},
		{"", "manifest.runs", float64(r.Manifest.Runs), higherBetter, deterministic},
	}
	runs := make(map[string]obs.RunRecord, len(r.Runs))
	for _, rec := range r.Runs {
		runs[runKey(rec)] = rec
	}
	keys := make([]string, 0, len(runs))
	for k := range runs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		rec := runs[k]
		ms = append(ms,
			metric{k, "ipc", rec.IPC, higherBetter, deterministic},
			metric{k, "time_sec", rec.TimeSec, lowerBetter, deterministic},
			metric{k, "energy_j", energyTotal(rec), lowerBetter, deterministic},
			metric{k, "instructions", float64(rec.Instructions), exactMatch, deterministic})
	}
	return ms
}

// energyTotal sums a record's per-component energy map in sorted
// component order, so the same record always gives the same bits.
func energyTotal(r obs.RunRecord) float64 {
	comps := make([]string, 0, len(r.EnergyJ))
	for c := range r.EnergyJ {
		comps = append(comps, c)
	}
	sort.Strings(comps)
	t := 0.0
	for _, c := range comps {
		t += r.EnergyJ[c]
	}
	return t
}
