package harness

import (
	"reflect"
	"strings"
	"testing"

	"hetcore/internal/energy"
	"hetcore/internal/obs"
	"hetcore/internal/soc"
)

// socTestOptions keeps the SoC search cheap in tests: one workload, a
// small instruction budget.
func socTestOptions(t *testing.T, jobs int, o *obs.Observer) Options {
	t.Helper()
	opts, err := Options{
		Instructions: 40_000, Seed: 1,
		Workloads: []string{"fft"}, Jobs: jobs, Obs: o,
	}.WithSharedEngine()
	if err != nil {
		t.Fatal(err)
	}
	return opts
}

// renderSoC renders the Pareto table plus the breakdown with the given
// worker count.
func renderSoC(t *testing.T, jobs int) string {
	t.Helper()
	opts := socTestOptions(t, jobs, nil)
	var buf strings.Builder
	for _, run := range []func(Options) (Table, error){SoC, SoCBreak} {
		tb, err := run(opts)
		if err != nil {
			t.Fatalf("soc (jobs=%d): %v", jobs, err)
		}
		if err := tb.Format(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.String()
}

// TestSoCDeterministicAcrossJobs extends the determinism contract to the
// SoC search: -jobs=1 and -jobs=8 must render byte-identical Pareto and
// breakdown tables.
func TestSoCDeterministicAcrossJobs(t *testing.T) {
	serial := renderSoC(t, 1)
	parallel := renderSoC(t, 8)
	if serial != parallel {
		t.Fatalf("soc tables differ between -jobs=1 and -jobs=8:\n--- jobs=1 ---\n%s\n--- jobs=8 ---\n%s",
			serial, parallel)
	}
	// TFET-accelerator mixes dominate the whole front: the accelerator
	// runs the offloadable half at far lower dynamic energy than any
	// core or GPU, so every front mix should carry an xt term.
	if !strings.Contains(serial, "xt") {
		t.Fatalf("Pareto front carries no TFET-accelerator mix:\n%s", serial)
	}
}

// TestSearchSoCCountsAndCounters pins the search scale — at least 200
// mixes fit the default budget (the ISSUE's acceptance floor) — and the
// budget accounting counters.
func TestSearchSoCCountsAndCounters(t *testing.T) {
	o := &obs.Observer{Metrics: obs.NewRegistry()}
	opts := socTestOptions(t, 4, o)
	results, over, err := SearchSoC(opts, soc.DefaultBudget(), soc.DefaultSpace())
	if err != nil {
		t.Fatal(err)
	}
	nMixes := len(results) // one workload, so one result per mix
	if nMixes < 200 {
		t.Errorf("evaluated %d mixes, want >= 200", nMixes)
	}
	if nMixes+len(over) != len(soc.DefaultSpace()) {
		t.Errorf("evaluated %d + rejected %d != space %d", nMixes, len(over), len(soc.DefaultSpace()))
	}
	snap := o.Reg().Snapshot()
	if got := snap.Counters["soc.configs_evaluated"]; got != uint64(nMixes) {
		t.Errorf("soc.configs_evaluated = %d, want %d", got, nMixes)
	}
	if got := snap.Counters["soc.configs_over_budget"]; got != uint64(len(over)) {
		t.Errorf("soc.configs_over_budget = %d, want %d", got, len(over))
	}
	// Every evaluated mix must actually fit; every result must be sane.
	for _, r := range results {
		if !soc.DefaultBudget().Fits(r.AreaMM2, r.PeakW) {
			t.Errorf("%s evaluated but over budget (%.1f mm², %.1f W)", r.Config, r.AreaMM2, r.PeakW)
		}
		if r.TimeSec <= 0 || r.TotalEnergyJ() <= 0 {
			t.Errorf("%s/%s: non-positive time/energy: %+v", r.Config, r.Workload, r)
		}
	}
}

// TestSearchSoCSummaryRecord: a cold search adds exactly one soc run
// record, whose counts match the budget counters and which is the same
// at -jobs 1 and -jobs 8 apart from host timing; a second search served
// from memory adds no record and leaves the counters as they were.
func TestSearchSoCSummaryRecord(t *testing.T) {
	socRecords := func(o *obs.Observer) []obs.RunRecord {
		var out []obs.RunRecord
		for _, r := range o.Records.Records() {
			if r.Kind == "soc" {
				out = append(out, r.Canonical())
			}
		}
		return out
	}
	var first obs.RunRecord
	for _, jobs := range []int{1, 8} {
		o := &obs.Observer{Metrics: obs.NewRegistry(), Records: &obs.RecordSink{}}
		opts := socTestOptions(t, jobs, o)
		results, over, err := SearchSoC(opts, soc.DefaultBudget(), soc.DefaultSpace())
		if err != nil {
			t.Fatal(err)
		}
		recs := socRecords(o)
		if len(recs) != 1 {
			t.Fatalf("-jobs %d: cold search added %d soc records, want 1", jobs, len(recs))
		}
		r := recs[0]
		snap := o.Reg().Snapshot()
		want := map[string]float64{
			"mixes_in_budget":   float64(snap.Counters["soc.configs_evaluated"]),
			"mixes_over_budget": float64(snap.Counters["soc.configs_over_budget"]),
			"points":            float64(len(results)),
			"points_evaluated":  float64(len(results)),
		}
		if !reflect.DeepEqual(r.Extra, want) {
			t.Errorf("-jobs %d: summary extra %v, want %v", jobs, r.Extra, want)
		}
		if int(r.Extra["mixes_over_budget"]) != len(over) {
			t.Errorf("-jobs %d: %v mixes over budget, search returned %d", jobs, r.Extra["mixes_over_budget"], len(over))
		}
		if jobs == 1 {
			first = r
		} else if !reflect.DeepEqual(r, first) {
			t.Errorf("summary differs between -jobs 1 and -jobs 8:\n%+v\n%+v", first, r)
		}

		if _, _, err := SearchSoC(opts, soc.DefaultBudget(), soc.DefaultSpace()); err != nil {
			t.Fatal(err)
		}
		if n := len(socRecords(o)); n != 1 {
			t.Errorf("-jobs %d: a search served from memory added %d soc records", jobs, n-1)
		}
		again := o.Reg().Snapshot()
		for _, c := range []string{"soc.configs_evaluated", "soc.configs_over_budget"} {
			if again.Counters[c] != snap.Counters[c] {
				t.Errorf("-jobs %d: a search served from memory moved %s %d -> %d",
					jobs, c, snap.Counters[c], again.Counters[c])
			}
		}
	}
}

// TestSearchSoCImpossibleBudget asserts the empty-fit error path: a
// budget no mix fits is an error, not an empty table.
func TestSearchSoCImpossibleBudget(t *testing.T) {
	opts := socTestOptions(t, 1, nil)
	tiny := energy.Budget{AreaMM2: 1, PowerW: 1}
	if _, _, err := SearchSoC(opts, tiny, soc.DefaultSpace()); err == nil {
		t.Error("search under an impossible budget should fail")
	}
	if err := (energy.Budget{AreaMM2: -5}).Validate(); err == nil {
		t.Error("negative budget should fail validation")
	}
}

// TestSoCParetoShape checks the rendered Pareto table: non-empty, sorted
// by time ascending with energy strictly descending (the definition of a
// 2-D Pareto front), and the note reports the search accounting.
func TestSoCParetoShape(t *testing.T) {
	opts := socTestOptions(t, 4, nil)
	tb, err := SoC(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) == 0 {
		t.Fatal("empty Pareto front")
	}
	if len(tb.Columns) != 9 {
		t.Fatalf("Pareto table has %d columns, want 9: %v", len(tb.Columns), tb.Columns)
	}
	const timeCol, energyCol = 6, 7
	for i, row := range tb.Rows {
		if len(row.Values) != len(tb.Columns) {
			t.Fatalf("row %s has %d values, want %d", row.Label, len(row.Values), len(tb.Columns))
		}
		if i == 0 {
			continue
		}
		prev := tb.Rows[i-1]
		if row.Values[timeCol] <= prev.Values[timeCol] {
			t.Errorf("front not sorted by time: %s (%.3f) after %s (%.3f)",
				row.Label, row.Values[timeCol], prev.Label, prev.Values[timeCol])
		}
		if row.Values[energyCol] >= prev.Values[energyCol] {
			t.Errorf("dominated mix on front: %s uses no less energy than faster %s",
				row.Label, prev.Label)
		}
	}
	if !strings.Contains(tb.Notes, "rejected over budget") {
		t.Errorf("notes miss the budget accounting: %q", tb.Notes)
	}
}

// TestSoCCacheReuse asserts the search's engine economics: a second
// search on the same shared engine simulates nothing (every component
// and composition job memoized), and the component GPU keys are the
// stock keys the fig10-12 suite shares.
func TestSoCCacheReuse(t *testing.T) {
	opts := socTestOptions(t, 4, nil)
	if _, err := SoC(opts); err != nil {
		t.Fatal(err)
	}
	ran := opts.Engine.JobsRun()
	if ran == 0 {
		t.Fatal("first search simulated nothing")
	}
	if _, err := SoC(opts); err != nil {
		t.Fatal(err)
	}
	if got := opts.Engine.JobsRun(); got != ran {
		t.Errorf("second search simulated %d extra jobs, want 0", got-ran)
	}
}
