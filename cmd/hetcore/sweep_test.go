package main

import (
	"reflect"
	"testing"

	"hetcore/internal/engine"
	"hetcore/internal/harness"
	"hetcore/internal/obs"
)

// TestSweepReportSameAtAnyJobs: every row of a sweep is its own named
// configuration, so the run records and the metrics of the fastsize
// plan are the same whichever row finishes last.
func TestSweepReportSameAtAnyJobs(t *testing.T) {
	run := func(jobs int) ([]obs.RunRecord, obs.Snapshot) {
		o := &obs.Observer{Metrics: obs.NewRegistry(), Records: &obs.RecordSink{}}
		opts := harness.Options{Instructions: 20_000, Seed: 1, Obs: o, Engine: engine.New(jobs, o)}
		labels, plan, err := knobs["fastsize"].plan(opts, "barnes", "Reduction")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := opts.Engine.RunAll(plan); err != nil {
			t.Fatal(err)
		}
		recs := obs.CanonicalRecords(o.Records.Records())
		configs := map[string]bool{}
		for _, r := range recs {
			configs[r.Config] = true
		}
		if len(recs) != len(labels) || len(configs) != len(labels) {
			t.Fatalf("-jobs %d: %d rows gave %d records over %d configs", jobs, len(labels), len(recs), len(configs))
		}
		return recs, o.Metrics.Snapshot()
	}
	recs1, snap1 := run(1)
	recs8, snap8 := run(8)
	if !reflect.DeepEqual(recs1, recs8) {
		t.Errorf("run records differ between -jobs 1 and -jobs 8:\n%+v\n%+v", recs1, recs8)
	}
	if !reflect.DeepEqual(snap1, snap8) {
		t.Errorf("metrics differ between -jobs 1 and -jobs 8:\n%+v\n%+v", snap1, snap8)
	}
}
