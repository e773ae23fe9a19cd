package harness

import (
	"reflect"
	"testing"

	"hetcore/internal/obs"
	"hetcore/internal/trace"
)

// TestPrepassCoversExperiments: after Prepass, every experiment finds
// its CPU and CMP simulations in memory, except the ablations'
// AdvHet-CMA run that the plan leaves out. Only simulations add run
// records; the priced views' stock keys simulate nothing.
func TestPrepassCoversExperiments(t *testing.T) {
	o := &obs.Observer{Records: &obs.RecordSink{}}
	opts, err := Options{Instructions: 8_000, Seed: 1, Jobs: 2, Obs: o,
		Kernels: []string{"DCT"}}.WithSharedEngine()
	if err != nil {
		t.Fatal(err)
	}
	if err := Prepass(opts); err != nil {
		t.Fatal(err)
	}
	planned := len(o.Records.Records())
	for _, e := range Experiments() {
		if _, err := RunExperiment(e, opts); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
	}
	var ran []string
	for _, r := range o.Records.Records()[planned:] {
		if r.Kind == "cpu" || r.Kind == "cmp" {
			ran = append(ran, r.Config+"/"+r.Workload)
		}
	}
	if want := []string{"AdvHet-CMA/blackscholes"}; !reflect.DeepEqual(ran, want) {
		t.Errorf("after the pre-pass the experiments simulated %v, want only %v", ran, want)
	}
	if planned != 182 {
		t.Errorf("the pre-pass simulated %d runs, want 182 (13 per workload)", planned)
	}
}

// TestPrepassSameAtAnyJobs: the pre-pass synthesizes and replays the
// same instruction counts, and adds the same run records, at -jobs 1
// and -jobs 8; the store synthesizes far less than it replays.
func TestPrepassSameAtAnyJobs(t *testing.T) {
	run := func(jobs int) (obs.Snapshot, []obs.RunRecord) {
		o := &obs.Observer{Metrics: obs.NewRegistry(), Records: &obs.RecordSink{}}
		opts, err := Options{Instructions: 8_000, Seed: 2, Jobs: jobs, Obs: o,
			Workloads: []string{"barnes", "radix", "lu"}}.WithSharedEngine()
		if err != nil {
			t.Fatal(err)
		}
		if err := Prepass(opts); err != nil {
			t.Fatal(err)
		}
		return o.Metrics.Snapshot(), obs.CanonicalRecords(o.Records.Records())
	}
	s1, r1 := run(1)
	s8, r8 := run(8)
	for _, name := range []string{trace.SynthesizedCounter, trace.ReplayedCounter} {
		if s1.Counters[name] != s8.Counters[name] {
			t.Errorf("%s: %d at -jobs 1, %d at -jobs 8", name, s1.Counters[name], s8.Counters[name])
		}
	}
	if synth, replay := s1.Counters[trace.SynthesizedCounter], s1.Counters[trace.ReplayedCounter]; 3*synth > replay {
		t.Errorf("synthesized %d of %d replayed instructions; want under a third", synth, replay)
	}
	if !reflect.DeepEqual(r1, r8) {
		t.Error("the pre-pass's run records differ between -jobs 1 and -jobs 8")
	}
}
