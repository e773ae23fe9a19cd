package hetsim

import (
	"reflect"
	"testing"

	"hetcore/internal/obs"
	"hetcore/internal/trace"
)

// TestRunsSameWithStreamStore: CPU runs of several core counts and both
// CMPs give exactly the same results reading one shared stream store as
// with private generators, though the runs read its streams to
// different lengths.
func TestRunsSameWithStreamStore(t *testing.T) {
	adv, err := CPUConfigByName("AdvHet")
	if err != nil {
		t.Fatal(err)
	}
	cmos, err := CPUConfigByName("BaseCMOS")
	if err != nil {
		t.Fatal(err)
	}
	nomig := DefaultHeteroCMP()
	nomig.Migrate = false
	reg := obs.NewRegistry()
	shared := RunOpts{TotalInstructions: 30_000, Seed: 5, Streams: trace.NewStreamStore(reg)}
	for _, w := range []string{"barnes", "canneal"} {
		prof, err := trace.CPUWorkload(w)
		if err != nil {
			t.Fatal(err)
		}
		runs := []struct {
			name string
			run  func(RunOpts) (any, error)
		}{
			{"AdvHet", func(o RunOpts) (any, error) { return RunCPU(adv, prof, o) }},
			{"BaseCMOS-1core", func(o RunOpts) (any, error) { return RunCPU(SingleCore(cmos), prof, o) }},
			{"HeteroCMP", func(o RunOpts) (any, error) { return RunHeteroCMP(DefaultHeteroCMP(), prof, o) }},
			{"HeteroCMP-nomig", func(o RunOpts) (any, error) { return RunHeteroCMP(nomig, prof, o) }},
		}
		for _, r := range runs {
			want, err := r.run(RunOpts{TotalInstructions: 30_000, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			got, err := r.run(shared)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s: with a store\n%+v\nwithout\n%+v", r.name, w, got, want)
			}
		}
	}
	snap := reg.Snapshot()
	if snap.Counters[trace.SynthesizedCounter] == 0 ||
		snap.Counters[trace.ReplayedCounter] <= snap.Counters[trace.SynthesizedCounter] {
		t.Errorf("store synthesized %d and replayed %d instructions; want replays to outnumber syntheses",
			snap.Counters[trace.SynthesizedCounter], snap.Counters[trace.ReplayedCounter])
	}
}
