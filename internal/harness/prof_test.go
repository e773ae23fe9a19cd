package harness

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hetcore/internal/prof"
)

// TestCPUProfileLifecycle: -cpuprofile produces a valid pprof proto and
// Close is safe to call more than once (the stop must fire exactly
// once; a double StopCPUProfile/Close used to be possible through the
// Start error path).
func TestCPUProfileLifecycle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	f := ObsFlags{CPUProfile: path}
	s, err := f.Start([]string{"test"})
	if err != nil {
		t.Fatal(err)
	}
	spinWork()
	if err := s.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	p, err := prof.ParseProfile(raw)
	if err != nil {
		t.Fatalf("written -cpuprofile is not a valid pprof proto: %v", err)
	}
	if p.ValueIndex("cpu") < 0 {
		t.Fatalf("profile sample types = %+v, want a cpu dimension", p.SampleTypes)
	}
}

// TestCPUProfileStoppedOnServerError: when -serve fails after profiling
// started, Start must unwind the CPU profile — proven by the next
// profiled session starting cleanly (StartCPUProfile errors while a
// profile is active).
func TestCPUProfileStoppedOnServerError(t *testing.T) {
	dir := t.TempDir()
	f := ObsFlags{
		CPUProfile: filepath.Join(dir, "cpu1.pprof"),
		Serve:      "definitely-not-an-addr:-1",
	}
	if _, err := f.Start([]string{"test"}); err == nil {
		t.Fatal("Start with an unbindable -serve addr succeeded")
	}

	f2 := ObsFlags{CPUProfile: filepath.Join(dir, "cpu2.pprof")}
	s, err := f2.Start([]string{"test"})
	if err != nil {
		t.Fatalf("profiling still active after the failed Start: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// spinWork burns a little CPU so the profiler has samples to take.
func spinWork() {
	var acc uint64
	for i := 0; i < 50_000_000; i++ {
		acc = acc*6364136223846793005 + 1442695040888963407
	}
	_ = acc
}

// checkCumulative: a cumulative table is sorted by cum, every entry's
// cum is at least its flat, and, when the profiler took samples, the
// simulator loop fn appears in it.
func checkCumulative(t *testing.T, top []prof.FuncCost, fn string) {
	t.Helper()
	if len(top) == 0 {
		t.Log("empty cumulative table (profiler starved; tolerated)")
		return
	}
	found := false
	for i, f := range top {
		found = found || f.Function == fn
		if f.Cum < f.Flat || f.Share > 1.0001 {
			t.Errorf("%s: cum %d, flat %d, share %v", f.Function, f.Cum, f.Flat, f.Share)
		}
		if i > 0 && f.Cum > top[i-1].Cum {
			t.Errorf("cumulative table not sorted at %d: %+v", i, top)
		}
	}
	if !found {
		t.Errorf("cumulative table does not name %s: %+v", fn, top)
	}
}

// TestRunHotspotsCPU: the hotspots report is schema-stamped, names the
// core's cycle loop in its cumulative table, and carries non-empty top
// tables parsed from real profiles.
func TestRunHotspotsCPU(t *testing.T) {
	rep, err := RunHotspots(HotspotsOptions{Instructions: 150_000, TopN: 5})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != prof.SchemaVersion {
		t.Errorf("schema = %q, want %q", rep.Schema, prof.SchemaVersion)
	}
	if rep.Device != "cpu" || rep.Workload != "barnes" || rep.Config != "BaseCMOS" {
		t.Errorf("defaults = %s/%s/%s", rep.Device, rep.Config, rep.Workload)
	}
	if rep.Instructions == 0 || rep.WallSeconds <= 0 {
		t.Errorf("instructions/wall = %d/%v, want > 0", rep.Instructions, rep.WallSeconds)
	}
	const step = "hetcore/internal/cpu.(*Core).step"
	checkCumulative(t, rep.CPUCumTop, step)
	if len(rep.HeapTop) == 0 {
		t.Error("empty heap top table")
	}
	if len(rep.CPUTop) == 0 {
		t.Log("empty CPU top table (profiler starved; tolerated)")
	}
	if len(rep.CPUTop) > 5 || len(rep.HeapTop) > 5 || len(rep.CPUCumTop) > 15 {
		t.Errorf("top tables exceed their depth: cpu=%d heap=%d cum=%d",
			len(rep.CPUTop), len(rep.HeapTop), len(rep.CPUCumTop))
	}

	out := rep.Format()
	wants := []string{"pprof flat", "alloc_space", "share"}
	if len(rep.CPUCumTop) > 0 {
		wants = append(wants, "pprof cumulative", "(*Core).step")
	}
	for _, want := range wants {
		if !strings.Contains(out, want) {
			t.Errorf("formatted report missing %q:\n%s", want, out)
		}
	}
	if _, err := json.Marshal(rep); err != nil {
		t.Fatalf("report does not marshal: %v", err)
	}
}

// TestRunHotspotsGPU: the GPU path names the device's run loop in its
// cumulative table.
func TestRunHotspotsGPU(t *testing.T) {
	rep, err := RunHotspots(HotspotsOptions{Device: "gpu", Workload: "Reduction"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Instructions == 0 {
		t.Error("no wave instructions simulated")
	}
	checkCumulative(t, rep.CPUCumTop, "hetcore/internal/gpu.(*Device).Run")
}

func TestRunHotspotsBadInput(t *testing.T) {
	if _, err := RunHotspots(HotspotsOptions{Device: "tpu"}); err == nil {
		t.Error("unknown device accepted")
	}
	if _, err := RunHotspots(HotspotsOptions{Workload: "no-such-workload",
		Instructions: 1000}); err == nil {
		t.Error("unknown workload accepted")
	}
}
