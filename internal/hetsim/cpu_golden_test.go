package hetsim

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"hetcore/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestCPUResultGolden pins the exact CPUResult of every workload on the
// four headline configurations: cycles, cycle attribution, the energy
// breakdown, cache MPKI/occupancy and IPC. Any change to the core's
// scheduling, the hierarchy or trace synthesis that moves a single value
// fails here. Regenerate (only for an intended model change) with
// 'go test ./internal/hetsim -run CPUResultGolden -update'.
func TestCPUResultGolden(t *testing.T) {
	var got []CPUResult
	for _, name := range []string{"BaseCMOS", "BaseHet", "AdvHet", "AdvHet-2X"} {
		cfg, err := CPUConfigByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, prof := range trace.CPUWorkloads() {
			r, err := RunCPU(cfg, prof, RunOpts{TotalInstructions: 20_000, Seed: 1})
			if err != nil {
				t.Fatalf("%s/%s: %v", name, prof.Name, err)
			}
			got = append(got, r)
		}
	}
	buf, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	buf = append(buf, '\n')
	path := filepath.Join("testdata", "cpu_results.golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if bytes.Equal(buf, want) {
		return
	}
	var wantRes []CPUResult
	if err := json.Unmarshal(want, &wantRes); err != nil {
		t.Fatal(err)
	}
	if len(wantRes) != len(got) {
		t.Fatalf("golden has %d results, got %d", len(wantRes), len(got))
	}
	for i := range got {
		if got[i] != wantRes[i] {
			t.Errorf("%s/%s drifted:\n got  %+v\n want %+v",
				got[i].Config, got[i].Workload, got[i], wantRes[i])
		}
	}
}
