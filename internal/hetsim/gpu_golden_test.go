package hetsim

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"hetcore/internal/gpu"
)

// TestGPUResultGolden pins the exact GPUResult of every kernel on three
// GPU designs: cycles, stall attribution, wavefront instructions, the
// RF-cache hit rate and the energy breakdown (which the cache and DRAM
// counts feed). Any change to wavefront scheduling, the memory
// hierarchy or instruction synthesis that moves a single value fails
// here. Regenerate (only for an intended model change) with
// 'go test ./internal/hetsim -run GPUResultGolden -update'.
func TestGPUResultGolden(t *testing.T) {
	var got []GPUResult
	for _, name := range []string{"BaseCMOS", "AdvHet", "AdvHet-2X"} {
		cfg, err := GPUConfigByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range gpu.Kernels() {
			r, err := RunGPU(cfg, k, 1)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, k.Name, err)
			}
			got = append(got, r)
		}
	}
	buf, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	buf = append(buf, '\n')
	path := filepath.Join("testdata", "gpu_results.golden.json")
	if *updateGolden {
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
	var wantRes []GPUResult
	if err := json.Unmarshal(want, &wantRes); err != nil {
		t.Fatal(err)
	}
	if len(wantRes) != len(got) {
		t.Fatalf("golden has %d results, got %d", len(wantRes), len(got))
	}
	for i := range got {
		if got[i] != wantRes[i] {
			t.Errorf("%s/%s differs from golden:\n got  %+v\n want %+v",
				got[i].Config, got[i].Kernel, got[i], wantRes[i])
		}
	}
}
