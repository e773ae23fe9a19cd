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
// GPU designs, plus a subset of kernels on the three designs that take
// the other register-file paths: BaseTFET (no RF cache, 0.5 GHz),
// BaseHet (no RF cache, 2-cycle RF) and AdvHet-PartRF (the partitioned
// RF). Each result holds cycles, stall attribution, wavefront
// instructions, the RF-cache hit rate and the energy breakdown (which
// the cache and DRAM counts feed). Any change to wavefront scheduling,
// the memory hierarchy or instruction synthesis that moves a single
// value fails here. Regenerate (only for an intended model change) with
// 'go test ./internal/hetsim -run GPUResultGolden -update'.
func TestGPUResultGolden(t *testing.T) {
	checkGPUGolden(t, "gpu_results.golden.json",
		[]string{"BaseCMOS", "AdvHet", "AdvHet-2X"}, gpu.Kernels())

	var subset []gpu.Kernel
	for _, name := range []string{"BinarySearch", "DCT", "Histogram",
		"MatrixMultiplication", "PrefixSum", "SobelFilter"} {
		k, err := gpu.KernelByName(name)
		if err != nil {
			t.Fatal(err)
		}
		subset = append(subset, k)
	}
	checkGPUGolden(t, "gpu_rf_paths.golden.json",
		[]string{"BaseTFET", "BaseHet", "AdvHet-PartRF"}, subset)
}

// checkGPUGolden runs every kernel on every named config at seed 1 and
// compares the results with testdata/file.
func checkGPUGolden(t *testing.T, file string, configs []string, kernels []gpu.Kernel) {
	t.Helper()
	var got []GPUResult
	for _, name := range configs {
		cfg, err := GPUConfigByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range kernels {
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
	path := filepath.Join("testdata", file)
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
		t.Fatalf("%s has %d results, got %d", file, len(wantRes), len(got))
	}
	for i := range got {
		if got[i] != wantRes[i] {
			t.Errorf("%s/%s differs from %s:\n got  %+v\n want %+v",
				got[i].Config, got[i].Kernel, file, got[i], wantRes[i])
		}
	}
}
