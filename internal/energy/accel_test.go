package energy_test

import (
	"testing"

	"hetcore/internal/energy"
	"hetcore/internal/gpu"
)

// The test lives in an external package so it can import the GPU kernel
// catalog (gpu imports energy) and prove the accelerator table covers it.

func TestAccelEntriesCoverKernelCatalog(t *testing.T) {
	entries := energy.AccelTable
	byKernel := make(map[string]energy.AccelEntry, len(entries))
	for _, e := range entries {
		if _, dup := byKernel[e.Kernel]; dup {
			t.Errorf("duplicate accelerator entry for %q", e.Kernel)
		}
		byKernel[e.Kernel] = e
	}
	kernels := gpu.Kernels()
	if len(entries) != len(kernels) {
		t.Errorf("catalog size mismatch: %d accel entries, %d GPU kernels", len(entries), len(kernels))
	}
	for _, k := range kernels {
		e, ok := byKernel[k.Name]
		if !ok {
			t.Errorf("kernel %q has no accelerator entry", k.Name)
			continue
		}
		if e.PerfPerUnit <= 0 || e.DynGain <= 1 {
			t.Errorf("%s: entry %+v must have positive throughput and a >1x dynamic gain", k.Name, e)
		}
		got, err := energy.AccelEntryFor(k.Name)
		if err != nil || got != e {
			t.Errorf("AccelEntryFor(%q) = %+v, %v", k.Name, got, err)
		}
	}
}

func TestAccelEntryForUnknown(t *testing.T) {
	if _, err := energy.AccelEntryFor("NoSuchKernel"); err == nil {
		t.Fatal("expected an error for an unknown kernel")
	}
}

func TestAccelScale(t *testing.T) {
	if energy.AccelScale(false) != energy.CMOSScale() {
		t.Error("CMOS accel build must use identity scaling")
	}
	if energy.AccelScale(true) != energy.TFETScale() {
		t.Error("TFET accel build must use the standard TFET factors")
	}
	if energy.AccelUnitLeakMW <= 0 {
		t.Error("accelerator unit leakage must be positive")
	}
}
