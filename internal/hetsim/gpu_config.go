package hetsim

import (
	"slices"
	"sync"

	"hetcore/internal/energy"
	"hetcore/internal/gpu"
)

// GPUConfig is one Table IV GPU configuration.
type GPUConfig struct {
	Name   string
	Notes  string
	Dev    gpu.Config
	Assign energy.GPUAssign
}

// GPUConfigs returns the four Table IV GPU configurations plus AdvHet-2X
// (Section VII-B1: 16 compute units under the BaseCMOS power budget).
// The result is the caller's copy of a table built once.
func GPUConfigs() []GPUConfig { return slices.Clone(gpuTable().list) }

// GPUConfigByName returns the named GPU configuration.
func GPUConfigByName(name string) (GPUConfig, error) { return gpuTable().byName(name) }

// gpuTable is the GPU configurations, built on first use.
var gpuTable = sync.OnceValue(func() configTable[GPUConfig] {
	return newConfigTable("GPU", buildGPUConfigs(), func(c GPUConfig) string { return c.Name })
})

func buildGPUConfigs() []GPUConfig {
	var out []GPUConfig

	// BaseCMOS: all-CMOS GPU *with* the register file cache (the paper
	// adds it to the baseline for fairness).
	base := gpu.DefaultConfig()
	out = append(out, GPUConfig{
		Name: "BaseCMOS", Notes: "All-CMOS GPU + register file cache",
		Dev: base, Assign: energy.AllCMOSGPUAssign(),
	})

	// BaseTFET: all-TFET GPU at half frequency. Cycle latencies match
	// CMOS (the clock slowed with the devices); no RF cache.
	tf := base
	tf.FreqGHz = 0.5
	tf.RFCache = false
	tfAssign := energy.GPUAssign{
		SIMD: energy.TFETScale(), RF: energy.TFETScale(),
		Other: energy.TFETScale(), VL1: energy.TFETScale(), L2: energy.TFETScale(),
	}
	out = append(out, GPUConfig{
		Name: "BaseTFET", Notes: "All-TFET GPU at 0.5 GHz",
		Dev: tf, Assign: tfAssign,
	})

	// BaseHet: SIMD FPUs and register file in TFET; same 1 GHz clock via
	// deeper pipelines (FMA 3→6 cycles, RF 1→2); no RF cache yet.
	het := base
	het.FMALat, het.RFLat = 6, 2
	het.RFCache = false
	hetAssign := energy.AllCMOSGPUAssign()
	hetAssign.SIMD, hetAssign.RF = energy.TFETScale(), energy.TFETScale()
	out = append(out, GPUConfig{
		Name: "BaseHet", Notes: "BaseCMOS + SIMD FPUs & RF in TFET",
		Dev: het, Assign: hetAssign,
	})

	// AdvHet: BaseHet + the register file cache (6 entries/thread,
	// 1-cycle access).
	adv := het
	adv.RFCache = true
	out = append(out, GPUConfig{
		Name: "AdvHet", Notes: "BaseHet + register file cache",
		Dev: adv, Assign: hetAssign,
	})

	// AdvHet-2X: 16 CUs in the BaseCMOS power envelope.
	adv2 := adv
	adv2.CUs = 16
	out = append(out, GPUConfig{
		Name: "AdvHet-2X", Notes: "AdvHet with 2x compute units",
		Dev: adv2, Assign: hetAssign,
	})

	// AdvHet-PartRF: the related-work alternative to the RF cache
	// (Section VIII / Pilot Register File [59]): a CMOS fast partition
	// of 32 registers per thread in front of the slow TFET partition.
	part := het
	part.PartitionedRF = true
	part.PartFastRegs = 32
	part.PartFastLat = 1
	out = append(out, GPUConfig{
		Name:  "AdvHet-PartRF",
		Notes: "BaseHet + partitioned register file (CMOS fast partition)",
		Dev:   part, Assign: hetAssign,
	})

	return out
}
