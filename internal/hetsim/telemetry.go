package hetsim

import (
	"hetcore/internal/cache"
	"hetcore/internal/cpu"
	"hetcore/internal/energy"
	"hetcore/internal/gpu"
	"hetcore/internal/obs"
)

// This file wires the simulators' periodic sampler hooks to the
// observability layer's time series: every obs.Observer.SamplePeriod()
// simulated cycles the pacing core (or the GPU device clock) fires a
// callback that computes windowed aggregates — IPC, queue occupancies,
// TFET-vs-CMOS unit utilisation, dynamic energy — and appends them to
// named series. With no series set attached, SamplePeriod is 0 and the
// samplers stay disarmed, so an uninstrumented run pays nothing beyond
// the simulators' one compare per cycle.
//
// A window's energy is the run's own accounting (energy.ComputeCPU or
// energy.ComputeGPU under the run's assignment) applied to the window's
// counters over zero time, so it holds no leakage; only the end-of-run
// figures do.

// attachCPUTelemetry arms per-interval sampling on the pacing core
// (cores[0]). Windowed values aggregate over all cores, which the chunked
// round-robin keeps within one chunk of the pacing core's clock; price
// is the run's accounting. The returned func detaches the sampler (safe
// to call when never attached).
func attachCPUTelemetry(o *obs.Observer, prefix string, freqGHz float64,
	cores []*cpu.Core, hier *cache.Hierarchy, price pricing) func() {
	period := o.SamplePeriod()
	if period == 0 || len(cores) == 0 {
		return func() {}
	}
	ss := o.TimeSeries()
	reg := o.Reg()

	ipcS := ss.Series(prefix + "ipc")
	robS := ss.Series(prefix + "rob_occ")
	iqS := ss.Series(prefix + "iq_occ")
	lsqS := ss.Series(prefix + "lsq_occ")
	fastS := ss.Series(prefix + "alu_fast_frac")
	enS := ss.Series(prefix + "window_dyn_j")
	powS := ss.Series(prefix + "power_w")

	prev := make([]cpu.Stats, len(cores))
	win := make([]cpu.Stats, len(cores))
	for i, c := range cores {
		prev[i] = c.Stats()
	}
	prevCounts := hier.Counts()
	prevPacing := prev[0].Cycles

	cores[0].SetSampler(period, func(s0 cpu.Stats) {
		t := obs.SimTS(s0.Cycles, freqGHz)
		var d cpu.Stats
		for i, c := range cores {
			cur := c.Stats()
			w := cur.Delta(prev[i])
			prev[i], win[i] = cur, w
			d.Cycles += w.Cycles
			d.Committed += w.Committed
			d.ROBOccAccum += w.ROBOccAccum
			d.IQOccAccum += w.IQOccAccum
			d.LSQOccAccum += w.LSQOccAccum
			d.ALUFastOps += w.ALUFastOps
			d.ALUSlowOps += w.ALUSlowOps
		}
		counts := hier.Counts()
		dc := counts.Delta(prevCounts)
		prevCounts = counts

		if d.Cycles > 0 {
			c := float64(d.Cycles)
			ipcS.Append(t, float64(d.Committed)/c)
			robS.Append(t, float64(d.ROBOccAccum)/c)
			iqS.Append(t, float64(d.IQOccAccum)/c)
			lsqS.Append(t, float64(d.LSQOccAccum)/c)
		}
		if alu := d.ALUFastOps + d.ALUSlowOps; alu > 0 {
			fastS.Append(t, float64(d.ALUFastOps)/float64(alu))
		}
		e := windowDynJ(price, win, dc)
		enS.Append(t, e)
		if dPacing := s0.Cycles - prevPacing; dPacing > 0 {
			powS.Append(t, e*freqGHz*1e9/float64(dPacing))
		}
		prevPacing = s0.Cycles
		reg.Counter("obs.cpu_samples_total").Inc()
	})
	return func() { cores[0].SetSampler(0, nil) }
}

// windowDynJ is one window's dynamic energy in joules: price applied to
// the window's counters over zero time. price fails only on an invalid
// assignment, which fails the run's own end-of-run pricing too.
func windowDynJ(price pricing, stats []cpu.Stats, counts cache.Counts) float64 {
	bd, _ := price(stats, counts, 0)
	return bd.Dynamic()
}

// attachGPUTelemetry arms per-interval sampling on the device clock.
func attachGPUTelemetry(o *obs.Observer, prefix string, cfg GPUConfig, dev *gpu.Device) {
	period := o.SamplePeriod()
	if period == 0 {
		return
	}
	ss := o.TimeSeries()
	reg := o.Reg()
	freq := cfg.Dev.FreqGHz

	ipcS := ss.Series(prefix + "ipc")
	memS := ss.Series(prefix + "mem_wait_frac")
	rfS := ss.Series(prefix + "rf_cache_hit_rate")
	enS := ss.Series(prefix + "window_dyn_j")
	powS := ss.Series(prefix + "power_w")

	// Dynamic energy is linear in the counters, so a window's is the
	// accounting of the cumulative counters less that of the previous
	// sample's.
	var prev gpu.Stats
	var prevDyn float64
	dev.SetSampler(period, func(cur gpu.Stats) {
		t := obs.SimTS(cur.Cycles, freq)
		dCyc := cur.Cycles - prev.Cycles
		dWave := cur.WaveInsts - prev.WaveInsts
		if dCyc > 0 {
			ipcS.Append(t, float64(dWave)/float64(dCyc))
			memS.Append(t, float64(cur.Attr.MemWait-prev.Attr.MemWait)/float64(dCyc))
		}
		if dReads := cur.RFReads - prev.RFReads; dReads > 0 {
			rfS.Append(t, float64(cur.RFCacheHits-prev.RFCacheHits)/float64(dReads))
		}
		bd, _ := priceGPU(cfg, cur, 0) // fails only as the run's own pricing does
		e := bd.Dyn - prevDyn
		enS.Append(t, e)
		if dCyc > 0 {
			powS.Append(t, e*freq*1e9/float64(dCyc))
		}
		prev, prevDyn = cur, bd.Dyn
		reg.Counter("obs.gpu_samples_total").Inc()
	})
}

// priceGPU is the GPU accounting of the counters s over timeSec seconds.
func priceGPU(cfg GPUConfig, s gpu.Stats, timeSec float64) (energy.GPUBreakdown, error) {
	return energy.ComputeGPU(energy.DefaultGPULibrary(), energy.GPUActivity{
		TimeSec: timeSec, CUs: cfg.Dev.CUs,
		WaveInsts: s.WaveInsts,
		FMAOps:    s.FMAOps, ScalarOps: s.ScalarOps, MemOps: s.MemOps,
		RFReads: s.RFReads, RFWrites: s.RFWrites,
		RFCacheHits: s.RFCacheHits, RFCacheWrites: s.RFCacheWrites,
		VL1Accesses: s.VL1Reads, L2Accesses: s.L2Reads,
		DRAMAccesses: s.DRAMAccesses,
	}, cfg.Assign)
}
