// Package traffic closes the loop between the SoC model and a live
// service: a requests-per-second trace (synthetic diurnal/bursty/flat
// curves or a CSV/JSONL file) drives a discrete-time fleet simulator
// that queues requests from a multi-program workload mix onto a
// soc.Config's CMOS and TFET cores, asking a governor.Scheduler every
// epoch for core wake/sleep, DVFS and placement decisions. The output is
// the service operator's view of the HetCore tradeoff: energy per
// request, latency quantiles against an SLO, and deadline misses —
// THEAS-style cache-aware scheduling (co-locate cache-friendly programs
// on TFET cores, reserve CMOS cores for serial/latency-critical work)
// measured against naive and utilization-threshold baselines.
//
// Everything is deterministic: arrivals are a pure function of (trace,
// seed), policies are pure functions of the epoch state, and the
// simulator is straight-line float arithmetic — so traffic scenarios
// memoize in the engine and dist caches like any other device run.
package traffic

import (
	"fmt"
	"math"
	"sort"

	"hetcore/internal/names"
	"hetcore/internal/trace"
)

// Trace is a requests-per-second curve sampled at a fixed epoch length.
type Trace struct {
	Name     string    `json:"name"`
	EpochSec float64   `json:"epoch_sec"`
	RPS      []float64 `json:"rps"`
}

// Validate checks the curve is usable.
func (t Trace) Validate() error {
	if t.Name == "" {
		return fmt.Errorf("traffic: trace has no name")
	}
	if !(t.EpochSec > 0) || math.IsInf(t.EpochSec, 0) {
		return fmt.Errorf("traffic: trace %s has bad epoch length %v", t.Name, t.EpochSec)
	}
	if len(t.RPS) == 0 {
		return fmt.Errorf("traffic: trace %s has no epochs", t.Name)
	}
	for i, r := range t.RPS {
		if r < 0 || math.IsNaN(r) || math.IsInf(r, 0) {
			return fmt.Errorf("traffic: trace %s epoch %d has bad rate %v", t.Name, i, r)
		}
	}
	return nil
}

// DurationSec is the trace's total length.
func (t Trace) DurationSec() float64 { return float64(len(t.RPS)) * t.EpochSec }

// PeakRPS returns the highest epoch rate.
func (t Trace) PeakRPS() float64 {
	peak := 0.0
	for _, r := range t.RPS {
		if r > peak {
			peak = r
		}
	}
	return peak
}

// The synthetic curves are sized for the default c4t4g0 mix at the
// default request size: the diurnal peak pushes a naive all-awake fleet
// to ~30% utilization while the trough leaves it nearly idle — the
// regime where wake/sleep policy dominates energy per request.
const (
	syntheticEpochs   = 36
	syntheticEpochSec = 1.0
)

// Diurnal returns the default day-shaped curve: a raised cosine from a
// ~300 RPS trough to a ~2400 RPS peak.
func Diurnal() Trace {
	rps := make([]float64, syntheticEpochs)
	const base, peak = 300, 2400
	for i := range rps {
		phase := 2 * math.Pi * float64(i) / float64(syntheticEpochs-1)
		rps[i] = base + (peak-base)*(1-math.Cos(phase))/2
	}
	return Trace{Name: "diurnal", EpochSec: syntheticEpochSec, RPS: rps}
}

// Bursty returns a flat ~600 RPS floor with seeded 4x bursts. The burst
// pattern uses a fixed internal seed: the curve is part of the trace's
// identity (engine keys name it), so it must not vary per run.
func Bursty() Trace {
	rng := trace.NewRNG(0xb0b5)
	rps := make([]float64, syntheticEpochs)
	const base = 600
	for i := range rps {
		rps[i] = base
		if rng.Bool(0.15) {
			rps[i] = base * 4
		}
	}
	return Trace{Name: "bursty", EpochSec: syntheticEpochSec, RPS: rps}
}

// Flat returns a constant 1200 RPS curve — the control case where
// wake/sleep decisions settle to a fixed point.
func Flat() Trace {
	rps := make([]float64, syntheticEpochs)
	for i := range rps {
		rps[i] = 1200
	}
	return Trace{Name: "flat", EpochSec: syntheticEpochSec, RPS: rps}
}

// synthetic is the named-trace registry, in declaration order.
var synthetic = []func() Trace{Diurnal, Bursty, Flat}

// TraceNames lists the synthetic traces in registry order.
func TraceNames() []string {
	out := make([]string, len(synthetic))
	for i, f := range synthetic {
		out[i] = f().Name
	}
	return out
}

// TraceByName returns a synthetic trace. A miss names the closest known
// trace, the same way the experiment registry answers an unknown -exp.
func TraceByName(name string) (Trace, error) {
	for _, f := range synthetic {
		if t := f(); t.Name == name {
			return t, nil
		}
	}
	ns := TraceNames()
	sort.Strings(ns)
	return Trace{}, fmt.Errorf("traffic: unknown trace %q (closest match %q; have %v)",
		name, names.Nearest(name, ns), ns)
}
