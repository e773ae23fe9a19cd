package obs

import (
	"sync"
	"time"
)

// DefaultSampleInterval is the live-telemetry sampling period in
// simulated cycles. 16384 cycles is ~8 µs of simulated time at 2 GHz:
// fine enough to resolve phase behaviour, coarse enough that a sample is
// amortised over thousands of simulated instructions.
const DefaultSampleInterval = 16384

// Observer bundles the observability endpoints one simulation pass
// writes to. Any field may be nil; a nil *Observer disables everything.
// Simulation code threads an Observer through RunOpts and uses the
// nil-safe accessors, so the disabled path costs one pointer check.
type Observer struct {
	Metrics  *Registry
	Trace    *TraceWriter
	Records  *RecordSink
	Progress *Progress
	Series   *SeriesSet
	Events   *EventLog

	// SampleInterval is the per-interval telemetry period in simulated
	// cycles (DefaultSampleInterval when 0).
	SampleInterval uint64

	mu    sync.Mutex
	phase string
}

// Enabled reports whether any endpoint is attached.
func (o *Observer) Enabled() bool {
	return o != nil && (o.Metrics != nil || o.Trace != nil || o.Records != nil ||
		o.Progress != nil || o.Series != nil || o.Events != nil)
}

// Reg returns the metrics registry (nil when disabled).
func (o *Observer) Reg() *Registry {
	if o == nil {
		return nil
	}
	return o.Metrics
}

// Tracer returns the trace writer (nil when disabled).
func (o *Observer) Tracer() *TraceWriter {
	if o == nil {
		return nil
	}
	return o.Trace
}

// Sink returns the run-record sink (nil when disabled).
func (o *Observer) Sink() *RecordSink {
	if o == nil {
		return nil
	}
	return o.Records
}

// Prog returns the progress reporter (nil when disabled).
func (o *Observer) Prog() *Progress {
	if o == nil {
		return nil
	}
	return o.Progress
}

// TimeSeries returns the live series set (nil when disabled).
func (o *Observer) TimeSeries() *SeriesSet {
	if o == nil {
		return nil
	}
	return o.Series
}

// EventSink returns the event log (nil when disabled).
func (o *Observer) EventSink() *EventLog {
	if o == nil {
		return nil
	}
	return o.Events
}

// SamplePeriod returns the telemetry sampling period in simulated
// cycles, or 0 when no series set is attached (samplers then stay
// disarmed and the hot path pays nothing).
func (o *Observer) SamplePeriod() uint64 {
	if o == nil || o.Series == nil {
		return 0
	}
	if o.SampleInterval > 0 {
		return o.SampleInterval
	}
	return DefaultSampleInterval
}

// AddEvent appends an event to the log (no-op when disabled).
func (o *Observer) AddEvent(e Event) {
	if o == nil {
		return
	}
	o.Events.Add(e)
}

// FinishRecord stamps the host-timing fields on rec — wall-clock seconds
// since start and the simulation rate over simInstr (count warmup work
// too: it is host effort) — then adds the record. Every device runner
// ends its run through this one helper so host timing is attached
// uniformly. No-op when disabled.
func (o *Observer) FinishRecord(rec RunRecord, start time.Time, simInstr uint64) {
	if o == nil {
		return
	}
	wall := time.Since(start).Seconds()
	rec.WallSeconds = wall
	if wall > 0 {
		rec.SimRateKIPS = float64(simInstr) / wall / 1e3
	}
	o.AddRecord(rec)
}

// SetPhase labels subsequent run records with the experiment id.
func (o *Observer) SetPhase(name string) {
	if o == nil {
		return
	}
	o.mu.Lock()
	o.phase = name
	o.mu.Unlock()
	o.Progress.SetLabel(name)
}

// Phase returns the current experiment label.
func (o *Observer) Phase() string {
	if o == nil {
		return ""
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.phase
}

// AddRecord stamps the record with the current phase and schema, appends
// it to the sink and mirrors the headline quantities into the registry.
func (o *Observer) AddRecord(r RunRecord) {
	if o == nil {
		return
	}
	r.Schema = SchemaVersion
	if r.Experiment == "" {
		r.Experiment = o.Phase()
	}
	o.Records.Add(r)
	reg := o.Metrics
	if reg == nil {
		return
	}
	reg.Counter("sim." + r.Kind + ".runs_total").Inc()
	reg.Counter("sim." + r.Kind + ".instructions_total").Add(r.Instructions)
	reg.Counter("sim." + r.Kind + ".cycles_total").Add(r.CoreCycles)
	if r.IPC > 0 {
		reg.Histogram("sim."+r.Kind+".ipc",
			[]float64{0.25, 0.5, 0.75, 1, 1.5, 2, 2.5, 3, 3.5, 4}).Observe(r.IPC)
	}
	for k, v := range r.CycleAttribution {
		reg.Counter("sim." + r.Kind + ".cycles." + k).Add(v)
	}
	var total float64
	for k, v := range r.EnergyJ {
		reg.Gauge("sim." + r.Kind + ".energy_j." + k).Add(v)
		total += v
	}
	if total > 0 {
		reg.Gauge("sim." + r.Kind + ".energy_j.total").Add(total)
	}
}
