package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestRegistryInstruments(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("runs")
	c.Inc()
	c.Add(4)
	if got := r.Counter("runs").Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	g := r.Gauge("power_w")
	g.Set(2.5)
	g.Add(0.5)
	if got := r.Gauge("power_w").Value(); got != 3.0 {
		t.Errorf("gauge = %v, want 3", got)
	}
	h := r.Histogram("ipc", []float64{1, 2, 3})
	for _, v := range []float64{0.5, 1.5, 1.7, 2.5, 9} {
		h.Observe(v)
	}
	s := r.Snapshot()
	hs := s.Histograms["ipc"]
	if hs.Count != 5 || hs.Counts[0] != 1 || hs.Counts[1] != 2 || hs.Counts[2] != 1 || hs.Counts[3] != 1 {
		t.Errorf("histogram snapshot = %+v", hs)
	}
	if hs.Sum != 0.5+1.5+1.7+2.5+9 {
		t.Errorf("histogram sum = %v", hs.Sum)
	}
}

func TestNilRegistryIsNoop(t *testing.T) {
	var r *Registry
	r.Counter("x").Add(3)
	r.Gauge("y").Set(1)
	r.Histogram("z", []float64{1}).Observe(2)
	if r.Counter("x").Value() != 0 || r.Gauge("y").Value() != 0 {
		t.Error("nil registry retained values")
	}
	s := r.Snapshot()
	if len(s.Counters) != 0 || len(s.Gauges) != 0 || len(s.Histograms) != 0 {
		t.Error("nil registry snapshot not empty")
	}
}

func TestSnapshotJSONDeterministic(t *testing.T) {
	r := NewRegistry()
	r.Counter("b").Add(2)
	r.Counter("a").Add(1)
	r.Gauge("z").Set(0.25)
	var b1, b2 bytes.Buffer
	if err := r.Snapshot().WriteJSON(&b1); err != nil {
		t.Fatal(err)
	}
	if err := r.Snapshot().WriteJSON(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Error("snapshot JSON not byte-identical across marshals")
	}
	if !strings.Contains(b1.String(), `"a": 1`) {
		t.Errorf("snapshot JSON missing counter:\n%s", b1.String())
	}
}

func TestTraceWriterEmitsValidChromeTrace(t *testing.T) {
	tw := NewTraceWriter()
	pid := tw.NextPID()
	tw.ProcessName(pid, "AdvHet/barnes")
	tw.ThreadName(pid, 0, "core0")
	tw.Complete(pid, 0, "measure", "phase", 10, 250, map[string]any{"cycles": 500})
	tw.Instant(pid, 0, "migration", "sched", 42, nil)
	tw.CounterSample(pid, "IPC", 100, map[string]float64{"ipc": 1.5})
	var buf bytes.Buffer
	if err := tw.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	if len(f.TraceEvents) != 5 {
		t.Fatalf("got %d events, want 5", len(f.TraceEvents))
	}
	for _, e := range f.TraceEvents {
		if e["name"] == "" || e["ph"] == "" {
			t.Errorf("event missing name/ph: %v", e)
		}
	}
}

func TestNilTraceWriterIsNoop(t *testing.T) {
	var tw *TraceWriter
	if tw.Enabled() {
		t.Error("nil writer reports enabled")
	}
	tw.Complete(0, 0, "x", "", 0, 1, nil)
	tw.Instant(0, 0, "x", "", 0, nil)
	tw.CounterSample(0, "x", 0, nil)
	if tw.Len() != 0 {
		t.Error("nil writer buffered events")
	}
	var buf bytes.Buffer
	if err := tw.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "traceEvents") {
		t.Error("nil writer did not produce an empty trace file")
	}
}

func TestRunRecordCanonicalStripsHostTiming(t *testing.T) {
	r := RunRecord{Config: "AdvHet", WallSeconds: 1.5, SimRateKIPS: 1234,
		CycleAttribution: map[string]uint64{"commit_bound": 70, "mem_stall": 30}}
	c := r.Canonical()
	if c.WallSeconds != 0 || c.SimRateKIPS != 0 {
		t.Error("canonical record kept host timing")
	}
	if r.AttributionTotal() != 100 {
		t.Errorf("attribution total = %d, want 100", r.AttributionTotal())
	}
}

func TestObserverAddRecordMirrorsMetrics(t *testing.T) {
	o := &Observer{Metrics: NewRegistry(), Records: &RecordSink{}}
	o.SetPhase("fig7")
	o.AddRecord(RunRecord{Kind: "cpu", Config: "AdvHet", Workload: "barnes",
		Instructions: 1000, CoreCycles: 2000, IPC: 0.5,
		CycleAttribution: map[string]uint64{"commit_bound": 1500, "mem_stall": 500},
		EnergyJ:          map[string]float64{"core_dyn": 1e-6}})
	recs := o.Records.Records()
	if len(recs) != 1 || recs[0].Experiment != "fig7" || recs[0].Schema != SchemaVersion {
		t.Fatalf("record = %+v", recs)
	}
	s := o.Metrics.Snapshot()
	if s.Counters["sim.cpu.runs_total"] != 1 ||
		s.Counters["sim.cpu.instructions_total"] != 1000 ||
		s.Counters["sim.cpu.cycles.commit_bound"] != 1500 {
		t.Errorf("metrics not mirrored: %+v", s.Counters)
	}
}

func TestNilObserverIsNoop(t *testing.T) {
	var o *Observer
	if o.Enabled() {
		t.Error("nil observer enabled")
	}
	o.SetPhase("x")
	o.AddRecord(RunRecord{Kind: "cpu"})
	o.Reg().Counter("c").Inc()
	o.Tracer().Instant(0, 0, "e", "", 0, nil)
	o.Prog().Add(10)
	o.Sink().Add(RunRecord{})
	if o.Sink().Len() != 0 {
		t.Error("nil sink retained records")
	}
}

func TestProgressHeartbeat(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgress(&buf, time.Nanosecond)
	p.SetLabel("fig7")
	p.AddTarget(1_000_000)
	time.Sleep(2 * time.Millisecond)
	p.Add(500_000)
	p.Finish()
	out := buf.String()
	if !strings.Contains(out, "fig7") || !strings.Contains(out, "KIPS") {
		t.Errorf("heartbeat output missing fields:\n%s", out)
	}
	if p.Done() != 500_000 {
		t.Errorf("done = %d", p.Done())
	}
}

func TestFormatAttribution(t *testing.T) {
	var buf bytes.Buffer
	if err := FormatAttribution(&buf, map[string]uint64{"a": 25, "b": 75}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "75.00%") || !strings.Contains(out, "total") {
		t.Errorf("attribution table wrong:\n%s", out)
	}
	if strings.Index(out, "b") > strings.Index(out, "a ") {
		t.Errorf("not sorted by share:\n%s", out)
	}
}

// TestEnergyTotalIndependentOfMapOrder: the energy-total gauge is a
// pure function of the record. These seven components sum to totals a
// picojoule apart in different orders, so a sum in map iteration order
// gives two different gauges over 100 adds.
func TestEnergyTotalIndependentOfMapOrder(t *testing.T) {
	rec := RunRecord{Kind: "cpu", EnergyJ: map[string]float64{
		"core_dyn": 72790.69671916575, "core_leak": 85541.02830308332,
		"l2_dyn": 87387.60725343955, "l2_leak": 25429.079453623373,
		"l3_dyn": 71737.05912065132, "l3_leak": 41485.30152268101,
		"dram": 36413.54109985501,
	}}
	seen := make(map[float64]int)
	for i := 0; i < 100; i++ {
		o := &Observer{Metrics: NewRegistry()}
		o.AddRecord(rec)
		seen[o.Metrics.Snapshot().Gauges["sim.cpu.energy_j.total"]]++
	}
	if len(seen) != 1 {
		t.Errorf("100 adds of one record gave %d different totals: %v", len(seen), seen)
	}
}
