package harness

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"hetcore/internal/gpu"
	"hetcore/internal/hetsim"
	"hetcore/internal/obs"
)

// smallOpts keeps the observability tests fast: one workload, one
// kernel, a modest instruction budget.
func smallOpts(o *obs.Observer) Options {
	return Options{
		Instructions: 60_000,
		Seed:         7,
		Workloads:    []string{"barnes"},
		Kernels:      []string{"Reduction"},
		Obs:          o,
	}
}

// TestReportSimRateCountsSimulatedKindsOnly: the manifest sim rate adds up
// cpu, cmp and gpu instructions; soc and traffic records report modelled
// work composed from those runs and must not inflate it.
func TestReportSimRateCountsSimulatedKindsOnly(t *testing.T) {
	s := &ObsSession{Obs: &obs.Observer{Records: &obs.RecordSink{}}, start: time.Now()}
	for _, r := range []obs.RunRecord{
		{Kind: "cpu", Config: "BaseCMOS", Workload: "barnes", Instructions: 400_000},
		{Kind: "cmp", Config: "HeteroCMP", Workload: "barnes", Instructions: 200_000},
		{Kind: "gpu", Config: "BaseCMOS", Workload: "Reduction", Instructions: 100_000},
		{Kind: "soc", Config: "c4t4g0", Workload: "barnes", Instructions: 5_000_000_000},
		{Kind: "traffic", Config: "c4t4g0+naive", Workload: "diurnal", Instructions: 90_000_000_000},
	} {
		s.Obs.AddRecord(r)
	}
	m := s.Report().Manifest
	if m.WallSeconds <= 0 {
		t.Fatalf("wall seconds %v", m.WallSeconds)
	}
	got := m.SimRateKIPS * m.WallSeconds * 1e3
	if want := 700_000.0; got < want*0.999 || got > want*1.001 {
		t.Errorf("sim rate covers %.0f instructions, want %.0f (cpu+cmp+gpu)", got, want)
	}
}

func newObserver() *obs.Observer {
	return &obs.Observer{
		Metrics: obs.NewRegistry(),
		Trace:   obs.NewTraceWriter(),
		Records: &obs.RecordSink{},
	}
}

// runObserved executes a CPU experiment and one GPU run under a fresh
// observer and returns the canonical record JSON plus the metrics
// snapshot JSON.
func runObserved(t *testing.T) ([]byte, []byte) {
	t.Helper()
	o := newObserver()
	opts := smallOpts(o)
	e, err := ByID("fig7")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunExperiment(e, opts); err != nil {
		t.Fatal(err)
	}
	gcfg, err := hetsim.GPUConfigByName("AdvHet")
	if err != nil {
		t.Fatal(err)
	}
	k, err := gpu.KernelByName("Reduction")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hetsim.RunGPUObserved(gcfg, k, opts.Seed, o); err != nil {
		t.Fatal(err)
	}
	recs, err := json.MarshalIndent(obs.CanonicalRecords(o.Records.Records()), "", " ")
	if err != nil {
		t.Fatal(err)
	}
	snap, err := json.MarshalIndent(o.Metrics.Snapshot(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return recs, snap
}

// TestRunRecordDeterminism: two same-seed invocations must produce
// byte-identical canonical run records and metrics snapshots.
func TestRunRecordDeterminism(t *testing.T) {
	recs1, snap1 := runObserved(t)
	recs2, snap2 := runObserved(t)
	if !bytes.Equal(recs1, recs2) {
		t.Errorf("canonical run records differ between same-seed runs:\n--- first ---\n%.2000s\n--- second ---\n%.2000s", recs1, recs2)
	}
	if !bytes.Equal(snap1, snap2) {
		t.Errorf("metrics snapshots differ between same-seed runs:\n--- first ---\n%.2000s\n--- second ---\n%.2000s", snap1, snap2)
	}
}

// TestObservedExperimentRecords: every record produced by an observed
// experiment carries the phase label, a complete cycle attribution
// (buckets sum to CoreCycles) and an energy summary, and the trace
// buffer holds valid Chrome trace JSON.
func TestObservedExperimentRecords(t *testing.T) {
	o := newObserver()
	opts := smallOpts(o)
	e, err := ByID("fig7")
	if err != nil {
		t.Fatal(err)
	}
	tab, err := RunExperiment(e, opts)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := tab.Cell("barnes", "BaseTFET"); err != nil || v <= 1 {
		t.Errorf("fig7 BaseTFET/barnes = %v, %v: want a priced slowdown above 1", v, err)
	}
	recs := o.Records.Records()
	if want := timingClasses(t, fig7Configs); uint64(len(recs)) != want {
		t.Fatalf("%d records, want %d (one per timing class)", len(recs), want)
	}
	for _, r := range recs {
		if r.Config == "BaseTFET" {
			t.Errorf("priced BaseTFET view emitted a run record")
		}
		if r.Experiment != "fig7" {
			t.Errorf("record %s/%s has experiment %q, want fig7", r.Config, r.Workload, r.Experiment)
		}
		if r.Schema != obs.SchemaVersion {
			t.Errorf("record %s has schema %q", r.Config, r.Schema)
		}
		var got uint64
		for _, v := range r.CycleAttribution {
			got += v
		}
		if got != r.CoreCycles {
			t.Errorf("record %s/%s: attribution sums to %d, want CoreCycles %d",
				r.Config, r.Workload, got, r.CoreCycles)
		}
		if r.CoreCycles == 0 || r.Instructions == 0 {
			t.Errorf("record %s/%s: empty measurement: %+v", r.Config, r.Workload, r)
		}
		if len(r.EnergyJ) == 0 {
			t.Errorf("record %s/%s: no energy summary", r.Config, r.Workload)
		}
	}
	if o.Metrics.Counter("sim.cpu.runs_total").Value() != uint64(len(recs)) {
		t.Error("runs_total counter disagrees with record count")
	}

	var buf bytes.Buffer
	if err := o.Trace.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	if len(tf.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
	phases := map[string]bool{}
	for _, ev := range tf.TraceEvents {
		ph, _ := ev["ph"].(string)
		phases[ph] = true
		if _, ok := ev["name"].(string); !ok {
			t.Fatalf("trace event without name: %v", ev)
		}
	}
	for _, want := range []string{"M", "X", "C"} {
		if !phases[want] {
			t.Errorf("trace has no %q events (got phases %v)", want, phases)
		}
	}
}

// TestObsDisabledIsNoop: with a nil observer the experiment must behave
// exactly as before the observability layer existed.
func TestObsDisabledIsNoop(t *testing.T) {
	e, err := ByID("cycles")
	if err != nil {
		t.Fatal(err)
	}
	tab, err := e.Run(smallOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != len(cyclesConfigs) {
		t.Fatalf("cycles table has %d rows, want %d", len(tab.Rows), len(cyclesConfigs))
	}
	// Each row's fractions must sum to 1 (the sum invariant, surfaced).
	for _, r := range tab.Rows {
		var sum float64
		for _, v := range r.Values {
			sum += v
		}
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("%s: attribution fractions sum to %v, want 1", r.Label, sum)
		}
	}
}

// TestGPUCyclesTable checks the GPU attribution experiment end to end.
func TestGPUCyclesTable(t *testing.T) {
	e, err := ByID("gpucycles")
	if err != nil {
		t.Fatal(err)
	}
	tab, err := e.Run(smallOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tab.Rows {
		var sum float64
		for _, v := range r.Values {
			sum += v
		}
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("%s: attribution fractions sum to %v, want 1", r.Label, sum)
		}
	}
	// BaseTFET (slow RF, no cache at halved clock... the BaseHet point
	// keeps the 2-cycle RF) must show more RF conflict than BaseCMOS.
	cmos, err := tab.Cell("BaseCMOS", "rf_conflict")
	if err != nil {
		t.Fatal(err)
	}
	het, err := tab.Cell("BaseHet", "rf_conflict")
	if err != nil {
		t.Fatal(err)
	}
	if het < cmos {
		t.Errorf("BaseHet rf_conflict %v < BaseCMOS %v", het, cmos)
	}
}
