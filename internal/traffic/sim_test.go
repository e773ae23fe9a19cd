package traffic

import (
	"reflect"
	"testing"

	"hetcore/internal/obs"
	"hetcore/internal/soc"
)

// testServices measures the full mix once at the quick budget; the
// component runs are pure, so sharing across tests is safe.
var testServices []Service

func servicesForTest(t *testing.T) []Service {
	t.Helper()
	if testServices == nil {
		s, err := MeasureServices(MixWorkloads(), 1, 60_000)
		if err != nil {
			t.Fatal(err)
		}
		testServices = s
	}
	return testServices
}

func simOpts(t *testing.T, mix, policy string) SimOptions {
	t.Helper()
	cfg, err := soc.ParseConfig(mix)
	if err != nil {
		t.Fatal(err)
	}
	p, err := PolicyByName(policy)
	if err != nil {
		t.Fatal(err)
	}
	return SimOptions{SoC: cfg, Policy: p, Trace: Diurnal(), Services: servicesForTest(t), Seed: 1}
}

func TestSimulateConservation(t *testing.T) {
	res, err := Simulate(simOpts(t, "c4t4g0", "util"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed+res.Unserved != res.Requests {
		t.Errorf("requests=%d but completed=%d + unserved=%d", res.Requests, res.Completed, res.Unserved)
	}
	if res.Requests == 0 {
		t.Fatal("the diurnal trace offers requests")
	}
	if res.P50Sec > res.P99Sec || res.P99Sec > res.MaxSec {
		t.Errorf("latency quantiles out of order: p50=%v p99=%v max=%v", res.P50Sec, res.P99Sec, res.MaxSec)
	}
	if res.EnergyPerReqJ <= 0 || res.DynJ <= 0 || res.LeakJ <= 0 {
		t.Errorf("energy accounting empty: dyn=%v leak=%v epr=%v", res.DynJ, res.LeakJ, res.EnergyPerReqJ)
	}
	if res.SimSec < Diurnal().DurationSec() {
		t.Errorf("sim time %v shorter than the trace %v", res.SimSec, Diurnal().DurationSec())
	}
	if got := res.TotalEnergyJ(); got != res.DynJ+res.LeakJ {
		t.Errorf("TotalEnergyJ %v != dyn+leak %v", got, res.DynJ+res.LeakJ)
	}
}

// Equal options must produce a bit-identical Result: the engine caches
// traffic runs by key and CI byte-compares warm reruns.
func TestSimulateDeterministic(t *testing.T) {
	a, err := Simulate(simOpts(t, "c4t4g0", "cacheaware"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(simOpts(t, "c4t4g0", "cacheaware"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same options, different results:\n%+v\n%+v", a, b)
	}
}

// The ablation's pinned verdict (the issue's acceptance criterion): on
// the default diurnal trace the cache-aware policy serves every request
// at strictly lower energy-per-request than provisioning-for-peak, at
// equal-or-better SLO compliance.
func TestCacheAwareBeatsNaive(t *testing.T) {
	naive, err := Simulate(simOpts(t, "c4t4g0", "naive"))
	if err != nil {
		t.Fatal(err)
	}
	aware, err := Simulate(simOpts(t, "c4t4g0", "cacheaware"))
	if err != nil {
		t.Fatal(err)
	}
	if aware.EnergyPerReqJ >= naive.EnergyPerReqJ {
		t.Errorf("cacheaware energy/request %.6g J is not strictly below naive %.6g J",
			aware.EnergyPerReqJ, naive.EnergyPerReqJ)
	}
	if aware.SLOViolations > naive.SLOViolations {
		t.Errorf("cacheaware violated the SLO %d times, naive %d — compliance regressed",
			aware.SLOViolations, naive.SLOViolations)
	}
}

// A hard power budget caps the awake fleet (and therefore average power).
func TestSimulateBudget(t *testing.T) {
	free, err := Simulate(simOpts(t, "c4t4g0", "naive"))
	if err != nil {
		t.Fatal(err)
	}
	o := simOpts(t, "c4t4g0", "naive")
	o.BudgetW = free.AvgWatts * 0.5
	capped, err := Simulate(o)
	if err != nil {
		t.Fatal(err)
	}
	if capped.AvgAwakeCMOS+capped.AvgAwakeTFET >= free.AvgAwakeCMOS+free.AvgAwakeTFET {
		t.Errorf("budget %.3f W did not shrink the awake fleet: %.1f vs %.1f cores",
			o.BudgetW, capped.AvgAwakeCMOS+capped.AvgAwakeTFET, free.AvgAwakeCMOS+free.AvgAwakeTFET)
	}
}

func TestSimulateObservability(t *testing.T) {
	o := simOpts(t, "c4t4g0", "cacheaware")
	o.Obs = &obs.Observer{
		Metrics: obs.NewRegistry(),
		Series:  obs.NewSeriesSet(0),
		Events:  obs.NewEventLog(0),
	}
	res, err := Simulate(o)
	if err != nil {
		t.Fatal(err)
	}
	if got := o.Obs.Reg().Counter("traffic.requests_total").Value(); got != res.Requests {
		t.Errorf("requests_total counter %d != result %d", got, res.Requests)
	}
	for _, name := range []string{"traffic.rps", "traffic.awake_cmos", "traffic.awake_tfet",
		"traffic.watts", "traffic.p99_ms", "traffic.freq_ghz", "traffic.queue"} {
		if n := o.Obs.TimeSeries().Series(name).Len(); n < res.Epochs {
			t.Errorf("series %s has %d points, want >= %d epochs", name, n, res.Epochs)
		}
	}
	if o.Obs.EventSink().Total() == 0 {
		t.Error("cacheaware wake/sleep decisions should emit events")
	}
}

func TestSimulateErrors(t *testing.T) {
	o := simOpts(t, "c4t4g0", "naive")
	o.Services = nil
	if _, err := Simulate(o); err == nil {
		t.Error("empty mix should fail")
	}
	o = simOpts(t, "c4t4g0", "naive")
	o.Policy = nil
	if _, err := Simulate(o); err == nil {
		t.Error("nil policy should fail")
	}
	o = simOpts(t, "c4t4g0", "naive")
	o.SoC = soc.Config{GPUCUs: 4}
	if _, err := Simulate(o); err == nil {
		t.Error("a coreless mix cannot serve requests")
	}
}
