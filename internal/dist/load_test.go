package dist

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"hetcore/internal/engine"
	"hetcore/internal/obs"
)

// TestRunLoadClosedLoop: a short closed-loop run against a live daemon
// yields a well-formed record — schema, throughput, ordered quantiles,
// no errors, and a cache-hit stream dominated by the warmed keys.
func TestRunLoadClosedLoop(t *testing.T) {
	d := startDaemon(t, DaemonConfig{Jobs: 2})
	rec, err := RunLoad(LoadConfig{
		Addr: d.Addr(), Duration: 300 * time.Millisecond,
		Concurrency: 4, ColdFraction: 0.25, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Schema != LoadSchemaVersion {
		t.Errorf("schema = %q, want %q", rec.Schema, LoadSchemaVersion)
	}
	if rec.Mode != "closed" || rec.Concurrency != 4 {
		t.Errorf("mode/concurrency = %s/%d, want closed/4", rec.Mode, rec.Concurrency)
	}
	if rec.Requests == 0 || rec.RequestsPerSec <= 0 {
		t.Fatalf("no requests measured: %+v", rec)
	}
	if rec.Errors != 0 {
		t.Errorf("errors = %d, want 0 against a healthy daemon", rec.Errors)
	}
	if !(rec.LatencyP50MS > 0 && rec.LatencyP50MS <= rec.LatencyP95MS &&
		rec.LatencyP95MS <= rec.LatencyP99MS) {
		t.Errorf("quantiles not ordered: p50=%f p95=%f p99=%f",
			rec.LatencyP50MS, rec.LatencyP95MS, rec.LatencyP99MS)
	}
	if rec.CacheHits == 0 {
		t.Error("no cache hits despite warmed hot keys")
	}
	if rec.ColdJobs == 0 {
		t.Error("no cold jobs despite cold fraction 0.25")
	}
	if rec.CacheHits+rec.ColdJobs > rec.Requests {
		t.Errorf("accounting: hits(%d) + cold(%d) > requests(%d)",
			rec.CacheHits, rec.ColdJobs, rec.Requests)
	}
}

// TestRunLoadOpenLoop: open-loop mode paces arrivals at the target rate
// and reports the mode and target in the record.
func TestRunLoadOpenLoop(t *testing.T) {
	d := startDaemon(t, DaemonConfig{Jobs: 2})
	rec, err := RunLoad(LoadConfig{
		Addr: d.Addr(), Duration: 400 * time.Millisecond,
		Concurrency: 4, RatePerSec: 200, ColdFraction: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Mode != "open" || rec.RatePerSec != 200 {
		t.Errorf("mode/rate = %s/%g, want open/200", rec.Mode, rec.RatePerSec)
	}
	if rec.Requests == 0 {
		t.Fatal("no requests measured")
	}
	// Arrivals are paced: issued + shed can never exceed the schedule.
	budget := uint64(200 * 0.4 * 1.5) // generous slack for timer jitter
	if rec.Requests+rec.Shed > budget {
		t.Errorf("requests(%d) + shed(%d) exceed the arrival schedule (~%d)",
			rec.Requests, rec.Shed, budget)
	}
	if rec.ColdJobs != 0 {
		t.Errorf("cold jobs = %d with cold fraction 0", rec.ColdJobs)
	}
}

// TestRunLoadZeroColdFraction: a LoadConfig that leaves ColdFraction
// at zero sends no cold keys; the 0.1 default belongs to the CLI flag.
func TestRunLoadZeroColdFraction(t *testing.T) {
	d := startDaemon(t, DaemonConfig{Jobs: 1})
	rec, err := RunLoad(LoadConfig{Addr: d.Addr(), Duration: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Requests == 0 || rec.Errors != 0 {
		t.Fatalf("want requests and no errors: %+v", rec)
	}
	if rec.ColdFraction != 0 || rec.ColdJobs != 0 || rec.CacheHits != rec.Requests {
		t.Errorf("zero ColdFraction: cold fraction %g, %d cold jobs, %d of %d requests hit",
			rec.ColdFraction, rec.ColdJobs, rec.CacheHits, rec.Requests)
	}
}

// TestDoOneTimesFromDue: a request sent 50 ms after it fell due, to a
// server that answers at once, records the 50 ms it waited to be sent
// (no coordinated omission).
func TestDoOneTimesFromDue(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(JobResponse{Stamp: Stamp()})
	}))
	defer srv.Close()
	g := &loadGen{base: srv.URL, jobs: &jobClient{http: srv.Client()}, reg: obs.NewRegistry()}
	g.doOne(engine.Key{Device: "trace"}, time.Now().Add(-50*time.Millisecond))
	h := g.reg.Snapshot().Histograms["load.latency_ms"]
	if h.Count != 1 || h.Sum < 50 {
		t.Errorf("recorded %d request(s) taking %.3f ms, want 1 taking >= 50 ms", h.Count, h.Sum)
	}
	if g.errs.Load() != 0 {
		t.Errorf("%d errors against a healthy server", g.errs.Load())
	}
}

// TestRunLoadFailures: unreachable daemons and bad configs are errors,
// not records.
func TestRunLoadFailures(t *testing.T) {
	if _, err := RunLoad(LoadConfig{}); err == nil {
		t.Error("RunLoad without an address succeeded")
	}
	if _, err := RunLoad(LoadConfig{Addr: "127.0.0.1:1", Timeout: time.Second,
		Duration: 50 * time.Millisecond}); err == nil {
		t.Error("RunLoad against a dead port succeeded")
	}
	d := startDaemon(t, DaemonConfig{Jobs: 1})
	if _, err := RunLoad(LoadConfig{Addr: d.Addr(), Workload: "no-such-workload",
		Duration: 50 * time.Millisecond}); err == nil {
		t.Error("RunLoad with an unknown workload succeeded")
	}
}

// TestRunLoadColdKeysStayCold: a second run against the same daemon
// mints cold keys of its own, so no cold request of either run is a
// cache hit.
func TestRunLoadColdKeysStayCold(t *testing.T) {
	d := startDaemon(t, DaemonConfig{Jobs: 2})
	for run := 1; run <= 2; run++ {
		rec, err := RunLoad(LoadConfig{
			Addr: d.Addr(), Duration: 200 * time.Millisecond,
			Concurrency: 2, ColdFraction: 1, Seed: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		if rec.ColdJobs == 0 || rec.Errors != 0 {
			t.Fatalf("run %d: %d cold jobs, %d errors", run, rec.ColdJobs, rec.Errors)
		}
		if rec.CacheHits != 0 {
			t.Errorf("run %d: %d of %d cold requests hit the daemon's cache",
				run, rec.CacheHits, rec.Requests)
		}
	}
}

// TestRunLoadOpenLoopKeepsEveryArrival: against a server slower than
// the arrival rate, every scheduled arrival is either sent or shed,
// none lost, even when the arrival loop falls behind.
func TestRunLoadOpenLoopKeepsEveryArrival(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case PathHealth:
			json.NewEncoder(w).Encode(HealthResponse{OK: true, Stamp: Stamp()})
		case PathJobs:
			time.Sleep(20 * time.Millisecond)
			json.NewEncoder(w).Encode(JobResponse{Stamp: Stamp()})
		default:
			http.NotFound(w, r)
		}
	}))
	defer srv.Close()

	const rate, window = 20000, 200 * time.Millisecond
	rec, err := RunLoad(LoadConfig{
		Addr: srv.URL, Duration: window, Concurrency: 2,
		RatePerSec: rate, ColdFraction: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Arrival i is due at i/rate for every i/rate < window.
	const arrivals = rate * 200 / 1000
	if rec.Requests+rec.Shed != arrivals {
		t.Errorf("requests(%d) + shed(%d) = %d, want the %d scheduled arrivals",
			rec.Requests, rec.Shed, rec.Requests+rec.Shed, arrivals)
	}
	if rec.Requests == 0 || rec.Shed == 0 || rec.Errors != 0 {
		t.Errorf("want some sent, some shed and no errors: %+v", rec)
	}
}
