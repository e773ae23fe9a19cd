package dist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"hetcore/internal/engine"
	"hetcore/internal/obs"
)

// TestFleetTraceStructure: a run against a live daemon produces one
// merged Chrome trace with a client slice per remote job plus a
// per-worker server span broken into queue/cache/execute/encode phases.
// Wall-clock values vary run to run, so the test golden-checks the
// trace's *structure* — event counts per category, span nesting, track
// metadata — which must be deterministic.
func TestFleetTraceStructure(t *testing.T) {
	d := startDaemon(t, DaemonConfig{Jobs: 2})

	o := &obs.Observer{Metrics: obs.NewRegistry(), Trace: obs.NewTraceWriter()}
	p, err := NewPool([]string{d.Addr()}, o)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(2, o)
	eng.SetExecutor(p)

	keys := []engine.Key{
		traceKey("barnes", 0), traceKey("barnes", 1),
		traceKey("fmm", 0), traceKey("lu", 1),
	}
	for _, k := range keys {
		fn, ok := Resolve(k, nil)
		if !ok {
			t.Fatalf("key %s unresolvable", k)
		}
		if _, err := eng.Do(k, fn); err != nil {
			t.Fatal(err)
		}
	}
	if got := p.o.Reg().Snapshot().Counters["dist.remote_jobs"]; got != uint64(len(keys)) {
		t.Fatalf("remote_jobs = %d, want %d (all jobs must run remotely)", got, len(keys))
	}

	var buf bytes.Buffer
	if err := o.Trace.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []obs.TraceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatal(err)
	}

	var clients, servers []obs.TraceEvent
	phases := map[string]int{}
	workerTracks := 0
	spans := map[string]bool{}
	for _, e := range tf.TraceEvents {
		switch {
		case e.Phase == "X" && e.Cat == "dist":
			clients = append(clients, e)
			if e.Args["trace"] != p.jobs.traceID {
				t.Errorf("client slice trace arg = %v, want %s", e.Args["trace"], p.jobs.traceID)
			}
			if s, _ := e.Args["span"].(string); s == "" {
				t.Error("client slice has no span arg")
			} else if spans[s] {
				t.Errorf("span %s reused across jobs", s)
			} else {
				spans[s] = true
			}
		case e.Phase == "X" && e.Cat == "dist.server":
			servers = append(servers, e)
		case e.Phase == "X" && e.Cat == "dist.server.phase":
			phases[e.Name]++
		case e.Phase == "M" && e.Name == "process_name":
			if n, _ := e.Args["name"].(string); strings.HasPrefix(n, "hetserved ") {
				workerTracks++
			}
		}
	}

	// The structural golden: counts per category must be exactly
	// determined by the number of remote jobs and workers.
	got := fmt.Sprintf("client=%d server=%d queue=%d cache=%d execute=%d encode=%d worker_tracks=%d",
		len(clients), len(servers), phases["queue"], phases["cache"],
		phases["execute"], phases["encode"], workerTracks)
	want := fmt.Sprintf("client=%d server=%d queue=%d cache=%d execute=%d encode=%d worker_tracks=1",
		len(keys), len(keys), len(keys), len(keys), len(keys), len(keys))
	if got != want {
		t.Errorf("trace structure:\n got %s\nwant %s", got, want)
	}

	// Server spans live on their own process track, nested inside the
	// client window; each phase slice nests inside some server span on
	// the same pid/tid.
	const eps = 1e-6
	clientPID := clients[0].PID
	for _, s := range servers {
		if s.PID == clientPID {
			t.Errorf("server span %q on client pid %d, want its own worker track", s.Name, s.PID)
		}
	}
	for _, e := range tf.TraceEvents {
		if e.Cat != "dist.server.phase" {
			continue
		}
		ok := false
		for _, s := range servers {
			if s.PID == e.PID && s.TID == e.TID &&
				e.TS >= s.TS-eps && e.TS+e.Dur <= s.TS+s.Dur+eps {
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("phase %q [%f +%f] not nested in any server span", e.Name, e.TS, e.Dur)
		}
	}
}

// TestDaemonObservabilityEndpoints hammers every endpoint from many
// goroutines (run with -race) and then checks the fleet stats add up:
// per-endpoint request counts, per-status error counts (400/405/422
// each increment their own counter), the Prometheus exposition and the
// structured request log.
func TestDaemonObservabilityEndpoints(t *testing.T) {
	d := startDaemon(t, DaemonConfig{Jobs: 4})
	base := "http://" + d.Addr()
	client := &http.Client{Timeout: 30 * time.Second}

	get := func(path string) (int, []byte) {
		resp, err := client.Get(base + path)
		if err != nil {
			t.Error(err)
			return 0, nil
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, b
	}
	post := func(body string) int {
		resp, err := client.Post(base+PathJobs, "application/json", strings.NewReader(body))
		if err != nil {
			t.Error(err)
			return 0
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	const goroutines, iters = 8, 4
	validReq, _ := json.Marshal(JobRequest{Key: traceKey("barnes", 0)})
	unresolvableReq, _ := json.Marshal(JobRequest{Key: engine.Key{
		Device: "cpu", Config: "AdvHet", Workload: "barnes", Seed: 1, Variant: "sweep:x"}})

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if s := post(string(validReq)); s != http.StatusOK {
					t.Errorf("valid job: HTTP %d", s)
				}
				if s := post(`{"key": {`); s != http.StatusBadRequest {
					t.Errorf("malformed job: HTTP %d, want 400", s)
				}
				if s, _ := get(PathJobs); s != http.StatusMethodNotAllowed {
					t.Errorf("GET jobs: HTTP %d, want 405", s)
				}
				if s := post(string(unresolvableReq)); s != http.StatusUnprocessableEntity {
					t.Errorf("unresolvable job: HTTP %d, want 422", s)
				}
				if s, _ := get(PathHealth); s != http.StatusOK {
					t.Errorf("health: HTTP %d", s)
				}
				if s, _ := get(PathStats); s != http.StatusOK {
					t.Errorf("stats: HTTP %d", s)
				}
			}
		}()
	}
	wg.Wait()

	perKind := uint64(goroutines * iters)
	status, body := get(PathStats)
	if status != http.StatusOK {
		t.Fatalf("stats: HTTP %d", status)
	}
	var st StatsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("stats payload: %v\n%s", err, body)
	}
	if st.Stamp != Stamp() {
		t.Errorf("stats stamp = %q, want %q", st.Stamp, Stamp())
	}
	if st.ErrorsByStatus["400"] != perKind || st.ErrorsByStatus["405"] != perKind ||
		st.ErrorsByStatus["422"] != perKind {
		t.Errorf("errors_by_status = %v, want %d each for 400/405/422", st.ErrorsByStatus, perKind)
	}
	jobs := st.Endpoints["jobs"]
	if jobs.Requests != 4*perKind {
		t.Errorf("jobs requests = %d, want %d", jobs.Requests, 4*perKind)
	}
	if jobs.Errors != 3*perKind {
		t.Errorf("jobs errors = %d, want %d", jobs.Errors, 3*perKind)
	}
	if jobs.LatencyP99MS < jobs.LatencyP50MS || jobs.LatencyP50MS <= 0 {
		t.Errorf("jobs latency quantiles p50=%f p99=%f, want 0 < p50 <= p99",
			jobs.LatencyP50MS, jobs.LatencyP99MS)
	}
	if st.Endpoints["health"].Requests != perKind {
		t.Errorf("health requests = %d, want %d", st.Endpoints["health"].Requests, perKind)
	}
	if st.Endpoints["stats"].Requests != perKind {
		t.Errorf("stats requests = %d, want %d", st.Endpoints["stats"].Requests, perKind)
	}
	// One valid key posted repeatedly: 1 run, the rest memory hits.
	if st.JobsRun != 1 {
		t.Errorf("jobs_run = %d, want 1 (same key every time)", st.JobsRun)
	}
	if st.Workers != 4 {
		t.Errorf("workers = %d, want 4", st.Workers)
	}

	// Prometheus exposition carries the per-endpoint instruments.
	status, prom := get("/metrics")
	if status != http.StatusOK {
		t.Fatalf("/metrics: HTTP %d", status)
	}
	for _, want := range []string{
		"hetcore_server_requests_jobs",
		"hetcore_server_latency_ms_jobs_bucket",
		"hetcore_server_errors_400",
		"hetcore_server_queue_depth",
	} {
		if !strings.Contains(string(prom), want) {
			t.Errorf("/metrics missing %s", want)
		}
	}

	// The structured request log saw every call (the final stats GET may
	// or may not have landed yet).
	status, evBody := get("/events")
	if status != http.StatusOK {
		t.Fatalf("/events: HTTP %d", status)
	}
	var ev struct {
		Total  uint64      `json:"total"`
		Events []obs.Event `json:"events"`
	}
	if err := json.Unmarshal(evBody, &ev); err != nil {
		t.Fatalf("events payload: %v", err)
	}
	if ev.Total < 6*perKind {
		t.Errorf("events total = %d, want >= %d (one per request)", ev.Total, 6*perKind)
	}
	saw400 := false
	for _, e := range ev.Events {
		if e.Cat != "http" {
			continue
		}
		if e.Args["status"] == 400 {
			saw400 = true
		}
	}
	if !saw400 {
		t.Error("request log has no status-400 event")
	}
}
