package dist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"hetcore/internal/engine"
	"hetcore/internal/hetsim"
	"hetcore/internal/obs"
	"hetcore/internal/trace"
)

// cpuKey is a small, cheap stock CPU job used throughout the tests.
func cpuKey() engine.Key {
	return engine.Key{Device: "cpu", Config: "BaseCMOS", Workload: "barnes",
		Seed: 1, Instr: 20_000}
}

// traceKey is the cheapest resolvable job kind — ideal for hammers.
func traceKey(workload string, core int) engine.Key {
	return engine.Key{Device: "trace", Config: "stats", Workload: workload,
		Seed: 1, Instr: 2_000, Variant: fmt.Sprintf("core=%d", core)}
}

// runKey resolves and executes a key locally (test helper).
func runKey(t *testing.T, k engine.Key) any {
	t.Helper()
	fn, ok := Resolve(k, nil)
	if !ok {
		t.Fatalf("key %s unexpectedly unresolvable", k)
	}
	v, err := fn()
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestCodecRoundTrip: every registered result type must decode back to a
// deeply equal value — the property the byte-identical-output contract
// rests on.
func TestCodecRoundTrip(t *testing.T) {
	vals := []any{
		runKey(t, cpuKey()),
		runKey(t, engine.Key{Device: "gpu", Config: "BaseCMOS", Workload: "Reduction", Seed: 1}),
		runKey(t, engine.Key{Device: "cmp", Config: "HeteroCMP", Workload: "barnes", Seed: 1, Instr: 20_000}),
		runKey(t, traceKey("barnes", 0)),
	}
	for _, v := range vals {
		name, data, err := EncodeResult(v)
		if err != nil {
			t.Fatalf("%T: %v", v, err)
		}
		back, err := DecodeResult(name, data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(v, back) {
			t.Errorf("%s does not round-trip:\n got %+v\nwant %+v", name, back, v)
		}
	}
	// Unregistered types are errors, not panics.
	if _, _, err := EncodeResult(42); err == nil {
		t.Error("EncodeResult(int) succeeded, want error")
	}
	if _, err := DecodeResult("no.SuchType", []byte("{}")); err == nil {
		t.Error("DecodeResult of unknown type succeeded, want error")
	}
}

// TestDiskCache: put/get round-trip, persistence across reopen, and the
// robustness contract — corrupt, stale and mismatched entries are
// misses, never errors.
func TestDiskCache(t *testing.T) {
	dir := t.TempDir()
	o := &obs.Observer{Metrics: obs.NewRegistry()}
	c, err := OpenCache(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	k := cpuKey()
	if _, ok := c.Get(k); ok {
		t.Fatal("empty cache reported a hit")
	}
	want := runKey(t, k).(hetsim.CPUResult)
	c.Put(k, want)
	got, ok := c.Get(k)
	if !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("Get after Put = %+v, %v", got, ok)
	}

	// Persistence: a fresh DiskCache over the same dir serves the entry.
	c2, err := OpenCache(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := c2.Get(k); !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened cache Get = %+v, %v", got, ok)
	}

	path := c.path(k)

	// Corrupt entry (a torn header): miss, then recoverable by Put.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	stamp, _, _, payload, err := splitEntry(raw)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(stamp)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(k); ok {
		t.Error("corrupt entry reported a hit")
	}
	c.Put(k, want)
	if _, ok := c.Get(k); !ok {
		t.Error("cache did not recover after overwriting a corrupt entry")
	}

	// Each of these rewrites of the entry is a miss.
	for _, tc := range []struct {
		name, stamp, key, typ string
		payload               []byte
	}{
		{"stale-stamped", "hetcore.dist/v0+000000000000", k.String(), "hetsim.CPUResult", payload},
		// A copied or hash-colliding file.
		{"key-mismatched", Stamp(), "cpu/OtherConfig/barnes/s1/i20000", "hetsim.CPUResult", payload},
		{"foreign-typed", Stamp(), k.String(), "no.SuchType", payload},
		{"truncated-payload", Stamp(), k.String(), "hetsim.CPUResult", payload[:len(payload)-1]},
		{"trailing-bytes", Stamp(), k.String(), "hetsim.CPUResult", append(payload[:len(payload):len(payload)], 0)},
	} {
		ent := append(appendEntryHeader(nil, tc.stamp, tc.key, tc.typ), tc.payload...)
		if err := os.WriteFile(path, ent, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := c.Get(k); ok {
			t.Errorf("%s entry reported a hit", tc.name)
		}
	}

	// A v6 entry (the JSON envelope this format replaced) at the key's
	// path is a counted miss, and the next Put overwrites it.
	before := o.Reg().Snapshot().Counters
	v6 := `{"stamp":"hetcore.dist/v6+` + DeviceTableHash() + `","key":"` + k.String() +
		`","type":"hetsim.CPUResult","result":{"Config":"BaseCMOS","Cores":4}}`
	if err := os.WriteFile(path, []byte(v6), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(k); ok {
		t.Error("v6 JSON entry reported a hit")
	}
	after := o.Reg().Snapshot().Counters
	if after["dist.cache_disk_corrupt"]+after["dist.cache_disk_stale"] !=
		before["dist.cache_disk_corrupt"]+before["dist.cache_disk_stale"]+1 {
		t.Errorf("v6 JSON entry not counted as one corrupt or stale miss: %v -> %v", before, after)
	}
	c.Put(k, want)
	if got, ok := c.Get(k); !ok || !reflect.DeepEqual(got, want) {
		t.Errorf("Put did not overwrite the v6 entry: Get = %+v, %v", got, ok)
	}

	snap := o.Reg().Snapshot()
	if snap.Counters["dist.cache_disk_corrupt"] == 0 || snap.Counters["dist.cache_disk_stale"] == 0 {
		t.Errorf("robustness counters not maintained: %v", snap.Counters)
	}
	// No stray temp files.
	matches, _ := filepath.Glob(filepath.Join(dir, "*", "*.tmp"))
	if len(matches) != 0 {
		t.Errorf("temp files left behind: %v", matches)
	}
}

// TestResolveEquivalence: a resolved job computes exactly what the
// in-process simulation computes, and variant keys never resolve.
func TestResolveEquivalence(t *testing.T) {
	k := cpuKey()
	cfg, err := hetsim.CPUConfigByName(k.Config)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := trace.CPUWorkload(k.Workload)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := hetsim.RunCPU(cfg, prof, hetsim.RunOpts{TotalInstructions: k.Instr, Seed: k.Seed})
	if err != nil {
		t.Fatal(err)
	}
	if got := runKey(t, k); !reflect.DeepEqual(got, direct) {
		t.Errorf("resolved job != direct run:\n got %+v\nwant %+v", got, direct)
	}

	for _, k := range []engine.Key{
		{Device: "cpu", Config: "AdvHet", Workload: "barnes", Seed: 1, Variant: "sweep:window=8"},
		{Device: "gpu", Config: "AdvHet", Workload: "Reduction", Seed: 1, Variant: "sweep:waves=2"},
		{Device: "cpu", Config: "NoSuchConfig", Workload: "barnes", Seed: 1},
		{Device: "cpu", Config: "AdvHet", Workload: "no-such-workload", Seed: 1},
		{Device: "trace", Config: "stats", Workload: "barnes", Seed: 1, Variant: "not-a-core"},
		{Device: "warp", Config: "x", Workload: "y", Seed: 1},
	} {
		if Resolvable(k) {
			t.Errorf("key %s resolvable, want not", k)
		}
	}
}

// startDaemon spins up a daemon on an ephemeral port.
func startDaemon(t *testing.T, cfg DaemonConfig) *Daemon {
	t.Helper()
	d, err := NewDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

// TestMain keeps retry delays negligible and the pool's log quiet.
func TestMain(m *testing.M) {
	retryBackoff = time.Millisecond
	logf = func(string, ...any) {}
	os.Exit(m.Run())
}

// TestDaemonHTTP covers the wire protocol's failure surface directly.
func TestDaemonHTTP(t *testing.T) {
	d := startDaemon(t, DaemonConfig{Jobs: 2})
	base := "http://" + d.Addr()

	post := func(body string) (*http.Response, []byte) {
		resp, err := http.Post(base+PathJobs, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body) //nolint:errcheck
		return resp, buf.Bytes()
	}

	// Malformed JSON: 400 with a JSON error body.
	resp, body := post(`{"key": {`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed request: HTTP %d, want 400", resp.StatusCode)
	}
	var we wireError
	if err := json.Unmarshal(body, &we); err != nil || we.Error == "" {
		t.Errorf("malformed request error body = %q, %v", body, err)
	}

	// Structurally valid but unresolvable key: 422, no retry signal.
	req, _ := json.Marshal(JobRequest{Key: engine.Key{Device: "cpu", Config: "AdvHet",
		Workload: "barnes", Seed: 1, Variant: "sweep:x"}})
	if resp, _ := post(string(req)); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("variant key: HTTP %d, want 422", resp.StatusCode)
	}

	// Non-POST: 405.
	getResp, err := http.Get(base + PathJobs)
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/jobs: HTTP %d, want 405", getResp.StatusCode)
	}

	// A real job: 200 with a decodable result and the daemon's stamp.
	req, _ = json.Marshal(JobRequest{Key: traceKey("barnes", 0)})
	resp, body = post(string(req))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("job: HTTP %d: %s", resp.StatusCode, body)
	}
	var jr JobResponse
	if err := json.Unmarshal(body, &jr); err != nil {
		t.Fatal(err)
	}
	if jr.Stamp != Stamp() || jr.Error != "" {
		t.Errorf("job response stamp=%q error=%q", jr.Stamp, jr.Error)
	}
	val, err := DecodeResult(jr.Type, jr.Result)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(val, runKey(t, traceKey("barnes", 0))) {
		t.Error("daemon result differs from local execution")
	}

	// The same job again is a daemon-side cache hit.
	if _, body := post(string(req)); !strings.Contains(string(body), `"cache_hit":true`) {
		t.Errorf("repeated job not served from daemon cache: %s", body)
	}

	// Health.
	hresp, err := http.Get(base + PathHealth)
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var h HealthResponse
	if err := json.NewDecoder(hresp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if !h.OK || h.Stamp != Stamp() || h.JobsRun != 1 {
		t.Errorf("health = %+v", h)
	}

	// The obs endpoints ride on the same listener.
	mresp, err := http.Get(base + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		t.Errorf("/metrics.json: HTTP %d", mresp.StatusCode)
	}
}

// TestPoolAgainstDaemon: remote execution through the Pool yields the
// same value as local execution, and the engine books it as a remote
// job, not a local run.
func TestPoolAgainstDaemon(t *testing.T) {
	d := startDaemon(t, DaemonConfig{Jobs: 2})
	p, err := NewPool([]string{d.Addr()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.Healthy() != 1 {
		t.Fatalf("Healthy = %d, want 1", p.Healthy())
	}
	// RunAll sizes its workers by this: one worker's default slots.
	if p.Capacity() != 4 {
		t.Errorf("Capacity = %d, want 4", p.Capacity())
	}

	e := engine.New(2, nil)
	e.SetExecutor(p)
	k := traceKey("radix", 0)
	got, err := e.Do(k, func() (any, error) {
		return nil, fmt.Errorf("must not run locally")
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, runKey(t, k)) {
		t.Error("remote result differs from local execution")
	}
	if e.RemoteJobs() != 1 || e.JobsRun() != 0 {
		t.Errorf("RemoteJobs=%d JobsRun=%d, want 1/0", e.RemoteJobs(), e.JobsRun())
	}

	// Variant keys are declined client-side and run locally.
	kv := engine.Key{Device: "cpu", Config: "AdvHet", Workload: "barnes",
		Seed: 1, Variant: "sweep:x"}
	if v, err := e.Do(kv, func() (any, error) { return "local", nil }); err != nil || v.(string) != "local" {
		t.Fatalf("variant Do = %v, %v", v, err)
	}
	if e.JobsRun() != 1 {
		t.Errorf("JobsRun = %d, want 1 (variant ran locally)", e.JobsRun())
	}
}

// TestPoolFallbackOnDeadDaemon: killing the daemon mid-fleet makes the
// pool retry, evict the worker and decline, so the engine runs the job
// locally — the dead-fleet degradation contract.
func TestPoolFallbackOnDeadDaemon(t *testing.T) {
	d := startDaemon(t, DaemonConfig{Jobs: 1})
	p, err := NewPool([]string{d.Addr()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	e := engine.New(1, nil)
	e.SetExecutor(p)
	v, err := e.Do(traceKey("barnes", 1), func() (any, error) { return "local", nil })
	if err != nil || v.(string) != "local" {
		t.Fatalf("Do with dead daemon = %v, %v; want local fallback", v, err)
	}
	if e.JobsRun() != 1 || e.RemoteJobs() != 0 {
		t.Errorf("JobsRun=%d RemoteJobs=%d, want 1/0", e.JobsRun(), e.RemoteJobs())
	}
	if p.Healthy() != 0 {
		t.Errorf("dead worker not evicted: Healthy = %d", p.Healthy())
	}
	// Subsequent jobs skip the dead worker without burning retries.
	if v, err := e.Do(traceKey("barnes", 2), func() (any, error) { return "local2", nil }); err != nil || v.(string) != "local2" {
		t.Fatalf("second Do = %v, %v", v, err)
	}
}

// TestPoolTruncatedResponse: a worker that returns garbage bytes (but
// stays healthy) triggers retries; when every attempt fails the pool
// declines and the job runs locally.
func TestPoolTruncatedResponse(t *testing.T) {
	health, _ := json.Marshal(HealthResponse{OK: true, Stamp: Stamp()})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == PathHealth {
			w.Write(health) //nolint:errcheck
			return
		}
		// Truncated JSON body with a 200 status.
		w.Write([]byte(`{"key": "x", "stamp": "`)) //nolint:errcheck
	}))
	defer srv.Close()

	o := &obs.Observer{Metrics: obs.NewRegistry()}
	p, err := NewPool([]string{srv.Listener.Addr().String()}, o)
	if err != nil {
		t.Fatal(err)
	}
	v, handled, err := p.Execute(traceKey("barnes", 0))
	if handled || err != nil {
		t.Fatalf("Execute on truncating worker = %v, %v, %v; want decline", v, handled, err)
	}
	snap := o.Reg().Snapshot()
	if snap.Counters["dist.retries"] == 0 || snap.Counters["dist.remote_fallbacks"] != 1 {
		t.Errorf("retry/fallback counters = %v", snap.Counters)
	}
	// Health still passes, so the worker survives the bad responses.
	if p.Healthy() != 1 {
		t.Errorf("Healthy = %d, want 1 (health probe still OK)", p.Healthy())
	}
}

// TestPoolStampMismatch: a worker reporting a foreign stamp is evicted
// at startup — results from different builds must never mix.
func TestPoolStampMismatch(t *testing.T) {
	health, _ := json.Marshal(HealthResponse{OK: true, Stamp: "hetcore.dist/v0+ffffffffffff"})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Write(health) //nolint:errcheck
	}))
	defer srv.Close()
	p, err := NewPool([]string{srv.Listener.Addr().String()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.Healthy() != 0 {
		t.Errorf("stamp-mismatched worker accepted: Healthy = %d", p.Healthy())
	}
}

// TestConcurrentClients hammers one daemon from several engines at once
// (run under -race in CI). All clients must observe identical values.
func TestConcurrentClients(t *testing.T) {
	d := startDaemon(t, DaemonConfig{Jobs: 4, CacheDir: t.TempDir()})

	keys := make([]engine.Key, 0, 8)
	for _, wl := range []string{"barnes", "radix"} {
		for core := 0; core < 4; core++ {
			keys = append(keys, traceKey(wl, core))
		}
	}
	want := make(map[string]any, len(keys))
	for _, k := range keys {
		want[k.String()] = runKey(t, k)
	}

	const clients = 4
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			p, err := NewPool([]string{d.Addr()}, nil)
			if err != nil {
				errs[c] = err
				return
			}
			e := engine.New(2, nil)
			e.SetExecutor(p)
			for _, k := range keys {
				k := k
				got, err := e.Do(k, func() (any, error) {
					fn, _ := Resolve(k, nil)
					return fn()
				})
				if err != nil {
					errs[c] = err
					return
				}
				if !reflect.DeepEqual(got, want[k.String()]) {
					errs[c] = fmt.Errorf("client %d: %s: result mismatch", c, k)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	// The daemon simulated each key at most once; every other request hit
	// its caches.
	if run := d.Engine().JobsRun(); run > uint64(len(keys)) {
		t.Errorf("daemon ran %d jobs for %d distinct keys", run, len(keys))
	}
}

// TestStamp: the stamp embeds the cache version and the device-table
// hash and is stable within a process.
func TestStamp(t *testing.T) {
	s := Stamp()
	wantPrefix := fmt.Sprintf("hetcore.dist/v%d+", CacheVersion)
	if !strings.HasPrefix(s, wantPrefix) {
		t.Errorf("Stamp() = %q, want prefix %q", s, wantPrefix)
	}
	if len(DeviceTableHash()) != 12 {
		t.Errorf("DeviceTableHash() = %q, want 12 hex chars", DeviceTableHash())
	}
	if s != Stamp() {
		t.Error("Stamp() not stable")
	}
}
