package dist

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hetcore/internal/engine"
	"hetcore/internal/obs"
)

// LoadSchemaVersion stamps every load-test record (BENCH_load.json).
const LoadSchemaVersion = "hetcore.load/v1"

// LoadConfig configures one load-generation run against a hetserved
// daemon. The zero value (plus Addr) gives a short closed-loop run.
type LoadConfig struct {
	// Addr is the daemon ("host:port" or http:// URL). Required.
	Addr string
	// Duration is the measured window (default 3s). Hot keys are
	// pre-warmed before it starts, so cache hits are really hits.
	Duration time.Duration
	// Concurrency is the closed-loop worker count; in open-loop mode it
	// bounds the in-flight requests instead (default 8).
	Concurrency int
	// RatePerSec > 0 switches to open-loop mode: requests arrive on a
	// fixed schedule regardless of completions. An arrival finding no
	// free in-flight slot is counted as shed and dropped — the arrival
	// process stays independent of the server, which is the point of an
	// open-loop test.
	RatePerSec float64
	// ColdFraction is the fraction of requests carrying a never-seen key
	// that forces a simulation, the rest hitting the warmed cache
	// (default 0.1).
	ColdFraction float64
	// Timeout bounds one request (default 30s).
	Timeout time.Duration
	// Seed drives the cold/hot choice deterministically (default 1).
	Seed int64
	// Workload is the trace workload the jobs summarise (default
	// "barnes").
	Workload string
	// Instr is the per-job instruction budget (default 2000 — cheap
	// enough that the wire, not the simulation, dominates).
	Instr uint64
}

func (c LoadConfig) withDefaults() LoadConfig {
	if c.Duration <= 0 {
		c.Duration = 3 * time.Second
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 8
	}
	if c.ColdFraction < 0 || c.ColdFraction > 1 {
		c.ColdFraction = 0.1
	}
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Workload == "" {
		c.Workload = "barnes"
	}
	if c.Instr == 0 {
		c.Instr = 2000
	}
	return c
}

// LoadRecord is the load-test result payload (BENCH_load.json): the
// client-observed throughput and latency quantiles of one run, in a
// shape `hetcore diff` gates direction-aware (throughput higher-better,
// quantiles lower-better, error rate lower-better).
type LoadRecord struct {
	Schema    string `json:"schema"`
	GoVersion string `json:"go_version"`

	Mode            string  `json:"mode"` // "closed" or "open"
	Concurrency     int     `json:"concurrency"`
	RatePerSec      float64 `json:"rate_per_sec,omitempty"` // open-loop target
	DurationSeconds float64 `json:"duration_seconds"`
	ColdFraction    float64 `json:"cold_fraction"`

	Requests       uint64  `json:"requests"`
	Errors         uint64  `json:"errors"`
	ErrorRate      float64 `json:"error_rate"`
	Shed           uint64  `json:"shed,omitempty"` // open loop only
	RequestsPerSec float64 `json:"requests_per_sec"`

	LatencyMeanMS float64 `json:"latency_mean_ms"`
	LatencyP50MS  float64 `json:"latency_p50_ms"`
	LatencyP95MS  float64 `json:"latency_p95_ms"`
	LatencyP99MS  float64 `json:"latency_p99_ms"`

	CacheHits uint64 `json:"cache_hits"`
	ColdJobs  uint64 `json:"cold_jobs"`
}

// WriteJSON writes the record as indented JSON.
func (r LoadRecord) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		return fmt.Errorf("dist: encoding load record: %w", err)
	}
	return nil
}

// Format renders the record as a short human-readable summary.
func (r LoadRecord) Format(w io.Writer) error {
	rate := ""
	if r.Mode == "open" {
		rate = fmt.Sprintf("  target=%g/s  shed=%d", r.RatePerSec, r.Shed)
	}
	_, err := fmt.Fprintf(w,
		"mode=%s  concurrency=%d%s  window=%.2fs  cold=%.0f%%\n"+
			"requests=%d (%.1f/s)  errors=%d (%.2f%%)  cache_hits=%d  cold_jobs=%d\n"+
			"latency ms: mean=%.3f  p50=%.3f  p95=%.3f  p99=%.3f\n",
		r.Mode, r.Concurrency, rate, r.DurationSeconds, 100*r.ColdFraction,
		r.Requests, r.RequestsPerSec, r.Errors, 100*r.ErrorRate,
		r.CacheHits, r.ColdJobs,
		r.LatencyMeanMS, r.LatencyP50MS, r.LatencyP95MS, r.LatencyP99MS)
	return err
}

// loadGen is the shared state of one RunLoad invocation.
type loadGen struct {
	cfg     LoadConfig
	base    string
	client  *http.Client
	reg     *obs.Registry
	traceID string

	spanSeq   atomic.Uint64
	coldBase  uint64 // this run's first cold seed, less one
	coldSeq   atomic.Uint64
	errs      atomic.Uint64
	cacheHits atomic.Uint64
	coldJobs  atomic.Uint64
	shed      atomic.Uint64

	hot []engine.Key
}

// coldSeedBase offsets cold-key seeds far away from anything a real
// experiment uses, so a load test never pollutes a daemon's cache with
// keys a run would later hit.
const coldSeedBase = 1 << 40

// coldSeqBits is the room each run's cold seeds get above its random
// 16-bit nonce: a run mints fewer than 1<<coldSeqBits cold keys before
// it reaches the seeds of the next nonce, and so every cold seed stays
// in [coldSeedBase, 2*coldSeedBase).
const coldSeqBits = 24

// newColdBase draws a run's cold seed base. A fresh nonce per run keeps
// a second run against the same daemon from re-submitting the first
// run's cold keys, which the daemon would serve as cache hits. The
// package-level math/rand source is seeded randomly in every process.
func newColdBase() uint64 {
	return coldSeedBase + uint64(rand.Intn(1<<16))<<coldSeqBits
}

// RunLoad drives a stream of jobs at a daemon and reports the
// client-observed throughput and latency distribution. Latencies are
// aggregated in an obs histogram and the quantiles come from
// HistogramSnapshot.Quantile — the same estimator the daemon's
// /v1/stats endpoint uses, so client and server views are comparable.
func RunLoad(cfg LoadConfig) (LoadRecord, error) {
	cfg = cfg.withDefaults()
	if cfg.Addr == "" {
		return LoadRecord{}, errors.New("dist: load: no daemon address given")
	}
	base := strings.TrimSpace(cfg.Addr)
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	g := &loadGen{
		cfg:      cfg,
		base:     strings.TrimRight(base, "/"),
		client:   &http.Client{Timeout: cfg.Timeout},
		reg:      obs.NewRegistry(),
		traceID:  newTraceID(),
		coldBase: newColdBase(),
	}

	// Health + stamp gate: a mismatched daemon would measure nothing
	// meaningful.
	if err := g.checkHealth(); err != nil {
		return LoadRecord{}, err
	}

	// Hot working set: a handful of keys warmed before the window so a
	// "cached-key" request is guaranteed to be a cache hit.
	for core := 0; core < 4; core++ {
		g.hot = append(g.hot, engine.Key{
			Device: "trace", Config: "stats", Workload: cfg.Workload,
			Seed: uint64(cfg.Seed), Instr: cfg.Instr,
			Variant: fmt.Sprintf("core=%d", core),
		})
	}
	for _, k := range g.hot {
		if err := g.warm(k); err != nil {
			return LoadRecord{}, err
		}
	}

	start := time.Now()
	if cfg.RatePerSec > 0 {
		g.openLoop(start)
	} else {
		g.closedLoop(start)
	}
	elapsed := time.Since(start).Seconds()

	rec := LoadRecord{
		Schema: LoadSchemaVersion, GoVersion: runtime.Version(),
		Mode: "closed", Concurrency: cfg.Concurrency,
		DurationSeconds: elapsed, ColdFraction: cfg.ColdFraction,
		Errors: g.errs.Load(), Shed: g.shed.Load(),
		CacheHits: g.cacheHits.Load(), ColdJobs: g.coldJobs.Load(),
	}
	if cfg.RatePerSec > 0 {
		rec.Mode, rec.RatePerSec = "open", cfg.RatePerSec
	}
	h := g.reg.Snapshot().Histograms["load.latency_ms"]
	rec.Requests = h.Count
	if h.Count > 0 {
		rec.LatencyMeanMS = h.Sum / float64(h.Count)
		rec.LatencyP50MS = h.Quantile(0.50)
		rec.LatencyP95MS = h.Quantile(0.95)
		rec.LatencyP99MS = h.Quantile(0.99)
		rec.ErrorRate = float64(rec.Errors) / float64(h.Count)
	}
	if elapsed > 0 {
		rec.RequestsPerSec = float64(rec.Requests) / elapsed
	}
	return rec, nil
}

func (g *loadGen) checkHealth() error {
	resp, err := g.client.Get(g.base + PathHealth)
	if err != nil {
		return fmt.Errorf("dist: load: daemon unreachable: %w", err)
	}
	defer resp.Body.Close()
	var h HealthResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxJobRequestBytes)).Decode(&h); err != nil {
		return fmt.Errorf("dist: load: health: %w", err)
	}
	if !h.OK {
		return errors.New("dist: load: daemon reports not ok")
	}
	if h.Stamp != Stamp() {
		return fmt.Errorf("dist: load: daemon stamp %q != ours %q", h.Stamp, Stamp())
	}
	return nil
}

// warm posts one key outside the measured window and fails hard on any
// error — a broken setup must not be reported as server latency.
func (g *loadGen) warm(k engine.Key) error {
	resp, err := g.postJob(k)
	if err != nil {
		return fmt.Errorf("dist: load: warming %s: %w", k, err)
	}
	if resp.Error != "" {
		return fmt.Errorf("dist: load: warming %s: %s", k, resp.Error)
	}
	return nil
}

// coldKey mints a key no client has ever submitted: a seed unique to
// this run (see newColdBase), far outside the experiment seed space.
func (g *loadGen) coldKey() engine.Key {
	n := g.coldSeq.Add(1)
	return engine.Key{
		Device: "trace", Config: "stats", Workload: g.cfg.Workload,
		Seed: g.coldBase + n, Instr: g.cfg.Instr, Variant: "core=0",
	}
}

func (g *loadGen) postJob(k engine.Key) (JobResponse, error) {
	req := JobRequest{
		Key:            k,
		TraceID:        g.traceID,
		SpanID:         fmt.Sprintf("%s-%04x", g.traceID, g.spanSeq.Add(1)),
		SubmitUnixNano: time.Now().UnixNano(),
	}
	body, err := json.Marshal(req)
	if err != nil {
		return JobResponse{}, err
	}
	resp, err := g.client.Post(g.base+PathJobs, "application/json", bytes.NewReader(body))
	if err != nil {
		return JobResponse{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return JobResponse{}, fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	var jr JobResponse
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		return JobResponse{}, err
	}
	return jr, nil
}

// pickKey chooses the next request's key: cold (never seen) with
// probability ColdFraction, otherwise one of the warmed hot keys.
func (g *loadGen) pickKey(rng *rand.Rand) engine.Key {
	if rng.Float64() < g.cfg.ColdFraction {
		g.coldJobs.Add(1)
		return g.coldKey()
	}
	return g.hot[rng.Intn(len(g.hot))]
}

// doOne issues one measured request and folds the outcome into the
// run's instruments.
func (g *loadGen) doOne(k engine.Key) {
	start := time.Now()
	resp, err := g.postJob(k)
	latencyMS := float64(time.Since(start).Nanoseconds()) / 1e6
	g.reg.Histogram("load.latency_ms", serverLatencyBuckets).Observe(latencyMS)
	switch {
	case err != nil, resp.Error != "", resp.Stamp != Stamp():
		g.errs.Add(1)
	case resp.CacheHit:
		g.cacheHits.Add(1)
	}
}

// closedLoop runs Concurrency workers back to back until the deadline.
func (g *loadGen) closedLoop(start time.Time) {
	deadline := start.Add(g.cfg.Duration)
	var wg sync.WaitGroup
	for i := 0; i < g.cfg.Concurrency; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(g.cfg.Seed + int64(i)))
			for time.Now().Before(deadline) {
				g.doOne(g.pickKey(rng))
			}
		}(i)
	}
	wg.Wait()
}

// openLoop fires arrivals on a fixed schedule until the deadline,
// bounding in-flight requests at Concurrency and shedding arrivals that
// find no free slot. Arrival i is due at start + i*interval for every i
// with i*interval < Duration; an arrival that falls due while the loop
// is behind fires at once, so each one is either sent or shed.
func (g *loadGen) openLoop(start time.Time) {
	interval := time.Duration(float64(time.Second) / g.cfg.RatePerSec)
	if interval <= 0 {
		interval = time.Microsecond
	}
	rng := rand.New(rand.NewSource(g.cfg.Seed))
	slots := make(chan struct{}, g.cfg.Concurrency)
	var wg sync.WaitGroup
	for due := time.Duration(0); due < g.cfg.Duration; due += interval {
		if wait := time.Until(start.Add(due)); wait > 0 {
			time.Sleep(wait)
		}
		select {
		case slots <- struct{}{}:
		default:
			g.shed.Add(1)
			continue
		}
		// Key choice stays on the arrival goroutine so the rng needs no
		// lock and the sequence is deterministic.
		k := g.pickKey(rng)
		wg.Add(1)
		go func(k engine.Key) {
			defer wg.Done()
			defer func() { <-slots }()
			g.doOne(k)
		}(k)
	}
	wg.Wait()
}
