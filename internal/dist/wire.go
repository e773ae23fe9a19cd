package dist

import (
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"hetcore/internal/engine"
	"hetcore/internal/obs"
)

// The wire protocol between the Pool client and a hetserved daemon.
// JSON envelopes over HTTP, three endpoints:
//
//	POST /v1/jobs    JobRequest -> 200 JobResponse (job ran; Error set
//	                 for a deterministic job failure), 400 malformed,
//	                 405 non-POST, 422 unresolvable key
//	GET  /v1/health  -> 200 HealthResponse
//	GET  /v1/stats   -> 200 StatsResponse (fleet observability)
//
// A job's result travels inside the JSON envelope as the result codec's
// binary payload (base64 in JSON), the same bytes the disk cache stores.
// Both sides carry Stamp(); a mismatch means the peers were built from
// different code or device tables and no result may be trusted. The
// request/response envelopes carry request-scoped trace context
// (trace/span IDs, server timing breakdown), so
// a client can merge every worker's server-side phases into one
// Chrome/Perfetto trace of the whole fleet.
const (
	PathJobs   = "/v1/jobs"
	PathHealth = "/v1/health"
	PathStats  = "/v1/stats"
)

// JobRequest asks a daemon to execute one engine job by key.
type JobRequest struct {
	Key engine.Key `json:"key"`
	// TraceID identifies the client run this request belongs to; every
	// request of one Pool carries the same TraceID.
	TraceID string `json:"trace_id,omitempty"`
	// SpanID identifies this request within the trace (unique per
	// attempt).
	SpanID string `json:"span_id,omitempty"`
}

// ServerTiming is the daemon-side timing breakdown of one job request,
// in wall-clock milliseconds: where the request spent its time between
// arriving and the response body being encoded.
type ServerTiming struct {
	// QueueMS is time waiting for an engine lane (or for another request
	// already computing the same key).
	QueueMS float64 `json:"queue_ms"`
	// CacheMS is the persistent-cache lookup time.
	CacheMS float64 `json:"cache_ms"`
	// ExecMS is the simulation time proper.
	ExecMS float64 `json:"exec_ms"`
	// EncodeMS is the result-encoding time.
	EncodeMS float64 `json:"encode_ms"`
	// Source says which level served the job: "memory", "disk" or "run".
	Source string `json:"source"`
}

// JobResponse carries the outcome of one job execution.
type JobResponse struct {
	// Key echoes the rendered request key.
	Key string `json:"key"`
	// TraceID and SpanID echo the request's trace context.
	TraceID string `json:"trace_id,omitempty"`
	SpanID  string `json:"span_id,omitempty"`
	// Type and Result are the codec name and binary payload of the
	// result (empty when Error is set); JSON carries Result as base64.
	Type   string `json:"type,omitempty"`
	Result []byte `json:"result,omitempty"`
	// Error is the job's own deterministic failure, verbatim.
	Error string `json:"error,omitempty"`
	// Stamp is the daemon's version stamp.
	Stamp string `json:"stamp"`
	// CacheHit reports whether the daemon served the job without
	// simulating (its in-memory or persistent cache).
	CacheHit bool `json:"cache_hit"`
	// WallMS is the daemon-side wall time of the call.
	WallMS float64 `json:"wall_ms"`
	// Timing is the server-side phase breakdown of WallMS.
	Timing *ServerTiming `json:"timing,omitempty"`
}

// wireError is the JSON body of 4xx/5xx responses.
type wireError struct {
	Error string `json:"error"`
}

// HealthResponse is the /v1/health payload.
type HealthResponse struct {
	OK            bool    `json:"ok"`
	Stamp         string  `json:"stamp"`
	Workers       int     `json:"workers"`
	JobsRun       uint64  `json:"jobs_run"`
	CacheHits     uint64  `json:"cache_hits"`
	DiskHits      uint64  `json:"disk_hits"`
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// EndpointStats summarises one endpoint's request stream for /v1/stats.
// Quantiles come from the server latency histograms.
type EndpointStats struct {
	Requests      uint64  `json:"requests"`
	Errors        uint64  `json:"errors"`
	LatencyMeanMS float64 `json:"latency_mean_ms"`
	LatencyP50MS  float64 `json:"latency_p50_ms"`
	LatencyP95MS  float64 `json:"latency_p95_ms"`
	LatencyP99MS  float64 `json:"latency_p99_ms"`
}

// StatsResponse is the /v1/stats payload: the daemon's fleet-level
// serving state — per-endpoint request/error/latency summaries, queueing
// gauges and the engine's serving counters.
type StatsResponse struct {
	Stamp         string  `json:"stamp"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Workers       int     `json:"workers"`

	// QueueDepth and EngineInFlight are the engine's live lane gauges;
	// HTTPInFlight counts requests currently being served.
	QueueDepth     int64 `json:"queue_depth"`
	EngineInFlight int64 `json:"engine_in_flight"`
	HTTPInFlight   int64 `json:"http_in_flight"`

	JobsRun   uint64 `json:"jobs_run"`
	CacheHits uint64 `json:"cache_hits"`
	DiskHits  uint64 `json:"disk_hits"`

	// ErrorsByStatus counts 4xx/5xx responses by status code ("400",
	// "405", "422", ...).
	ErrorsByStatus map[string]uint64 `json:"errors_by_status"`
	// Endpoints is keyed by wire endpoint name ("jobs", "health",
	// "stats").
	Endpoints map[string]EndpointStats `json:"endpoints"`
	// EventsLogged is the total number of request-log events recorded
	// (the bounded ring behind /events).
	EventsLogged uint64 `json:"events_logged"`

	// Runtime is the daemon's host resource state (heap, GC, goroutines)
	// sampled at request time.
	Runtime obs.RuntimeStats `json:"runtime"`
}

// The client side of the protocol, shared by Pool and RunLoad.

// errUnresolvable marks a daemon's 422: the key cannot run remotely, so
// retrying or evicting is pointless — fall back to local execution.
var errUnresolvable = errors.New("dist: worker cannot resolve key")

// baseURL normalises a daemon address ("host:port" or a full http://
// URL) to a URL without a trailing slash.
func baseURL(addr string) string {
	a := strings.TrimSpace(addr)
	if !strings.Contains(a, "://") {
		a = "http://" + a
	}
	return strings.TrimRight(a, "/")
}

// checkHealth probes the daemon at base and verifies its version stamp.
func checkHealth(c *http.Client, base string) error {
	resp, err := c.Get(base + PathHealth)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("health: HTTP %d", resp.StatusCode)
	}
	var h HealthResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxJobRequestBytes)).Decode(&h); err != nil {
		return fmt.Errorf("health: %w", err)
	}
	if !h.OK {
		return errors.New("health: not ok")
	}
	if h.Stamp != Stamp() {
		return fmt.Errorf("version stamp %q != ours %q (rebuild or restart the worker)", h.Stamp, Stamp())
	}
	return nil
}

// newTraceID returns a random 16-hex-digit trace identifier.
func newTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "trace-fallback"
	}
	return hex.EncodeToString(b[:])
}

// jobClient posts jobs under one trace ID, with a fresh span ID per
// request.
type jobClient struct {
	http    *http.Client
	traceID string
	spanSeq atomic.Uint64
}

func newJobClient(timeout time.Duration) *jobClient {
	return &jobClient{http: &http.Client{Timeout: timeout}, traceID: newTraceID()}
}

// post runs one job request against the daemon at base. A 422 returns
// errUnresolvable.
func (c *jobClient) post(base string, k engine.Key) (JobResponse, error) {
	body, err := json.Marshal(JobRequest{
		Key:     k,
		TraceID: c.traceID,
		SpanID:  fmt.Sprintf("%s-%04x", c.traceID, c.spanSeq.Add(1)),
	})
	if err != nil {
		return JobResponse{}, err
	}
	resp, err := c.http.Post(base+PathJobs, "application/json", bytes.NewReader(body))
	if err != nil {
		return JobResponse{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusUnprocessableEntity {
		return JobResponse{}, errUnresolvable
	}
	if resp.StatusCode != http.StatusOK {
		return JobResponse{}, fmt.Errorf("dist: %s: HTTP %d", base, resp.StatusCode)
	}
	var jr JobResponse
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		return JobResponse{}, fmt.Errorf("dist: %s: decoding response: %w", base, err)
	}
	return jr, nil
}
