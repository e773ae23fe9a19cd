package dist

import (
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
// (trace/span IDs, client submit timestamp, server timing breakdown), so
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
	// SubmitUnixNano is the client-side submit timestamp, so server logs
	// can be correlated with client timelines.
	SubmitUnixNano int64 `json:"submit_unix_nano,omitempty"`
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
