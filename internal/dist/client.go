package dist

import (
	"errors"
	"fmt"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hetcore/internal/engine"
	"hetcore/internal/obs"
)

// The pool's fixed tuning.
const (
	// slotsPerWorker is the number of jobs in flight per worker: the
	// remote lanes each daemon contributes.
	slotsPerWorker = 4
	// jobTimeout bounds one job attempt end to end; a simulation that
	// exceeds it is retried, then falls back local.
	jobTimeout = 5 * time.Minute
	// healthTimeout bounds a health probe.
	healthTimeout = 2 * time.Second
	// jobRetries is how many extra attempts a job gets after its first
	// failed one, with exponential backoff in between.
	jobRetries = 2
)

// retryBackoff is the delay before a job's first retry, doubling per
// retry. A variable so tests can shorten it.
var retryBackoff = 250 * time.Millisecond

// logf logs worker evictions and startup warnings. A variable so tests
// can silence it.
var logf = func(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

// worker is one hetserved daemon. Metric names use the stable worker
// index (dist.worker0.*, ...), never the address — reports stay
// byte-identical across runs with ephemeral ports.
type worker struct {
	base    string // http://host:port
	idx     int
	healthy atomic.Bool

	traceOnce sync.Once
	tracePID  atomic.Int64
}

// Pool is the client side of the dist protocol: an engine.Executor that
// turns hetserved daemons into extra engine lanes. Jobs are offered to
// healthy workers round-robin with per-job timeouts and bounded
// exponential-backoff retry; a worker that fails a job and then fails a
// health probe (or reports a different version stamp) is evicted. When
// no worker can take a job — unresolvable key, no free slot, everyone
// evicted — Execute declines and the engine runs the job locally, so a
// dead fleet degrades to exactly the single-machine behaviour.
//
// Every request carries the pool's trace ID plus a fresh span ID, and
// each response's server-side timing breakdown is folded back into the
// run's metrics registry and Chrome/Perfetto trace: one process track
// per worker, with queue/cache/execute/encode child spans under each
// remote job.
type Pool struct {
	o       *obs.Observer
	workers []*worker
	slots   chan int
	jobs    *jobClient
	probe   *http.Client
	rr      atomic.Uint64
	start   time.Time

	traceOnce sync.Once
	tracePID  int64
}

// NewPool builds a remote executor over the given worker addresses
// ("host:port" or full http:// URLs). o receives the dist.* counters,
// per-worker fleet metrics and remote-lane trace slices (including each
// worker's server-side phase spans). Every worker is health-probed up
// front; unreachable or version-mismatched ones start evicted, with a
// warning. An empty address list is an error, but a pool whose workers
// are all dead is not — it simply declines every job.
func NewPool(addrs []string, o *obs.Observer) (*Pool, error) {
	if len(addrs) == 0 {
		return nil, errors.New("dist: no remote workers given")
	}
	p := &Pool{
		o:     o,
		jobs:  newJobClient(jobTimeout),
		probe: &http.Client{Timeout: healthTimeout},
		start: time.Now(),
	}
	for _, a := range addrs {
		if strings.TrimSpace(a) == "" {
			continue
		}
		w := &worker{base: baseURL(a), idx: len(p.workers)}
		if err := checkHealth(p.probe, w.base); err != nil {
			logf("dist: worker %s unhealthy at startup, evicted: %v", w.base, err)
			p.count("dist.workers_evicted")
			p.count(p.workerMetric(w, "evictions"))
		} else {
			w.healthy.Store(true)
		}
		p.workers = append(p.workers, w)
	}
	if len(p.workers) == 0 {
		return nil, errors.New("dist: no remote workers given")
	}
	if p.Healthy() == 0 {
		logf("dist: all %d remote workers unhealthy; jobs will run locally", len(p.workers))
	}
	p.setHealthyGauge()
	p.slots = make(chan int, len(p.workers)*slotsPerWorker)
	for i := 0; i < cap(p.slots); i++ {
		p.slots <- i
	}
	return p, nil
}

// Capacity returns how many jobs the pool runs remotely at once: its
// slots, slotsPerWorker for each worker. The engine's RunAll adds it to
// the local lanes so every slot can be busy.
func (p *Pool) Capacity() int { return cap(p.slots) }

// Healthy returns the number of workers currently accepting jobs.
func (p *Pool) Healthy() int {
	n := 0
	for _, w := range p.workers {
		if w.healthy.Load() {
			n++
		}
	}
	return n
}

func (p *Pool) count(name string) {
	if reg := p.o.Reg(); reg != nil {
		reg.Counter(name).Inc()
	}
}

func (p *Pool) observe(name string, v float64) {
	if reg := p.o.Reg(); reg != nil {
		reg.Histogram(name, serverLatencyBuckets).Observe(v)
	}
}

// workerMetric names a per-worker metric by stable index.
func (p *Pool) workerMetric(w *worker, name string) string {
	return fmt.Sprintf("dist.worker%d.%s", w.idx, name)
}

func (p *Pool) setHealthyGauge() {
	if reg := p.o.Reg(); reg != nil {
		reg.Gauge("dist.workers_healthy").Set(float64(p.Healthy()))
	}
}

// evictIfDead re-probes a worker that just failed a job and evicts it
// when the probe fails too — a single lost request keeps the worker, a
// dead or mismatched daemon is dropped for the rest of the run.
func (p *Pool) evictIfDead(w *worker) {
	if err := checkHealth(p.probe, w.base); err != nil {
		if w.healthy.CompareAndSwap(true, false) {
			p.count("dist.workers_evicted")
			p.count(p.workerMetric(w, "evictions"))
			p.setHealthyGauge()
			logf("dist: evicting worker %s: %v", w.base, err)
		}
	}
}

// pick returns the next healthy worker round-robin, or nil.
func (p *Pool) pick() *worker {
	for range p.workers {
		w := p.workers[int(p.rr.Add(1)-1)%len(p.workers)]
		if w.healthy.Load() {
			return w
		}
	}
	return nil
}

// Execute implements engine.Executor.
func (p *Pool) Execute(k engine.Key) (any, bool, error) {
	if !Resolvable(k) {
		return nil, false, nil
	}
	var slot int
	select {
	case slot = <-p.slots:
	default:
		// Every remote lane is busy; let the job queue for a local lane
		// rather than serializing behind the network.
		return nil, false, nil
	}
	defer func() { p.slots <- slot }()

	backoff := retryBackoff
	for attempt := 0; attempt <= jobRetries; attempt++ {
		if attempt > 0 {
			p.count("dist.retries")
			time.Sleep(backoff)
			backoff *= 2
		}
		w := p.pick()
		if w == nil {
			break
		}
		wallStart := time.Now()
		resp, err := p.jobs.post(w.base, k)
		latencyMS := float64(time.Since(wallStart).Nanoseconds()) / 1e6
		if err != nil {
			if errors.Is(err, errUnresolvable) {
				break
			}
			p.count("dist.remote_failures")
			p.count(p.workerMetric(w, "failures"))
			if attempt < jobRetries {
				p.count(p.workerMetric(w, "retries"))
			}
			p.evictIfDead(w)
			continue
		}
		if resp.Stamp != Stamp() {
			p.count("dist.remote_failures")
			p.count(p.workerMetric(w, "failures"))
			p.evictIfDead(w)
			continue
		}
		if resp.Error != "" {
			// The job itself failed — deterministic, so it is a real
			// result, not an infrastructure problem.
			p.count("dist.remote_jobs")
			p.recordSuccess(w, latencyMS, resp)
			return nil, true, fmt.Errorf("remote %s: %s", w.base, resp.Error)
		}
		val, err := DecodeResult(resp.Type, resp.Result)
		if err != nil {
			p.count("dist.remote_failures")
			p.count(p.workerMetric(w, "failures"))
			p.evictIfDead(w)
			continue
		}
		p.count("dist.remote_jobs")
		p.recordSuccess(w, latencyMS, resp)
		p.traceRemote(slot, k, w, wallStart, resp)
		return val, true, nil
	}
	p.count("dist.remote_fallbacks")
	return nil, false, nil
}

// recordSuccess folds one completed round trip into the run's metrics:
// the client-observed latency (aggregate and per worker) and the
// server-reported phase breakdown.
func (p *Pool) recordSuccess(w *worker, latencyMS float64, resp JobResponse) {
	p.observe("dist.latency_ms", latencyMS)
	p.observe(p.workerMetric(w, "latency_ms"), latencyMS)
	p.count(p.workerMetric(w, "jobs"))
	if t := resp.Timing; t != nil {
		p.observe("dist.server.queue_ms", t.QueueMS)
		p.observe("dist.server.cache_ms", t.CacheMS)
		p.observe("dist.server.exec_ms", t.ExecMS)
		p.observe("dist.server.encode_ms", t.EncodeMS)
	}
}

// traceRemote emits one slice per remote job on the dist process
// timeline, one thread per remote lane — the remote mirror of the
// engine's per-lane slices. When the response carries a server timing
// breakdown, the worker also gets its own process track with the
// daemon-side span (cat "dist.server") and its queue/cache/execute/
// encode phases (cat "dist.server.phase") laid out inside the client
// window; the left-over client time is the network round trip.
func (p *Pool) traceRemote(slot int, k engine.Key, w *worker, wallStart time.Time, resp JobResponse) {
	tr := p.o.Tracer()
	if !tr.Enabled() {
		return
	}
	p.traceOnce.Do(func() {
		p.tracePID = tr.NextPID()
		tr.ProcessName(p.tracePID, "dist")
		for i := 0; i < cap(p.slots); i++ {
			tr.ThreadName(p.tracePID, int64(i), fmt.Sprintf("remote lane %d", i))
		}
	})
	startUS := float64(wallStart.Sub(p.start).Nanoseconds()) / 1e3
	durUS := float64(time.Since(wallStart).Nanoseconds()) / 1e3
	args := map[string]any{"worker": w.base, "trace": p.jobs.traceID}
	if resp.SpanID != "" {
		args["span"] = resp.SpanID
	}
	if resp.Timing != nil {
		args["source"] = resp.Timing.Source
	}
	tr.Complete(p.tracePID, int64(slot), k.String(), "dist", startUS, durUS, args)

	t := resp.Timing
	if t == nil {
		return
	}
	w.traceOnce.Do(func() {
		pid := tr.NextPID()
		tr.ProcessName(pid, fmt.Sprintf("hetserved %d (%s)", w.idx, w.base))
		for i := 0; i < cap(p.slots); i++ {
			tr.ThreadName(pid, int64(i), fmt.Sprintf("remote lane %d", i))
		}
		w.tracePID.Store(pid)
	})
	pid := w.tracePID.Load()
	serverUS := (t.QueueMS + t.CacheMS + t.ExecMS + t.EncodeMS) * 1e3
	// Centre the server window inside the client window; the slack on
	// either side is the network time.
	off := (durUS - serverUS) / 2
	if off < 0 {
		off = 0
	}
	base := startUS + off
	tr.Complete(pid, int64(slot), k.String(), "dist.server", base, serverUS,
		map[string]any{"span": resp.SpanID, "source": t.Source})
	ts := base
	for _, ph := range [...]struct {
		name  string
		durUS float64
	}{
		{"queue", t.QueueMS * 1e3},
		{"cache", t.CacheMS * 1e3},
		{"execute", t.ExecMS * 1e3},
		{"encode", t.EncodeMS * 1e3},
	} {
		tr.Complete(pid, int64(slot), ph.name, "dist.server.phase", ts, ph.durUS, nil)
		ts += ph.durUS
	}
}
