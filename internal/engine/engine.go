// Package engine is the deterministic run-plan scheduler behind the
// harness: an experiment declares its simulation matrix as jobs keyed by
// (device, config, workload, seed, instr[, variant]), and the engine
// executes them on a bounded worker pool while a content-keyed cache
// guarantees each distinct key simulates exactly once per engine. Figures
// that share a matrix (fig7/8/9 on the CPU side, fig10/11/12 on the GPU
// side) therefore share one underlying suite instead of re-simulating it
// per figure.
//
// A job must not call back into its engine. Such a call fails fast where
// it could block: when it needs a local lane, when it would wait on a key
// still being computed, and on every RunAll. Only those paths identify
// the calling goroutine; a finished memory entry, a second-level cache
// hit or a remote execution is served without that check, since none of
// them can deadlock the lane pool.
//
// Determinism contract: a job function must be a pure function of its
// key — it builds all mutable simulation state (cores, hierarchies,
// RNGs) itself and only writes shared state through the mutex-guarded
// observability endpoints. Under that contract the result of every plan
// is independent of the worker count, so -jobs=1 and -jobs=N produce
// identical tables.
package engine

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hetcore/internal/obs"
)

// Key identifies one simulation job for caching. Two jobs with equal
// keys must compute identical results; the engine will run only the
// first and serve the second from cache.
type Key struct {
	// Device is the simulation kind: "cpu", "gpu", "cmp", "trace"...
	Device string
	// Config names the architecture configuration (e.g. "AdvHet").
	Config string
	// Workload names the CPU workload, GPU kernel or trace profile.
	Workload string
	// Seed is the workload-synthesis seed.
	Seed uint64
	// Instr is the instruction budget (0 = the simulator default).
	Instr uint64
	// Variant discriminates runs that tweak the named config beyond the
	// fields above (a sweep value, a one-core component). Empty for
	// stock runs, so suites and experiments share cache entries.
	Variant string
}

// escapeKeyField makes a key field safe to join with "/": the separator
// itself and the escape character are percent-encoded. Without this, a
// Workload or Variant containing "/" could render identically to a
// different key (e.g. {Workload: "w", Variant: "x/s3/i4"} vs
// {Workload: "w/s1/i2/x", Seed: 3, Instr: 4}).
func escapeKeyField(s string) string {
	if !strings.ContainsAny(s, "/%") {
		return s
	}
	s = strings.ReplaceAll(s, "%", "%25")
	return strings.ReplaceAll(s, "/", "%2F")
}

// String renders the key as a stable, human-readable identifier (used
// for trace slices and error messages). Fields are escaped so distinct
// keys never render identically; for filenames use Hash instead.
func (k Key) String() string {
	s := fmt.Sprintf("%s/%s/%s/s%d/i%d",
		escapeKeyField(k.Device), escapeKeyField(k.Config), escapeKeyField(k.Workload),
		k.Seed, k.Instr)
	if k.Variant != "" {
		s += "/" + escapeKeyField(k.Variant)
	}
	return s
}

// Hash returns the SHA-256 of a length-prefixed canonical encoding of
// the key, in hex. Unlike String, it needs no escaping to be collision
// free, so it is the right identifier for cache filenames and wire
// protocols.
func (k Key) Hash() string {
	h := sha256.New()
	var n [8]byte
	put := func(s string) {
		binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
		h.Write(n[:])
		h.Write([]byte(s))
	}
	put(k.Device)
	put(k.Config)
	put(k.Workload)
	binary.LittleEndian.PutUint64(n[:], k.Seed)
	h.Write(n[:])
	binary.LittleEndian.PutUint64(n[:], k.Instr)
	h.Write(n[:])
	put(k.Variant)
	return hex.EncodeToString(h.Sum(nil))
}

// Job pairs a key with the function that computes its result.
type Job struct {
	Key Key
	Run func() (any, error)
}

// JobTiming breaks one Do call into its serving phases, in wall-clock
// milliseconds. Which fields are non-zero depends on Source:
//
//	"memory"  QueueMS  — wait for the caller already computing the key
//	"disk"    CacheMS  — second-level cache lookup that hit
//	"remote"  CacheMS (lookup that missed) + ExecMS (executor round trip)
//	"run"     CacheMS + QueueMS (lane wait) + ExecMS (the job function)
//
// Timing is host measurement, never part of the deterministic result.
type JobTiming struct {
	// Source says which level served the job: "memory", "disk", "remote"
	// or "run".
	Source string `json:"source"`
	// QueueMS is time spent waiting — for a local lane ("run") or for
	// another caller's in-flight computation ("memory").
	QueueMS float64 `json:"queue_ms"`
	// CacheMS is the second-level cache lookup time.
	CacheMS float64 `json:"cache_ms"`
	// ExecMS is the execution time: the job function locally, or the
	// remote executor's round trip.
	ExecMS float64 `json:"exec_ms"`
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// Cache is a second-level result store consulted on an in-memory miss
// before a job executes, and written after a job succeeds — typically
// the persistent content-addressed disk cache in internal/dist. Both
// methods must be safe for concurrent use. Get returning ok=true must
// yield a value identical to what running the job would compute; a
// corrupt or stale entry must surface as a miss, never an error.
type Cache interface {
	Get(Key) (any, bool)
	Put(Key, any)
}

// Executor runs a job somewhere other than the local lane pool —
// typically on remote hetserved workers, as extra lanes. Execute returns
// handled=false to decline a key (unresolvable, no capacity, no healthy
// workers); the engine then runs the job locally. When handled=true, err
// is the job's own deterministic error (infrastructure failures must be
// retried or converted to a decline inside the executor, never surfaced
// here, because the engine caches errors as final results).
//
// An executor that serves a bounded number of Execute calls at once may
// also implement Capacity() int, returning that bound. RunAll then runs
// that many workers beyond the local lanes, so every remote slot can be
// busy while the local lanes are; without it RunAll sizes to the local
// lanes alone.
type Executor interface {
	Execute(Key) (val any, handled bool, err error)
}

// entry is one cache slot: done closes when val/err are final, or when
// the owner abandoned the key (a nested call rejected before it
// computed anything). An abandoned entry is already out of the map, so
// its waiters look the key up again.
type entry struct {
	done      chan struct{}
	val       any
	err       error
	abandoned bool
}

// Engine is a worker pool plus a memoizing result cache. The zero value
// is not usable; construct with New. An Engine is safe for concurrent
// use and is typically shared across every experiment of one process so
// the cache spans figures.
type Engine struct {
	obs   *obs.Observer
	lanes chan int // worker slots; the value is the lane id

	cache Cache    // optional second-level (persistent) cache
	exec  Executor // optional remote executor (extra lanes)

	mu      sync.Mutex
	entries map[Key]*entry
	inJob   map[uint64]struct{} // goroutine ids holding or waiting for a local lane

	jobsRun    atomic.Uint64
	cacheHits  atomic.Uint64
	diskHits   atomic.Uint64
	remoteJobs atomic.Uint64

	queued   atomic.Int64 // Do calls waiting for a local lane
	inFlight atomic.Int64 // jobs currently executing on a local lane

	traceOnce sync.Once
	tracePID  int64
	start     time.Time
}

// New returns an engine with the given worker count (<= 0 means
// runtime.NumCPU()). o receives the engine.jobs_total / engine.cache_hits
// / engine.disk_hits / engine.remote_jobs counters and per-job trace
// slices; nil disables both.
func New(workers int, o *obs.Observer) *Engine {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	e := &Engine{
		obs:     o,
		lanes:   make(chan int, workers),
		entries: make(map[Key]*entry),
		inJob:   make(map[uint64]struct{}),
		start:   time.Now(),
	}
	for i := 0; i < workers; i++ {
		e.lanes <- i
	}
	return e
}

// SetCache attaches a second-level result cache. Call before submitting
// jobs; it is not safe to change while jobs are in flight.
func (e *Engine) SetCache(c Cache) { e.cache = c }

// SetExecutor attaches a remote executor. Call before submitting jobs;
// it is not safe to change while jobs are in flight.
func (e *Engine) SetExecutor(x Executor) { e.exec = x }

// Workers returns the worker-pool width.
func (e *Engine) Workers() int { return cap(e.lanes) }

// JobsRun returns how many jobs executed on the local lane pool (misses
// of every cache level that no executor handled).
func (e *Engine) JobsRun() uint64 { return e.jobsRun.Load() }

// CacheHits returns how many Do calls were served from the in-memory
// cache.
func (e *Engine) CacheHits() uint64 { return e.cacheHits.Load() }

// DiskHits returns how many Do calls were served by the second-level
// cache attached with SetCache.
func (e *Engine) DiskHits() uint64 { return e.diskHits.Load() }

// RemoteJobs returns how many jobs the executor attached with
// SetExecutor handled.
func (e *Engine) RemoteJobs() uint64 { return e.remoteJobs.Load() }

// QueueDepth returns how many Do calls are currently waiting for a free
// local lane (jobs that missed every cache level and were not handled
// remotely).
func (e *Engine) QueueDepth() int64 { return e.queued.Load() }

// InFlight returns how many jobs are currently executing on local lanes.
func (e *Engine) InFlight() int64 { return e.inFlight.Load() }

// gid returns the current goroutine's id, parsed from the
// "goroutine N [state]:" header of its stack trace. It is the only
// portable way to identify a goroutine, but runtime.Stack takes the
// runtime's print lock, so only the paths that can block call it (see
// the package comment).
func gid() uint64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	const prefix = len("goroutine ")
	var id uint64
	for _, c := range buf[prefix:n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}

// holdsLane reports whether the calling goroutine is currently inside a
// job function of this engine.
func (e *Engine) holdsLane() bool {
	id := gid()
	e.mu.Lock()
	_, ok := e.inJob[id]
	e.mu.Unlock()
	return ok
}

// nestedErr is the fail-fast error for a call from inside a job.
func nestedErr(call string) error {
	return fmt.Errorf("engine: nested %s from inside a running job; jobs must not call back into their engine (would deadlock the lane pool)", call)
}

// onLane runs fn on a free local lane and reports how long the lane took
// to come free. The calling goroutine is marked as running a job from
// before it queues until it returns the lane; this is the only place the
// marker is set or cleared. A caller that is already marked — a job
// calling back into its engine — gets ok=false at once: it would wait
// for a lane it may itself be holding.
func (e *Engine) onLane(fn func(lane int)) (queued time.Duration, ok bool) {
	id := gid()
	e.mu.Lock()
	_, nested := e.inJob[id]
	if !nested {
		e.inJob[id] = struct{}{}
	}
	e.mu.Unlock()
	if nested {
		return 0, false
	}
	e.queued.Add(1)
	queueStart := time.Now()
	lane := <-e.lanes
	queued = time.Since(queueStart)
	e.queued.Add(-1)
	e.inFlight.Add(1)
	fn(lane)
	e.inFlight.Add(-1)
	e.lanes <- lane
	e.mu.Lock()
	delete(e.inJob, id)
	e.mu.Unlock()
	return queued, true
}

// Do returns the memoized result for key, executing fn at most once per
// key per engine. The first caller of a key consults the second-level
// cache (SetCache), then the remote executor (SetExecutor), and only
// then takes a worker lane and runs fn locally; concurrent callers of
// the same key block until it completes and then share its result
// (errors are cached too — the simulators are deterministic, so
// retrying cannot succeed). fn must not call back into the same engine:
// nested jobs could exhaust the lane pool. A nested call fails fast
// where it would block — when it needs a local lane or would wait on an
// unfinished key — and a key it was rejected on is not memoized, so a
// later call from outside a job runs it normally.
func (e *Engine) Do(key Key, fn func() (any, error)) (any, error) {
	v, _, err := e.DoTimed(key, fn)
	return v, err
}

// DoTimed is Do plus a timing breakdown of how the call was served: the
// phase durations and which level (memory, disk, remote, local run)
// produced the value. The hetserved daemon uses it to return a
// server-side timing breakdown per wire request; Do discards it.
func (e *Engine) DoTimed(key Key, fn func() (any, error)) (any, JobTiming, error) {
	var tm JobTiming
	e.mu.Lock()
	for {
		ent, ok := e.entries[key]
		if !ok {
			break
		}
		e.mu.Unlock()
		select {
		case <-ent.done:
		default:
			// A job waiting here could be waiting on itself, or on a
			// key that needs the lane it holds.
			if e.holdsLane() {
				return nil, tm, nestedErr(fmt.Sprintf("Do(%s)", key))
			}
			waitStart := time.Now()
			<-ent.done
			tm.QueueMS += ms(time.Since(waitStart))
		}
		if !ent.abandoned {
			tm.Source = "memory"
			e.cacheHits.Add(1)
			if reg := e.obs.Reg(); reg != nil {
				reg.Counter("engine.cache_hits").Inc()
			}
			return ent.val, tm, ent.err
		}
		e.mu.Lock()
	}
	ent := &entry{done: make(chan struct{})}
	e.entries[key] = ent
	e.mu.Unlock()

	// Second-level (persistent) cache: consulted before taking a lane,
	// so disk hits never occupy a compute slot.
	if e.cache != nil {
		lookupStart := time.Now()
		v, ok := e.cache.Get(key)
		tm.CacheMS = ms(time.Since(lookupStart))
		if ok {
			ent.val = v
			close(ent.done)
			tm.Source = "disk"
			e.diskHits.Add(1)
			if reg := e.obs.Reg(); reg != nil {
				reg.Counter("engine.disk_hits").Inc()
			}
			return v, tm, nil
		}
	}

	// Remote executor: extra lanes beyond the local pool. A handled job
	// never takes a local lane; a decline falls through to local
	// execution.
	if e.exec != nil {
		execStart := time.Now()
		if v, handled, err := e.exec.Execute(key); handled {
			ent.val, ent.err = v, err
			close(ent.done)
			tm.Source, tm.ExecMS = "remote", ms(time.Since(execStart))
			e.remoteJobs.Add(1)
			if reg := e.obs.Reg(); reg != nil {
				reg.Counter("engine.remote_jobs").Inc()
			}
			if e.cache != nil && err == nil {
				e.cache.Put(key, v)
			}
			return v, tm, err
		}
	}

	var lane int
	var wallStart time.Time
	var wallDur time.Duration
	queued, ok := e.onLane(func(l int) {
		lane, wallStart = l, time.Now()
		// Label the job's goroutine for CPU profiling: a pprof capture
		// (e.g. hetserved's /debug/pprof/profile) attributes every
		// sample taken during the run to its device/config/workload.
		pprof.Do(context.Background(), pprof.Labels(
			"device", key.Device, "config", key.Config, "workload", key.Workload),
			func(context.Context) {
				ent.val, ent.err = fn()
			})
		wallDur = time.Since(wallStart)
	})
	if !ok {
		// Nothing was computed: take the key back out of the map so the
		// rejection is not memoized, and send its waiters to look again.
		e.mu.Lock()
		delete(e.entries, key)
		e.mu.Unlock()
		ent.abandoned = true
		close(ent.done)
		return nil, tm, nestedErr(fmt.Sprintf("Do(%s)", key))
	}
	tm.Source, tm.QueueMS, tm.ExecMS = "run", ms(queued), ms(wallDur)
	close(ent.done)
	if e.cache != nil && ent.err == nil {
		e.cache.Put(key, ent.val)
	}

	e.jobsRun.Add(1)
	if reg := e.obs.Reg(); reg != nil {
		reg.Counter("engine.jobs_total").Inc()
		if ent.err != nil {
			reg.Counter("engine.jobs_failed").Inc()
		}
	}
	if tr := e.obs.Tracer(); tr.Enabled() {
		e.traceOnce.Do(func() {
			e.tracePID = tr.NextPID()
			tr.ProcessName(e.tracePID, "engine")
			for i := 0; i < cap(e.lanes); i++ {
				tr.ThreadName(e.tracePID, int64(i), fmt.Sprintf("lane %d", i))
			}
		})
		tr.Complete(e.tracePID, int64(lane), key.String(), "engine",
			float64(wallStart.Sub(e.start).Nanoseconds())/1e3,
			float64(wallDur.Nanoseconds())/1e3,
			map[string]any{"device": key.Device, "config": key.Config,
				"workload": key.Workload})
	}
	return ent.val, tm, ent.err
}

// RunAll executes a plan: a fixed set of workers pulls the jobs in plan
// order and serves each through Do, and the results come back in job
// order. There are Workers() workers, plus the executor's Capacity()
// when one is attached, so local lanes and remote slots can all be busy
// at once; the calling goroutine is one of them. On failure the error
// of the lowest-indexed failing job is returned, so the reported error
// does not depend on scheduling. Like Do, RunAll must not be called from
// inside a job of the same engine — the plan's jobs would wait for lanes
// the caller's job is holding — and such a call fails fast.
func (e *Engine) RunAll(jobs []Job) ([]any, error) {
	if e.holdsLane() {
		return nil, nestedErr(fmt.Sprintf("RunAll(%d jobs)", len(jobs)))
	}
	out := make([]any, len(jobs))
	errs := make([]error, len(jobs))
	var next atomic.Int64
	work := func() {
		for i := int(next.Add(1) - 1); i < len(jobs); i = int(next.Add(1) - 1) {
			out[i], errs[i] = e.Do(jobs[i].Key, jobs[i].Run)
		}
	}
	workers := e.Workers()
	if c, ok := e.exec.(interface{ Capacity() int }); ok {
		workers += c.Capacity()
	}
	var wg sync.WaitGroup
	for w := 1; w < min(workers, len(jobs)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("engine: %s: %w", jobs[i].Key, err)
		}
	}
	return out, nil
}
