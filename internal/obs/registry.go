// Package obs is the simulator-wide observability layer: a typed metrics
// registry (counters, gauges, fixed-bucket histograms), a Chrome
// trace-event (Perfetto-loadable) emitter, structured run records, and a
// progress heartbeat. Every entry point is nil-receiver safe, so an
// uninstrumented run pays only a nil check: hetsim, the harness and the
// CLIs thread a possibly-nil *Observer through and never branch on it.
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is ready
// to use; a nil Counter discards writes.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 metric that can move in either direction. A nil
// Gauge discards writes.
type Gauge struct {
	bits atomic.Uint64 // last Set value
	add  atomic.Int64  // accumulated Adds, fixed-point gaugeAddUnit units
}

// gaugeAddScale is the fixed-point scale for Gauge.Add: values are
// accumulated as round(v*scale) in an int64. Integer accumulation is
// commutative, so concurrent Adds (e.g. from the engine worker pool)
// total bit-identically regardless of completion order — float addition
// would leak scheduling into the snapshot via rounding. 1e12 keeps
// joule-scale metrics exact to the picojoule with headroom to ~9e6 in
// the int64 sum, and is itself exactly representable, so quantities
// round-trip through the nearest double.
const gaugeAddScale = 1e12

// Set stores v (NaN and infinities are dropped to keep exports valid
// JSON).
func (g *Gauge) Set(v float64) {
	if g == nil || math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add increments the gauge by v. The running total is order-independent:
// any interleaving of the same Adds yields the same Value.
func (g *Gauge) Add(v float64) {
	if g == nil || math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	g.add.Add(int64(math.Round(v * gaugeAddScale)))
}

// Value returns the current value (0 for a nil gauge): the last Set
// value plus everything Added.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load()) + float64(g.add.Load())/gaugeAddScale
}

// Histogram is a fixed-bucket histogram: Observe(v) increments the count
// of the first bucket whose upper bound is >= v, or the overflow bucket.
// A nil Histogram discards observations.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // ascending upper bounds
	counts []uint64  // len(bounds)+1, last = overflow
	sum    int64     // fixed-point, gaugeAddScale units; see Gauge.Add
	n      uint64
}

// Observe records one sample. The exported sum accumulates in
// fixed-point so it is independent of observation order (concurrent
// runs on the engine worker pool complete in any order).
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	h.mu.Lock()
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sum += int64(math.Round(v * gaugeAddScale))
	h.n++
	h.mu.Unlock()
}

// HistogramSnapshot is the exported state of a histogram.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"` // len(Bounds)+1; last bucket is overflow
	Sum    float64   `json:"sum"`
	Count  uint64    `json:"count"`
}

// Quantile estimates the q-th quantile (q in [0,1]) by linear
// interpolation within the containing bucket. The first bucket
// interpolates from 0 (all observed values are assumed non-negative, as
// every metric in this simulator is); the overflow bucket has no upper
// bound, so its answer is clamped to the last finite bound. An empty
// snapshot returns 0; a single-sample snapshot returns that sample
// exactly (the bucket has nothing to interpolate over, and Sum of one
// observation is the observation); q is clamped to [0,1].
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Counts) == 0 {
		return 0
	}
	if s.Count == 1 {
		return s.Sum
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	cum := 0.0
	for i, c := range s.Counts {
		prev := cum
		cum += float64(c)
		if cum < rank || c == 0 {
			continue
		}
		lo := 0.0
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		if i >= len(s.Bounds) {
			// Overflow bucket: unbounded above, report the last finite
			// bound (the histogram cannot resolve further).
			return lo
		}
		hi := s.Bounds[i]
		frac := (rank - prev) / float64(c)
		return lo + (hi-lo)*frac
	}
	// rank beyond every count (q == 1 with trailing zero buckets).
	if len(s.Bounds) > 0 {
		return s.Bounds[len(s.Bounds)-1]
	}
	return 0
}

func (h *Histogram) snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: append([]uint64(nil), h.counts...),
		Sum:    float64(h.sum) / gaugeAddScale,
		Count:  h.n,
	}
	return s
}

// Registry holds named metrics. A nil *Registry is the disabled registry:
// every lookup returns a nil instrument whose methods are no-ops.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty, enabled registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns (registering on first use) the named counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (registering on first use) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (registering on first use) the named histogram with
// the given ascending bucket upper bounds. Bounds are fixed at first
// registration; later calls with different bounds get the original.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		if !sort.Float64sAreSorted(bounds) {
			bounds = append([]float64(nil), bounds...)
			sort.Float64s(bounds)
		}
		h = &Histogram{
			bounds: append([]float64(nil), bounds...),
			counts: make([]uint64, len(bounds)+1),
		}
		r.hists[name] = h
	}
	return h
}

// Snapshot is a point-in-time, JSON-serialisable view of a registry.
// encoding/json sorts map keys, so marshalling a snapshot is
// deterministic.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot captures every registered metric. A nil registry snapshots
// empty.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]uint64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.Unlock()
	for k, v := range counters {
		s.Counters[k] = v.Value()
	}
	for k, v := range gauges {
		s.Gauges[k] = v.Value()
	}
	for k, v := range hists {
		s.Histograms[k] = v.snapshot()
	}
	return s
}
