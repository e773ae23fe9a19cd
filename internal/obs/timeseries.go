package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// This file is the live half of the observability layer: bounded,
// downsampling time series the simulators feed every sampling interval,
// and a bounded event log for discrete occurrences (migration
// redistributions, traffic wake/sleep changes). Both are nil-safe like
// every other obs type, and both are bounded so a multi-hour sweep
// cannot grow memory without limit: a Series that fills its capacity
// halves itself by merging adjacent points and doubles its accumulation
// stride, so the buffer always covers the whole run at progressively
// coarser resolution.

// Point is one stored time-series sample. T is simulated time (the unit
// is whatever the writer used — hetsim uses simulated microseconds, the
// same axis as the Chrome trace); V is the mean of the raw samples the
// point covers.
type Point struct {
	T float64 `json:"t"`
	V float64 `json:"v"`
}

// DefaultSeriesCap is the per-series point capacity. 512 points render a
// sparkline at better-than-pixel resolution while keeping /series
// payloads small.
const DefaultSeriesCap = 512

// Series is a fixed-capacity time series with automatic downsampling. A
// nil *Series discards appends.
type Series struct {
	mu     sync.Mutex
	points []Point
	cap    int
	// stride is how many raw samples one stored point covers; it doubles
	// every time the buffer compacts.
	stride int
	// pending accumulates raw samples until stride of them have arrived.
	pendingT, pendingV float64
	pendingN           int
	total              uint64 // raw samples ever appended
}

// NewSeries returns a series storing at most capPoints points
// (DefaultSeriesCap if capPoints <= 0).
func NewSeries(capPoints int) *Series {
	if capPoints <= 0 {
		capPoints = DefaultSeriesCap
	}
	if capPoints < 2 {
		capPoints = 2
	}
	return &Series{points: make([]Point, 0, capPoints), cap: capPoints, stride: 1}
}

// Append records one raw sample at simulated time t. Samples are
// averaged in groups of the current stride; when the buffer fills, it
// compacts to half occupancy and the stride doubles, so the series
// always spans the full run.
func (s *Series) Append(t, v float64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.total++
	if s.pendingN == 0 {
		s.pendingT = t
	}
	s.pendingV += v
	s.pendingN++
	if s.pendingN >= s.stride {
		s.push(Point{T: s.pendingT, V: s.pendingV / float64(s.pendingN)})
		s.pendingT, s.pendingV, s.pendingN = 0, 0, 0
	}
	s.mu.Unlock()
}

// push appends a finished point, compacting first if the buffer is full.
// Caller holds s.mu.
func (s *Series) push(p Point) {
	if len(s.points) == s.cap {
		// Merge adjacent pairs: keep the first point's timestamp, average
		// the values. An odd trailing point is kept as-is.
		half := s.points[:0]
		for i := 0; i+1 < s.cap; i += 2 {
			a, b := s.points[i], s.points[i+1]
			half = append(half, Point{T: a.T, V: (a.V + b.V) / 2})
		}
		if s.cap%2 == 1 {
			half = append(half, s.points[s.cap-1])
		}
		s.points = half
		s.stride *= 2
	}
	s.points = append(s.points, p)
}

// SeriesSnapshot is the exported state of one series.
type SeriesSnapshot struct {
	Points []Point `json:"points"`
	Stride int     `json:"stride"` // raw samples per stored point
	Total  uint64  `json:"total"`  // raw samples ever appended
}

// Snapshot copies the stored points (the in-progress pending bucket is
// included as a provisional final point so live dashboards see the most
// recent data). A nil series snapshots empty.
func (s *Series) Snapshot() SeriesSnapshot {
	if s == nil {
		return SeriesSnapshot{Points: []Point{}}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := SeriesSnapshot{
		Points: append([]Point(nil), s.points...),
		Stride: s.stride,
		Total:  s.total,
	}
	if s.pendingN > 0 {
		snap.Points = append(snap.Points, Point{T: s.pendingT, V: s.pendingV / float64(s.pendingN)})
	}
	return snap
}

// Len returns the number of stored points (excluding the pending
// bucket).
func (s *Series) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.points)
}

// SeriesSet holds named series, registering on first use. A nil
// *SeriesSet is the disabled set: Series returns nil, whose Append is a
// no-op.
type SeriesSet struct {
	mu     sync.Mutex
	series map[string]*Series
	cap    int
}

// NewSeriesSet returns an empty set whose series store capPoints points
// each (DefaultSeriesCap if <= 0).
func NewSeriesSet(capPoints int) *SeriesSet {
	return &SeriesSet{series: make(map[string]*Series), cap: capPoints}
}

// Series returns (registering on first use) the named series.
func (ss *SeriesSet) Series(name string) *Series {
	if ss == nil {
		return nil
	}
	ss.mu.Lock()
	defer ss.mu.Unlock()
	s, ok := ss.series[name]
	if !ok {
		s = NewSeries(ss.cap)
		ss.series[name] = s
	}
	return s
}

// Snapshot captures every registered series, keyed by name.
func (ss *SeriesSet) Snapshot() map[string]SeriesSnapshot {
	out := map[string]SeriesSnapshot{}
	if ss == nil {
		return out
	}
	ss.mu.Lock()
	named := make(map[string]*Series, len(ss.series))
	for k, v := range ss.series {
		named[k] = v
	}
	ss.mu.Unlock()
	for k, v := range named {
		out[k] = v.Snapshot()
	}
	return out
}

// WriteJSON writes the full set snapshot as indented JSON (the /series
// payload).
func (ss *SeriesSet) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(ss.Snapshot()); err != nil {
		return fmt.Errorf("obs: encoding series: %w", err)
	}
	return nil
}

// Event is one discrete occurrence on the simulated timeline: a
// migration redistribution, a traffic wake/sleep change.
type Event struct {
	T    float64            `json:"t"` // simulated time (same axis as Series)
	Cat  string             `json:"cat"`
	Name string             `json:"name"`
	Args map[string]float64 `json:"args,omitempty"`
}

// DefaultEventCap bounds the event log.
const DefaultEventCap = 4096

// EventLog is a bounded ring of events; once full, the oldest events are
// overwritten. A nil *EventLog discards appends.
type EventLog struct {
	mu      sync.Mutex
	ring    []Event
	next    int
	wrapped bool
	total   uint64
}

// NewEventLog returns a log keeping the most recent capEvents events
// (DefaultEventCap if <= 0).
func NewEventLog(capEvents int) *EventLog {
	if capEvents <= 0 {
		capEvents = DefaultEventCap
	}
	return &EventLog{ring: make([]Event, capEvents)}
}

// Add appends an event, overwriting the oldest once the ring is full.
func (l *EventLog) Add(e Event) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.ring[l.next] = e
	l.next++
	if l.next == len(l.ring) {
		l.next = 0
		l.wrapped = true
	}
	l.total++
	l.mu.Unlock()
}

// Events returns the retained events, oldest first.
func (l *EventLog) Events() []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.wrapped {
		return append([]Event(nil), l.ring[:l.next]...)
	}
	out := make([]Event, 0, len(l.ring))
	out = append(out, l.ring[l.next:]...)
	out = append(out, l.ring[:l.next]...)
	return out
}

// Total returns the number of events ever added (retained or not).
func (l *EventLog) Total() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// WriteJSON writes the retained events as indented JSON (the /events
// payload).
func (l *EventLog) WriteJSON(w io.Writer) error {
	events := l.Events()
	if events == nil {
		events = []Event{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(struct {
		Total  uint64  `json:"total"`
		Events []Event `json:"events"`
	}{l.Total(), events}); err != nil {
		return fmt.Errorf("obs: encoding events: %w", err)
	}
	return nil
}
