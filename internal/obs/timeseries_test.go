package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

func TestSeriesNilSafe(t *testing.T) {
	var s *Series
	s.Append(1, 2) // must not panic
	if s.Len() != 0 {
		t.Fatalf("nil series Len = %d, want 0", s.Len())
	}
	snap := s.Snapshot()
	if len(snap.Points) != 0 || snap.Total != 0 {
		t.Fatalf("nil series snapshot = %+v, want empty", snap)
	}

	var ss *SeriesSet
	if got := ss.Series("x"); got != nil {
		t.Fatalf("nil set Series = %v, want nil", got)
	}
	if got := ss.Snapshot(); len(got) != 0 {
		t.Fatalf("nil set snapshot = %v, want empty", got)
	}

	var l *EventLog
	l.Add(Event{Name: "x"}) // must not panic
	if l.Total() != 0 || l.Events() != nil {
		t.Fatalf("nil event log not empty: total=%d events=%v", l.Total(), l.Events())
	}
}

func TestSeriesNoCompaction(t *testing.T) {
	s := NewSeries(8)
	for i := 0; i < 5; i++ {
		s.Append(float64(i), float64(i)*10)
	}
	snap := s.Snapshot()
	if snap.Stride != 1 {
		t.Fatalf("stride = %d, want 1", snap.Stride)
	}
	if snap.Total != 5 {
		t.Fatalf("total = %d, want 5", snap.Total)
	}
	if len(snap.Points) != 5 {
		t.Fatalf("points = %d, want 5", len(snap.Points))
	}
	for i, p := range snap.Points {
		if p.T != float64(i) || p.V != float64(i)*10 {
			t.Fatalf("point %d = %+v, want {%d %d}", i, p, i, i*10)
		}
	}
}

func TestSeriesCompactionDoublesStride(t *testing.T) {
	s := NewSeries(4)
	// 5 raw samples into a cap-4 buffer: pushing the 5th point finds the
	// buffer full, merges adjacent pairs (4 -> 2 points) and doubles the
	// stride to 2.
	for i := 0; i < 5; i++ {
		s.Append(float64(i), float64(i))
	}
	snap := s.Snapshot()
	if snap.Stride != 2 {
		t.Fatalf("stride = %d, want 2", snap.Stride)
	}
	// Stored: merged {0, (0+1)/2}, {2, (2+3)/2}, then the raw 5th sample
	// (appended pre-doubling as a finished stride-1 point).
	want := []Point{{T: 0, V: 0.5}, {T: 2, V: 2.5}, {T: 4, V: 4}}
	if len(snap.Points) != len(want) {
		t.Fatalf("points = %+v, want %+v", snap.Points, want)
	}
	for i := range want {
		if snap.Points[i] != want[i] {
			t.Fatalf("point %d = %+v, want %+v", i, snap.Points[i], want[i])
		}
	}
	// After doubling, two more raw samples fill one pending bucket and
	// produce exactly one new stored point whose V is their mean.
	s.Append(5, 10)
	if s.Len() != 3 {
		t.Fatalf("pending sample must not store a point yet (len %d)", s.Len())
	}
	s.Append(6, 20)
	snap = s.Snapshot()
	last := snap.Points[len(snap.Points)-1]
	if last.T != 5 || last.V != 15 {
		t.Fatalf("merged point = %+v, want {5 15}", last)
	}
}

func TestSeriesBoundedForever(t *testing.T) {
	s := NewSeries(16)
	const n = 100000
	for i := 0; i < n; i++ {
		s.Append(float64(i), 1)
	}
	snap := s.Snapshot()
	if len(snap.Points) > 16 {
		t.Fatalf("series exceeded its capacity: %d points", len(snap.Points))
	}
	if snap.Total != n {
		t.Fatalf("total = %d, want %d", snap.Total, n)
	}
	// Downsampling must preserve coverage of the whole run: the first
	// stored point is the first sample and the span reaches near the end.
	if snap.Points[0].T != 0 {
		t.Fatalf("first point T = %v, want 0", snap.Points[0].T)
	}
	lastT := snap.Points[len(snap.Points)-1].T
	if lastT < n/2 {
		t.Fatalf("last point T = %v: series no longer spans the run", lastT)
	}
	// All raw values were 1, so every average must be exactly 1.
	for i, p := range snap.Points {
		if math.Abs(p.V-1) > 1e-12 {
			t.Fatalf("point %d V = %v, want 1", i, p.V)
		}
	}
}

func TestSeriesSnapshotIncludesPending(t *testing.T) {
	s := NewSeries(4)
	for i := 0; i < 5; i++ { // forces stride 2
		s.Append(float64(i), float64(i))
	}
	stored := s.Len()
	s.Append(100, 42) // half-filled pending bucket
	snap := s.Snapshot()
	if len(snap.Points) != stored+1 {
		t.Fatalf("snapshot points = %d, want stored %d + 1 provisional", len(snap.Points), stored)
	}
	last := snap.Points[len(snap.Points)-1]
	if last.T != 100 || last.V != 42 {
		t.Fatalf("provisional point = %+v, want {100 42}", last)
	}
	if s.Len() != stored {
		t.Fatalf("snapshot mutated the series: len %d, want %d", s.Len(), stored)
	}
}

func TestSeriesSetRegistersAndSnapshots(t *testing.T) {
	ss := NewSeriesSet(8)
	ss.Series("b.ipc").Append(0, 1)
	ss.Series("a.ipc").Append(0, 2)
	ss.Series("b.ipc").Append(1, 3)
	snap := ss.Snapshot()
	if len(snap) != 2 || snap["b.ipc"].Total != 2 || snap["a.ipc"].Total != 1 {
		t.Fatalf("snapshot totals wrong: %+v", snap)
	}
	// Same name must return the same series.
	if ss.Series("a.ipc") != ss.Series("a.ipc") {
		t.Fatal("repeated lookup returned a different series")
	}

	var buf bytes.Buffer
	if err := ss.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]SeriesSnapshot
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("WriteJSON output not decodable: %v", err)
	}
	if len(decoded) != 2 {
		t.Fatalf("decoded %d series, want 2", len(decoded))
	}
}

func TestEventLogWraps(t *testing.T) {
	l := NewEventLog(4)
	for i := 0; i < 6; i++ {
		l.Add(Event{T: float64(i), Cat: "test", Name: "e"})
	}
	if l.Total() != 6 {
		t.Fatalf("total = %d, want 6", l.Total())
	}
	got := l.Events()
	if len(got) != 4 {
		t.Fatalf("retained %d events, want 4", len(got))
	}
	// Oldest first: events 2,3,4,5 survive.
	for i, e := range got {
		if e.T != float64(i+2) {
			t.Fatalf("event %d T = %v, want %d", i, e.T, i+2)
		}
	}

	var buf bytes.Buffer
	if err := l.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Total  uint64  `json:"total"`
		Events []Event `json:"events"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("WriteJSON output not decodable: %v", err)
	}
	if decoded.Total != 6 || len(decoded.Events) != 4 {
		t.Fatalf("decoded total=%d events=%d, want 6/4", decoded.Total, len(decoded.Events))
	}
}

func TestObserverSamplePeriod(t *testing.T) {
	var o *Observer
	if got := o.SamplePeriod(); got != 0 {
		t.Fatalf("nil observer sample period = %d, want 0", got)
	}
	o = &Observer{}
	if got := o.SamplePeriod(); got != 0 {
		t.Fatalf("series-less observer sample period = %d, want 0", got)
	}
	o.Series = NewSeriesSet(0)
	if got := o.SamplePeriod(); got != DefaultSampleInterval {
		t.Fatalf("default sample period = %d, want %d", got, DefaultSampleInterval)
	}
	o.SampleInterval = 1000
	if got := o.SamplePeriod(); got != 1000 {
		t.Fatalf("explicit sample period = %d, want 1000", got)
	}
}
