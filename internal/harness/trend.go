package harness

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"hetcore/internal/dist"
	"hetcore/internal/traffic"
)

// This file is the trend layer over the benchmark records: `hetcore
// bench -history` and `hetload -history` append one JSONL entry per
// measurement to BENCH_history.jsonl, and `hetcore trend` compares the
// newest entry of each kind against the metric-wise median of the prior
// entries with the same direction-aware thresholds `hetcore diff` uses.
// A median baseline makes the gate robust to individual noisy runs: one
// slow measurement in the history does not move the reference much, and
// one slow new measurement still trips the gate.

// TrendSchemaVersion identifies the history-entry format.
const TrendSchemaVersion = "hetcore.trend/v1"

// HistoryEntry is one appended benchmark measurement: exactly one of
// Bench, Load or Traffic is set, matching Kind ("bench", "load" or
// "traffic").
type HistoryEntry struct {
	Schema    string `json:"schema"`
	Kind      string `json:"kind"`
	UnixSec   int64  `json:"unix_sec"`
	GoVersion string `json:"go_version"`

	Bench   *BenchRecord     `json:"bench,omitempty"`
	Load    *dist.LoadRecord `json:"load,omitempty"`
	Traffic *traffic.Report  `json:"traffic,omitempty"`
}

// validate checks the entry invariants.
func (e HistoryEntry) validate() error {
	if e.Schema != TrendSchemaVersion {
		return fmt.Errorf("harness: history entry schema %q, want %q", e.Schema, TrendSchemaVersion)
	}
	switch e.Kind {
	case "bench":
		if e.Bench == nil {
			return fmt.Errorf("harness: bench history entry without bench record")
		}
	case "load":
		if e.Load == nil {
			return fmt.Errorf("harness: load history entry without load record")
		}
	case "traffic":
		if e.Traffic == nil {
			return fmt.Errorf("harness: traffic history entry without traffic report")
		}
	default:
		return fmt.Errorf("harness: unknown history entry kind %q", e.Kind)
	}
	return nil
}

// AppendHistory appends one entry to the JSONL history file, creating
// it if needed. Entries are single lines, so concurrent appenders from
// different CI runs cannot corrupt prior lines.
func AppendHistory(path string, e HistoryEntry) error {
	if err := e.validate(); err != nil {
		return err
	}
	line, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("harness: encoding history entry: %w", err)
	}
	fh, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := fh.Write(append(line, '\n')); err != nil {
		fh.Close()
		return err
	}
	return fh.Close()
}

// LoadHistory reads a JSONL history file in append order. Blank lines
// are skipped; a malformed or invalid line is an error (history is
// machine-written).
func LoadHistory(path string) ([]HistoryEntry, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer fh.Close()
	var out []HistoryEntry
	sc := bufio.NewScanner(fh)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	n := 0
	for sc.Scan() {
		n++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var e HistoryEntry
		if err := json.Unmarshal(line, &e); err != nil {
			return nil, fmt.Errorf("%s:%d: decoding history entry: %w", path, n, err)
		}
		if err := e.validate(); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: reading history: %w", path, err)
	}
	return out, nil
}

// TrendKindResult is the regression verdict for one entry kind.
type TrendKindResult struct {
	Kind string `json:"kind"`
	// Baseline is how many prior entries fed the median (0 = fewer than
	// two entries of this kind; the kind is then trivially OK).
	Baseline int        `json:"baseline"`
	Diff     DiffResult `json:"diff"`
}

// TrendResult is the full trend comparison across entry kinds.
type TrendResult struct {
	Kinds []TrendKindResult `json:"kinds"`
}

// Regressed reports whether any kind's newest entry regressed against
// its median baseline.
func (r TrendResult) Regressed() bool {
	for _, k := range r.Kinds {
		if k.Diff.Regressed() {
			return true
		}
	}
	return false
}

// Format renders the trend verdicts as diff tables.
func (r TrendResult) Format(w io.Writer) error {
	for _, k := range r.Kinds {
		if k.Baseline == 0 {
			if _, err := fmt.Fprintf(w, "== %s: only one entry, nothing to compare (OK)\n", k.Kind); err != nil {
				return err
			}
			continue
		}
		if _, err := fmt.Fprintf(w, "== %s: newest vs median of %d prior entr%s\n",
			k.Kind, k.Baseline, plural(k.Baseline, "y", "ies")); err != nil {
			return err
		}
		if err := k.Diff.Format(w); err != nil {
			return err
		}
	}
	return nil
}

func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}

// Trend compares, per kind, the newest history entry against the
// metric-wise median of up to window prior entries (0 = all prior).
// Kinds with fewer than two entries are reported with Baseline 0 and an
// empty diff. The diff uses the same direction-aware thresholds as
// `hetcore diff`: deterministic counts must match within RelTol,
// host-timing rates regress only beyond RateTol.
func Trend(entries []HistoryEntry, window int, opts DiffOptions) TrendResult {
	byKind := map[string][]HistoryEntry{}
	var kinds []string
	for _, e := range entries {
		if len(byKind[e.Kind]) == 0 {
			kinds = append(kinds, e.Kind)
		}
		byKind[e.Kind] = append(byKind[e.Kind], e)
	}
	sort.Strings(kinds)

	var res TrendResult
	for _, kind := range kinds {
		es := byKind[kind]
		kr := TrendKindResult{Kind: kind}
		if len(es) >= 2 {
			newest := es[len(es)-1]
			prior := es[:len(es)-1]
			if window > 0 && len(prior) > window {
				prior = prior[len(prior)-window:]
			}
			kr.Baseline = len(prior)
			vecs := make([][]metric, len(prior))
			for i, e := range prior {
				vecs[i] = e.metrics()
			}
			kr.Diff = diffMetrics(kind, medianMetrics(vecs), newest.metrics(), opts)
		}
		res.Kinds = append(res.Kinds, kr)
	}
	return res
}

// median returns the median of vs (0 for an empty slice; the mean of
// the middle pair for even lengths).
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// medianMetrics is the metric-wise median of the prior vectors, in
// first-seen order: each metric's median over the entries that carry it.
// Bench records that predate the suite fields, and scenarios of another
// trace, therefore never drag a median.
func medianMetrics(prior [][]metric) []metric {
	var out []metric
	vals := map[metricKey][]float64{}
	for _, ms := range prior {
		for _, m := range ms {
			if _, ok := vals[m.key()]; !ok {
				out = append(out, m)
			}
			vals[m.key()] = append(vals[m.key()], m.value)
		}
	}
	for i, m := range out {
		out[i].value = median(vals[m.key()])
	}
	return out
}

// metrics flattens the entry's payload to its metric vector.
func (e HistoryEntry) metrics() []metric {
	switch e.Kind {
	case "bench":
		return benchMetrics(*e.Bench)
	case "load":
		return loadMetrics(*e.Load)
	case "traffic":
		return trafficMetrics(*e.Traffic)
	}
	return nil
}

// NewBenchHistoryEntry wraps a bench record for the history file.
// unixSec stamps the measurement time (clock-read by the caller so
// library code stays deterministic under test).
func NewBenchHistoryEntry(b BenchRecord, unixSec int64) HistoryEntry {
	return HistoryEntry{
		Schema: TrendSchemaVersion, Kind: "bench",
		UnixSec: unixSec, GoVersion: b.GoVersion, Bench: &b,
	}
}

// NewLoadHistoryEntry wraps a load record for the history file.
func NewLoadHistoryEntry(l dist.LoadRecord, unixSec int64) HistoryEntry {
	return HistoryEntry{
		Schema: TrendSchemaVersion, Kind: "load",
		UnixSec: unixSec, GoVersion: l.GoVersion, Load: &l,
	}
}

// NewTrafficHistoryEntry wraps a traffic report for the history file.
func NewTrafficHistoryEntry(r traffic.Report, goVersion string, unixSec int64) HistoryEntry {
	return HistoryEntry{
		Schema: TrendSchemaVersion, Kind: "traffic",
		UnixSec: unixSec, GoVersion: goVersion, Traffic: &r,
	}
}
