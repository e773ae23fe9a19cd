package traffic

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// SchemaVersion names the traffic report schema; bump on breaking shape
// changes so `hetcore diff` can refuse to compare across them.
const SchemaVersion = "hetcore.traffic/v1"

// Report is the traffic experiment output: every evaluated scenario on
// one trace under one SLO, sorted by scenario name so equal inputs
// serialize byte-identically.
type Report struct {
	Schema    string   `json:"schema"`
	Trace     string   `json:"trace"`
	SLOMS     float64  `json:"slo_ms"`
	Seed      uint64   `json:"seed"`
	Scenarios []Result `json:"scenarios"`
}

// Sort orders the scenarios canonically (by scenario name).
func (r *Report) Sort() {
	sort.Slice(r.Scenarios, func(i, j int) bool {
		return r.Scenarios[i].Scenario < r.Scenarios[j].Scenario
	})
}

// Validate checks the report's invariants.
func (r *Report) Validate() error {
	if r.Schema != SchemaVersion {
		return fmt.Errorf("traffic: schema %q, want %q", r.Schema, SchemaVersion)
	}
	if len(r.Scenarios) == 0 {
		return fmt.Errorf("traffic: report has no scenarios")
	}
	for _, s := range r.Scenarios {
		if s.Trace != r.Trace {
			return fmt.Errorf("traffic: scenario %s ran trace %q, report says %q", s.Scenario, s.Trace, r.Trace)
		}
	}
	return nil
}

// WriteJSON writes the report deterministically (sorted, indented, one
// trailing newline) so CI can byte-compare warm reruns.
func (r *Report) WriteJSON(path string) error {
	r.Sort()
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
