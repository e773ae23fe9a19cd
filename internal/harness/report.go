// Package harness regenerates every table and figure of the paper's
// evaluation: the device-level tables (Table I, Figures 1-3), the CPU
// results (Figures 7-9, 13, 14) and the GPU results (Figures 10-12),
// plus the configuration tables (II-IV). Each experiment runs the
// simulators through hetsim and prints the same rows/series the paper
// reports, normalised the same way (to BaseCMOS).
package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Row is one labelled series of values in a result table.
type Row struct {
	Label  string
	Values []float64
}

// Table is one reproduced figure or table.
type Table struct {
	ID      string // e.g. "fig7"
	Title   string
	Columns []string // value column headers
	Rows    []Row
	Notes   string
}

// Format renders the table as aligned text.
func (t Table) Format(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title); err != nil {
		return err
	}
	labelW := len("label")
	for _, r := range t.Rows {
		if len(r.Label) > labelW {
			labelW = len(r.Label)
		}
	}
	colW := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		colW[i] = len(c)
		if colW[i] < 8 {
			colW[i] = 8
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-*s", labelW+2, "")
	for i, c := range t.Columns {
		fmt.Fprintf(&b, " %*s", colW[i], c)
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-*s", labelW+2, r.Label)
		for i, v := range r.Values {
			w := 8
			if i < len(colW) {
				w = colW[i]
			}
			fmt.Fprintf(&b, " %*.3f", w, v)
		}
		b.WriteByte('\n')
	}
	if t.Notes != "" {
		fmt.Fprintf(&b, "-- %s\n", t.Notes)
	}
	b.WriteByte('\n')
	_, err := io.WriteString(w, b.String())
	return err
}

// CSV renders the table as comma-separated values.
func (t Table) CSV(w io.Writer) error {
	var b strings.Builder
	b.WriteString("label")
	for _, c := range t.Columns {
		b.WriteByte(',')
		b.WriteString(c)
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		b.WriteString(r.Label)
		for _, v := range r.Values {
			fmt.Fprintf(&b, ",%.6g", v)
		}
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// JSON renders the table as indented JSON (for downstream plotting
// scripts).
func (t Table) JSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t)
}

// Find returns the row with the given label.
func (t Table) Find(label string) (Row, bool) {
	for _, r := range t.Rows {
		if r.Label == label {
			return r, true
		}
	}
	return Row{}, false
}

// Cell returns the value at (rowLabel, column), or an error.
func (t Table) Cell(rowLabel, column string) (float64, error) {
	r, ok := t.Find(rowLabel)
	if !ok {
		return 0, fmt.Errorf("harness: table %s has no row %q", t.ID, rowLabel)
	}
	for i, c := range t.Columns {
		if c == column {
			if i >= len(r.Values) {
				return 0, fmt.Errorf("harness: table %s row %q short of column %q", t.ID, rowLabel, column)
			}
			return r.Values[i], nil
		}
	}
	return 0, fmt.Errorf("harness: table %s has no column %q", t.ID, column)
}
