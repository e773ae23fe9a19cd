package main

import (
	"strings"
	"testing"

	"hetcore/internal/trace"
)

// TestPrintSummaryZeroDenominators: a summary with no instructions, or
// with no memory operations, prints 0 shares instead of NaN.
func TestPrintSummaryZeroDenominators(t *testing.T) {
	for _, tc := range []struct {
		name string
		s    trace.Summary
		want []string
	}{
		{"empty", trace.Summary{}, []string{"  alu           0  (0.0%)", "two-source     0.0%", "shared mem ops 0.00%"}},
		{"no memory ops", trace.Summary{Instructions: 10, OpCounts: [9]uint64{10}, Dep2Count: 3},
			[]string{"  alu          10  (100.0%)", "two-source     30.0%", "shared mem ops 0.00%"}},
	} {
		var b strings.Builder
		printSummary(&b, tc.s)
		out := b.String()
		if strings.Contains(out, "NaN") {
			t.Errorf("%s: output holds NaN:\n%s", tc.name, out)
		}
		for _, line := range tc.want {
			if !strings.Contains(out, line+"\n") {
				t.Errorf("%s: missing line %q in:\n%s", tc.name, line, out)
			}
		}
	}
}
