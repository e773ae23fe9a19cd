package prof

import (
	"fmt"
	"strings"
)

// SchemaVersion identifies the hotspots report format.
const SchemaVersion = "hetcore.prof/v1"

// Report is the `hetcore hotspots` output: one workload run under CPU
// and heap profile, with host cost attributed three ways, all read off
// the pprof protos — by cumulative CPU time (which carries the
// per-stage view: Core.step and the phases it calls), by flat CPU time
// (hottest leaf functions), and by allocation site.
type Report struct {
	Schema       string  `json:"schema"`
	GoVersion    string  `json:"go_version"`
	Device       string  `json:"device"`
	Config       string  `json:"config"`
	Workload     string  `json:"workload"`
	Instructions uint64  `json:"instructions"`
	WallSeconds  float64 `json:"wall_seconds"`

	// CPUCumTop is the top-N function costs by cumulative CPU
	// nanoseconds; CPUTop and HeapTop are the flat top-N by CPU
	// nanoseconds and by alloc_space bytes.
	CPUCumTop []FuncCost `json:"cpu_cum_top,omitempty"`
	CPUTop    []FuncCost `json:"cpu_top,omitempty"`
	HeapTop   []FuncCost `json:"heap_top,omitempty"`
}

// Format renders the report as a human-readable table set.
func (r *Report) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "hotspots: %s %s %s (%d instructions, %.3fs)\n",
		r.Device, r.Config, r.Workload, r.Instructions, r.WallSeconds)

	writeTop := func(title, unit string, top []FuncCost, scale float64, cum bool) {
		if len(top) == 0 {
			return
		}
		fmt.Fprintf(&b, "\n%s\n", title)
		fmt.Fprintf(&b, "  %-56s %12s %8s\n", "function", unit, "share")
		for _, f := range top {
			name := f.Function
			if len(name) > 56 {
				name = "..." + name[len(name)-53:]
			}
			v := f.Flat
			if cum {
				v = f.Cum
			}
			fmt.Fprintf(&b, "  %-56s %12.2f %7.1f%%\n",
				name, float64(v)/scale, f.Share*100)
		}
	}
	writeTop("Top functions by CPU time (pprof cumulative)", "cum_ms", r.CPUCumTop, 1e6, true)
	writeTop("Top functions by CPU time (pprof flat)", "cpu_ms", r.CPUTop, 1e6, false)
	writeTop("Top functions by allocation (pprof alloc_space)", "alloc_kb", r.HeapTop, 1024, false)
	return b.String()
}
