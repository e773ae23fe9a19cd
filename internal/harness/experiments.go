package harness

import (
	"fmt"
	"sort"
	"time"

	"hetcore/internal/hetsim"
	"hetcore/internal/names"
)

// Experiment is one reproducible table or figure of the paper.
type Experiment struct {
	ID       string
	Title    string
	PaperRef string
	Run      func(Options) (Table, error)
}

// Experiments returns the full registry, in paper order.
func Experiments() []Experiment {
	static := func(t Table) func(Options) (Table, error) {
		return func(Options) (Table, error) { return t, nil }
	}
	return []Experiment{
		{ID: "table1", Title: "Technology characteristics at 15nm", PaperRef: "Table I", Run: static(TableI())},
		{ID: "fig1", Title: "I-V characteristics", PaperRef: "Figure 1", Run: static(Fig1())},
		{ID: "fig2", Title: "ALU power vs activity factor", PaperRef: "Figure 2", Run: static(Fig2())},
		{ID: "fig3", Title: "Vdd-frequency curves", PaperRef: "Figure 3", Run: static(Fig3())},
		{ID: "table2", Title: "HetCore design modifications", PaperRef: "Table II", Run: static(TableII())},
		{ID: "table3", Title: "Simulated architecture parameters", PaperRef: "Table III", Run: static(TableIII())},
		{ID: "table4", Title: "Configurations evaluated", PaperRef: "Table IV", Run: static(TableIV())},
		{ID: "fig7", Title: "CPU execution time", PaperRef: "Figure 7", Run: Fig7},
		{ID: "fig8", Title: "CPU energy", PaperRef: "Figure 8", Run: Fig8},
		{ID: "fig9", Title: "CPU ED2", PaperRef: "Figure 9", Run: Fig9},
		{ID: "fig10", Title: "GPU execution time", PaperRef: "Figure 10", Run: Fig10},
		{ID: "fig11", Title: "GPU energy", PaperRef: "Figure 11", Run: Fig11},
		{ID: "fig12", Title: "GPU ED2", PaperRef: "Figure 12", Run: Fig12},
		{ID: "fig13", Title: "CPU design sensitivity", PaperRef: "Figure 13", Run: Fig13},
		{ID: "fig14", Title: "DVFS and process variation", PaperRef: "Figure 14", Run: Fig14},
		{ID: "migration", Title: "Iso-area CMOS+TFET migration CMP vs AdvHet", PaperRef: "Section VIII", Run: Migration},
		{ID: "soc", Title: "Budgeted SoC design-space search (Pareto front)", PaperRef: "ROADMAP", Run: SoC},
		{ID: "socbreak", Title: "SoC per-config time/energy breakdown", PaperRef: "ROADMAP", Run: SoCBreak},
		{ID: "accel", Title: "Per-kernel accelerators vs AdvHet GPU", PaperRef: "ROADMAP", Run: Accel},
		{ID: "socaccel", Title: "SoC class-best comparison (cores vs GPU vs accelerators)", PaperRef: "ROADMAP", Run: SoCAccel},
		{ID: "traffic", Title: "Diurnal traffic: mixes × scheduling policies", PaperRef: "ROADMAP", Run: Traffic},
		{ID: "traffic_policies", Title: "Scheduling-policy ablation across traffic traces", PaperRef: "ROADMAP", Run: TrafficPolicies},
		{ID: "ablations", Title: "Per-mechanism design ablations", PaperRef: "DESIGN.md", Run: Ablations},
		{ID: "cycles", Title: "Top-down CPU cycle attribution", PaperRef: "DESIGN.md", Run: CPUCycles},
		{ID: "gpucycles", Title: "Top-down GPU cycle attribution", PaperRef: "DESIGN.md", Run: GPUCycles},
	}
}

// RunExperiment runs e through the observability layer: the phase label
// for run records, a wall-clock slice on the harness trace timeline
// (pid 0) and harness-level counters. With opts.Obs nil it is exactly
// e.Run(opts).
func RunExperiment(e Experiment, opts Options) (Table, error) {
	o := opts.Obs
	o.SetPhase(e.ID)
	start := time.Now()
	t, err := e.Run(opts)
	if tr := o.Tracer(); tr.Enabled() {
		tr.Complete(0, 0, e.ID, "harness",
			float64(start.UnixNano())/1e3,
			float64(time.Since(start).Nanoseconds())/1e3,
			map[string]any{"title": e.Title, "paper_ref": e.PaperRef})
	}
	if reg := o.Reg(); reg != nil {
		reg.Counter("harness.experiments_total").Inc()
		if err != nil {
			reg.Counter("harness.experiments_failed").Inc()
		}
	}
	return t, err
}

// ByID returns the experiment with the given ID. On a miss the error
// names the closest known ID (by edit distance) plus the full list.
func ByID(id string) (Experiment, error) {
	exps := Experiments()
	for _, e := range exps {
		if e.ID == id {
			return e, nil
		}
	}
	ids := make([]string, len(exps))
	for i, e := range exps {
		ids[i] = e.ID
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("harness: unknown experiment %q (closest match %q; have %v)",
		id, names.Nearest(id, ids), ids)
}

// TableII reproduces Table II as a descriptive listing (no numeric data in
// the original; we list the unit count moved to TFET per design).
func TableII() Table {
	return Table{
		ID:      "table2",
		Title:   "Design modifications for HetCore",
		Columns: []string{"TFET-units"},
		Rows: []Row{
			{Label: "BaseHet CPU: FPUs, ALUs, DL1, L2, L3 in TFET", Values: []float64{5}},
			{Label: "AdvHet CPU: + asym DL1, dual-speed ALU, larger ROB & FP RF", Values: []float64{5}},
			{Label: "BaseHet GPU: SIMD FPUs and RF in TFET", Values: []float64{2}},
			{Label: "AdvHet GPU: + register file cache", Values: []float64{2}},
		},
		Notes: "See Table IV for the full configuration matrix.",
	}
}

// TableIII reproduces Table III: the simulated architecture parameters.
func TableIII() Table {
	cpuCfg, _ := hetsim.CPUConfigByName("BaseCMOS")
	hetCfg, _ := hetsim.CPUConfigByName("BaseHet")
	gpuCfg, _ := hetsim.GPUConfigByName("BaseCMOS")
	gpuHet, _ := hetsim.GPUConfigByName("BaseHet")
	c := cpuCfg.Core
	h := cpuCfg.Hier
	th := hetCfg.Hier
	return Table{
		ID:      "table3",
		Title:   "Parameters of the simulated architecture",
		Columns: []string{"value"},
		Rows: []Row{
			{Label: "CPU cores", Values: []float64{float64(cpuCfg.Cores)}},
			{Label: "Issue width", Values: []float64{float64(c.IssueWidth)}},
			{Label: "CPU frequency (GHz)", Values: []float64{c.FreqGHz}},
			{Label: "INT/FP regs", Values: []float64{float64(c.IntRegs), float64(c.FPRegs)}},
			{Label: "ROB entries", Values: []float64{float64(c.ROBSize)}},
			{Label: "Issue queue entries", Values: []float64{float64(c.IQSize)}},
			{Label: "Ld-St queue entries", Values: []float64{float64(c.LSQSize)}},
			{Label: "ALUs / IntMul / LSU / FPU", Values: []float64{float64(c.NumALU), float64(c.NumMul), float64(c.NumLSU), float64(c.NumFPU)}},
			{Label: "ALU latency CMOS/TFET (cyc)", Values: []float64{float64(c.IntLat.ALU), float64(hetCfg.Core.IntLat.ALU)}},
			{Label: "FP add CMOS/TFET (cyc)", Values: []float64{float64(c.FPLat.FPAdd), float64(hetCfg.Core.FPLat.FPAdd)}},
			{Label: "FP mul CMOS/TFET (cyc)", Values: []float64{float64(c.FPLat.FPMul), float64(hetCfg.Core.FPLat.FPMul)}},
			{Label: "FP div CMOS/TFET (cyc)", Values: []float64{float64(c.FPLat.FPDiv), float64(hetCfg.Core.FPLat.FPDiv)}},
			{Label: "IL1 size (KB) / RT (cyc)", Values: []float64{float64(h.IL1Size) / 1024, float64(h.IL1RT)}},
			{Label: "DL1 size (KB) / RT CMOS/TFET", Values: []float64{float64(h.DL1Size) / 1024, float64(h.DL1RT), float64(th.DL1RT)}},
			{Label: "L2 size (KB) / RT CMOS/TFET", Values: []float64{float64(h.L2Size) / 1024, float64(h.L2RT), float64(th.L2RT)}},
			{Label: "L3 per core (MB) / RT CMOS/TFET", Values: []float64{float64(h.L3SizePerCore) / (1024 * 1024), float64(h.L3RT), float64(th.L3RT)}},
			{Label: "DRAM round trip (ns)", Values: []float64{float64(h.DRAMCycles) / cpuCfg.FreqGHz()}},
			{Label: "GPU CUs / EUs per CU", Values: []float64{float64(gpuCfg.Dev.CUs), float64(gpuCfg.Dev.EUsPerCU)}},
			{Label: "GPU frequency (GHz)", Values: []float64{gpuCfg.Dev.FreqGHz}},
			{Label: "FMA latency CMOS/TFET (cyc)", Values: []float64{float64(gpuCfg.Dev.FMALat), float64(gpuHet.Dev.FMALat)}},
			{Label: "Vector RF access CMOS/TFET (cyc)", Values: []float64{float64(gpuCfg.Dev.RFLat), float64(gpuHet.Dev.RFLat)}},
			{Label: "RF cache entries/thread", Values: []float64{float64(gpuCfg.Dev.RFCacheEntries)}},
		},
		Notes: "Ring interconnect with MESI directory-based protocol.",
	}
}

// TableIV lists every evaluated configuration with core counts and
// frequencies.
func TableIV() Table {
	var rows []Row
	for _, c := range hetsim.CPUConfigs() {
		rows = append(rows, Row{
			Label:  "CPU " + c.Name + ": " + c.Notes,
			Values: []float64{float64(c.Cores), c.FreqGHz()},
		})
	}
	for _, g := range hetsim.GPUConfigs() {
		rows = append(rows, Row{
			Label:  "GPU " + g.Name + ": " + g.Notes,
			Values: []float64{float64(g.Dev.CUs), g.Dev.FreqGHz},
		})
	}
	return Table{
		ID:      "table4",
		Title:   "CPU and GPU configurations evaluated",
		Columns: []string{"cores/CUs", "GHz"},
		Rows:    rows,
	}
}
