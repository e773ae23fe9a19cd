// Command hetcore reproduces the tables and figures of "HetCore:
// TFET-CMOS Hetero-Device Architecture for CPUs and GPUs" (ISCA 2018),
// and holds the tools around that reproduction: sensitivity sweeps of
// the AdvHet knobs, trace inspection, a load generator for hetserved
// daemons and the regression gates.
//
// Usage:
//
//	hetcore <command> [flags]
//
// "hetcore help" lists the commands; "hetcore <command> -h" prints the
// flags of one command with their defaults.
//
// The commands that plan their runs as engine jobs share -jobs (the
// worker-pool width), -cache-dir (every simulated point persists,
// content-addressed under SHA-256 of the engine key plus the version
// stamp) and, where their jobs can run remotely, -remote (hetserved
// daemons as extra engine lanes with local fallback). None of them
// changes the output. The observability flags (-metrics-out, -trace-out, -progress,
// -serve, -cpuprofile, -memprofile) record every run a command makes.
// Figures 7-9 and 13-14 simulate the 14 CPU workloads on every
// configuration, so expect tens of seconds at the default instruction
// budget.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"hetcore/internal/dist"
	"hetcore/internal/harness"
	"hetcore/internal/obs"
	"hetcore/internal/soc"
	"hetcore/internal/traffic"
)

// command is one hetcore subcommand.
type command struct {
	name, summary string
	run           func(args []string) error
}

// commands are the subcommands in the order "hetcore help" lists them.
var commands = []command{
	{"list", "list all experiments", list},
	{"run", "run one experiment (run -exp fig7)", run},
	{"all", "run every experiment in paper order", all},
	{"soc", "budgeted SoC design-space search: Pareto front of core/GPU/accelerator mixes", socCmd},
	{"traffic", "diurnal traffic scenarios: core mixes x scheduling policies", trafficCmd},
	{"sweep", "sensitivity sweep of one AdvHet knob (sweep -sweep fastsize)", sweep},
	{"trace", "inspect or snapshot a synthetic workload trace (trace stats|dump)", traceCmd},
	{"load", "drive an open- or closed-loop job stream at a hetserved daemon", load},
	{"bench", "measure this host's simulation rate", bench},
	{"hotspots", "profile one workload: top functions by cumulative/flat CPU and allocation", hotspots},
	{"diff", "compare two reports, bench, load records or traffic reports; exit 1 on regression", diff},
	{"version", "print the cache/wire version stamp", version},
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	name := os.Args[1]
	if name == "help" || name == "-h" || name == "--help" {
		usage()
		return
	}
	for _, c := range commands {
		if c.name == name {
			if err := c.run(os.Args[2:]); err != nil {
				fmt.Fprintln(os.Stderr, "hetcore:", err)
				os.Exit(1)
			}
			return
		}
	}
	fmt.Fprintf(os.Stderr, "hetcore: unknown command %q\n", name)
	usage()
	os.Exit(2)
}

func usage() {
	fmt.Fprint(os.Stderr, "hetcore - HetCore (ISCA 2018) reproduction harness\n\nCommands:\n")
	for _, c := range commands {
		fmt.Fprintf(os.Stderr, "  %-9s %s\n", c.name, c.summary)
	}
	fmt.Fprint(os.Stderr, "\nRun 'hetcore <command> -h' for the flags of a command and their defaults.\n")
}

// tableFlags are the flags of the commands that run experiments and
// print their tables.
type tableFlags struct {
	sim     *harness.SimFlags
	ob      *harness.ObsFlags
	csv, js *bool
}

func addTableFlags(fs *flag.FlagSet) tableFlags {
	return tableFlags{
		sim: harness.AddSimFlags(fs),
		ob:  harness.AddObsFlags(fs),
		csv: fs.Bool("csv", false, "emit CSV"),
		js:  fs.Bool("json", false, "emit JSON"),
	}
}

// emit writes a table in the selected format.
func (f tableFlags) emit(t harness.Table) error {
	switch {
	case *f.js:
		return t.JSON(os.Stdout)
	case *f.csv:
		return t.CSV(os.Stdout)
	default:
		return t.Format(os.Stdout)
	}
}

// version prints the identifiers that govern cache and wire
// compatibility. The first line is the dist stamp folded into every
// persistent cache entry and checked against every -remote worker: two
// builds with different stamps never share results, so stale caches
// self-invalidate on any code or device-table change.
func version([]string) error {
	fmt.Println(dist.Stamp())
	fmt.Printf("  cache schema:      v%d\n", dist.CacheVersion)
	fmt.Printf("  device-table hash: %s\n", dist.DeviceTableHash())
	fmt.Printf("  report schema:     %s\n", obs.SchemaVersion)
	fmt.Printf("  go:                %s\n", runtime.Version())
	return nil
}

func list([]string) error {
	for _, e := range harness.Experiments() {
		fmt.Printf("%-10s %-14s %s\n", e.ID, "("+e.PaperRef+")", e.Title)
	}
	return nil
}

func run(args []string) error {
	fs := flag.NewFlagSet("hetcore run", flag.ExitOnError)
	exp := fs.String("exp", "", "experiment ID (see 'hetcore list')")
	f := addTableFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *exp == "" {
		return fmt.Errorf("run requires -exp (see 'hetcore list')")
	}
	e, err := harness.ByID(*exp)
	if err != nil {
		return err
	}
	sess, opts, err := f.sim.Start(f.ob, os.Args, e.ID)
	if err != nil {
		return err
	}
	t, err := harness.RunExperiment(e, opts)
	if err != nil {
		return err
	}
	if err := f.emit(t); err != nil {
		return err
	}
	return sess.Close()
}

func all(args []string) error {
	fs := flag.NewFlagSet("hetcore all", flag.ExitOnError)
	f := addTableFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	sess, opts, err := f.sim.Start(f.ob, os.Args)
	if err != nil {
		return err
	}
	if err := harness.Prepass(opts); err != nil {
		return fmt.Errorf("prepass: %w", err)
	}
	for _, e := range harness.Experiments() {
		sess.Experiments = append(sess.Experiments, e.ID)
		t, err := harness.RunExperiment(e, opts)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		if *f.csv || *f.js {
			fmt.Printf("# %s (%s)\n", e.ID, e.PaperRef)
		}
		if err := f.emit(t); err != nil {
			return err
		}
		if *f.csv || *f.js {
			fmt.Println()
		}
	}
	return sess.Close()
}

// socCmd runs the budgeted SoC design-space search: every CMOS/TFET
// core + GPU CU mix that fits the budget is evaluated over the paired
// workloads (through the shared engine, so the component simulations
// and compositions cache like any other experiment) and the Pareto
// front on (time, energy) is printed.
func socCmd(args []string) error {
	fs := flag.NewFlagSet("hetcore soc", flag.ExitOnError)
	budgetW := fs.Float64("budget-w", 0, "power budget in watts (0 = default 20)")
	budgetMM2 := fs.Float64("budget-mm2", 0, "area budget in mm^2 (0 = default 50)")
	breakdown := fs.Bool("breakdown", false, "also print the per-workload breakdown of Pareto mixes")
	accel := fs.Bool("accel", false, "also print the class-best comparison (cores vs GPU vs accelerators)")
	f := addTableFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	budget := soc.DefaultBudget()
	if *budgetW != 0 {
		budget.PowerW = *budgetW
	}
	if *budgetMM2 != 0 {
		budget.AreaMM2 = *budgetMM2
	}
	if err := budget.Validate(); err != nil {
		return err
	}
	sess, opts, err := f.sim.Start(f.ob, os.Args, "soc")
	if err != nil {
		return err
	}
	t, err := harness.SoCPareto(opts, budget)
	if err != nil {
		return err
	}
	if err := f.emit(t); err != nil {
		return err
	}
	if *breakdown {
		sess.Experiments = append(sess.Experiments, "socbreak")
		bt, err := harness.SoCBreakdown(opts, budget)
		if err != nil {
			return err
		}
		if !*f.csv && !*f.js {
			fmt.Println()
		}
		if err := f.emit(bt); err != nil {
			return err
		}
	}
	if *accel {
		sess.Experiments = append(sess.Experiments, "socaccel")
		at, err := harness.SoCAccelCompare(opts, budget)
		if err != nil {
			return err
		}
		if !*f.csv && !*f.js {
			fmt.Println()
		}
		if err := f.emit(at); err != nil {
			return err
		}
	}
	return sess.Close()
}

// trafficCmd runs the diurnal-service simulation: the scenario matrix
// (core mixes × scheduling policies) steps through the traffic trace,
// one engine job per scenario, and the per-scenario energy/latency/SLO
// accounting is printed (and optionally written as a hetcore.traffic/v1
// report).
func trafficCmd(args []string) error {
	fs := flag.NewFlagSet("hetcore traffic", flag.ExitOnError)
	traceFlag := fs.String("trace", "diurnal", "synthetic trace (diurnal, bursty, flat) or a .csv/.jsonl trace file")
	policyFlag := fs.String("policy", "", "comma-separated scheduling policies (default: all)")
	configFlag := fs.String("config", "", "comma-separated core mixes (default: "+strings.Join(traffic.DefaultMixes, ",")+")")
	budgetW := fs.Float64("budget-w", 0, "chip power budget in watts (0 = uncapped)")
	sloMS := fs.Float64("slo-ms", 0, "latency SLO in milliseconds (0 = default 50)")
	reqInstr := fs.Uint64("req-instr", 0, "instructions per request (0 = default 2000000)")
	out := fs.String("o", "", "write the hetcore.traffic/v1 report JSON here")
	f := addTableFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	tr, fileTrace, err := traffic.ResolveTrace(*traceFlag)
	if err != nil {
		return err
	}
	policies := traffic.PolicyNames()
	if *policyFlag != "" {
		policies = strings.Split(*policyFlag, ",")
		for _, p := range policies {
			if _, err := traffic.PolicyByName(p); err != nil {
				return err
			}
		}
	}
	mixes := traffic.DefaultMixes
	if *configFlag != "" {
		mixes = strings.Split(*configFlag, ",")
	}
	knobs := harness.TrafficKnobs{SLOSec: *sloMS / 1e3, BudgetW: *budgetW, ReqInstr: *reqInstr}

	sess, opts, err := f.sim.Start(f.ob, os.Args, "traffic")
	if err != nil {
		return err
	}
	sess.Obs.SetPhase("traffic")
	rep, err := harness.TrafficReport(opts, tr, fileTrace, mixes, policies, knobs)
	if err != nil {
		return err
	}
	t := harness.TrafficTable("traffic",
		fmt.Sprintf("Traffic scenarios on trace %s (%d epochs)", tr.Name, len(tr.RPS)),
		fmt.Sprintf("SLO %.0f ms; energy per request includes leakage of every awake core.", rep.SLOMS),
		rep.Scenarios)
	if err := f.emit(t); err != nil {
		return err
	}
	if *out != "" {
		if err := rep.WriteJSON(*out); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *out)
	}
	return sess.Close()
}

// load drives a job stream at one hetserved daemon and reports the
// client-observed throughput and latency quantiles. Hot keys are warmed
// before the window starts; cold keys come from a seed range no
// experiment uses. -o writes the BENCH_load.json record that
// "hetcore diff" gates against a baseline.
func load(args []string) error {
	fs := flag.NewFlagSet("hetcore load", flag.ExitOnError)
	var cfg dist.LoadConfig
	fs.StringVar(&cfg.Addr, "addr", "", "daemon address (host:port or http:// URL; required)")
	fs.DurationVar(&cfg.Duration, "duration", 3*time.Second, "measured window")
	fs.IntVar(&cfg.Concurrency, "concurrency", 8, "closed-loop workers / open-loop in-flight bound")
	fs.Float64Var(&cfg.RatePerSec, "rate", 0, "open-loop arrivals per second (0 = closed loop)")
	fs.Float64Var(&cfg.ColdFraction, "cold", 0.1, "fraction of requests with never-seen keys")
	fs.StringVar(&cfg.Workload, "workload", "barnes", "trace workload the jobs summarise")
	fs.Uint64Var(&cfg.Instr, "instr", 2000, "per-job instruction budget")
	fs.Int64Var(&cfg.Seed, "seed", 1, "request-stream seed")
	fs.DurationVar(&cfg.Timeout, "timeout", 30*time.Second, "per-request timeout")
	out := fs.String("o", "", "write the BENCH_load.json record to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if cfg.Addr == "" {
		return fmt.Errorf("load requires -addr")
	}
	rec, err := dist.RunLoad(cfg)
	if err != nil {
		return err
	}
	if err := rec.Format(os.Stdout); err != nil {
		return err
	}
	if *out != "" {
		return harness.WriteFile(*out, rec.WriteJSON)
	}
	return nil
}

func bench(args []string) error {
	fs := flag.NewFlagSet("hetcore bench", flag.ExitOnError)
	instr := fs.Uint64("instr", 0, "CPU instruction budget (0 = 2000000)")
	seed := fs.Uint64("seed", 1, "workload synthesis seed")
	out := fs.String("o", "BENCH_sim_rate.json", "output file")
	var jobs int
	harness.AddJobsFlag(fs, &jobs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	rec, err := harness.MeasureSimRate(*instr, *seed, jobs)
	if err != nil {
		return err
	}
	if err := harness.WriteFile(*out, rec.WriteJSON); err != nil {
		return err
	}
	fmt.Printf("cpu  %12.0f insts/s  (%s, %d insts in %.2fs)\n",
		rec.CPUInstsPerSec, rec.CPUWorkload, rec.CPUInstructions, rec.CPUWallSeconds)
	fmt.Printf("gpu  %12.0f wave-insts/s  (%s, %d insts in %.2fs)\n",
		rec.GPUWaveInstsPerSec, rec.GPUKernel, rec.GPUWaveInsts, rec.GPUWallSeconds)
	fmt.Printf("wrote %s\n", *out)
	return nil
}

// hotspots profiles one workload run under CPU + heap pprof, reported
// as a table or hetcore.prof/v1 JSON.
func hotspots(args []string) error {
	fs := flag.NewFlagSet("hetcore hotspots", flag.ExitOnError)
	device := fs.String("device", "cpu", "simulator to profile: cpu or gpu")
	config := fs.String("config", "BaseCMOS", "architecture configuration")
	workload := fs.String("workload", "", "CPU workload / GPU kernel (default barnes / MatrixMultiplication)")
	instr := fs.Uint64("instr", 0, "CPU instruction budget (0 = 2000000)")
	seed := fs.Uint64("seed", 1, "workload synthesis seed")
	top := fs.Int("top", 10, "flat function-table depth (the cumulative table lists 3x)")
	out := fs.String("o", "", "write the hetcore.prof/v1 report JSON here")
	js := fs.Bool("json", false, "print the report JSON to stdout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rep, err := harness.RunHotspots(harness.HotspotsOptions{
		Device: *device, Config: *config, Workload: *workload,
		Instructions: *instr, Seed: *seed, TopN: *top,
	})
	if err != nil {
		return err
	}
	writeJSON := func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	if *out != "" {
		if err := harness.WriteFile(*out, writeJSON); err != nil {
			return err
		}
	}
	if *js {
		return writeJSON(os.Stdout)
	}
	fmt.Print(rep.Format())
	if *out != "" {
		fmt.Printf("\nwrote %s\n", *out)
	}
	return nil
}

// diff compares two -metrics-out reports, two bench records, two load
// records or two traffic reports, and fails when a metric regressed
// beyond its threshold.
func diff(args []string) error {
	fs := flag.NewFlagSet("hetcore diff", flag.ExitOnError)
	tol := fs.Float64("tol", 0.1, "tolerance for deterministic metrics, percent")
	rateTol := fs.Float64("rate-tol", 25, "tolerance for host-timing metrics, percent")
	quiet := fs.Bool("q", false, "only print regressions and the verdict")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("diff requires exactly two files: old.json new.json")
	}
	res, err := harness.DiffFiles(fs.Arg(0), fs.Arg(1), harness.DiffOptions{
		RelTol:  *tol / 100,
		RateTol: *rateTol / 100,
	})
	if err != nil {
		return err
	}
	if *quiet {
		for _, row := range res.Regressions() {
			fmt.Printf("%s: %s -> %s (%.2f%%) REGRESSED\n",
				row.Metric, harness.FormatMetric(row.Old), harness.FormatMetric(row.New), row.DeltaPct)
		}
	} else if err := res.Format(os.Stdout); err != nil {
		return err
	}
	if res.Regressed() {
		return fmt.Errorf("regression: %d metric(s) beyond tolerance (%s vs %s)",
			len(res.Regressions()), fs.Arg(0), fs.Arg(1))
	}
	if *quiet {
		fmt.Printf("-- OK: %d metric(s) within tolerance\n", len(res.Rows))
	}
	return nil
}
