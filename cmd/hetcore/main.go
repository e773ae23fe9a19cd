// Command hetcore reproduces the tables and figures of "HetCore:
// TFET-CMOS Hetero-Device Architecture for CPUs and GPUs" (ISCA 2018).
//
// Usage:
//
//	hetcore list
//	hetcore run -exp fig7 [-instr N] [-seed S] [-workloads a,b] [-kernels X,Y] [-csv]
//	hetcore all [-instr N] [-seed S] [-csv]
//	hetcore soc [-budget-w W] [-budget-mm2 A] [-breakdown] [-accel] [...]
//	hetcore traffic [-trace T] [-policy P] [-config C] [-slo-ms MS] [-budget-w W] [-o F]
//	hetcore bench [-instr N] [-o BENCH_sim_rate.json] [-history F]
//	hetcore hotspots [-device cpu|gpu] [-config C] [-workload W] [-o F]
//	hetcore trend [-history F] [-window N] [-tol PCT] [-rate-tol PCT]
//	hetcore diff [-tol PCT] [-rate-tol PCT] old.json new.json
//	hetcore version
//
// "run" executes one experiment; "all" executes the full evaluation in
// paper order; "soc" searches every CMOS-core/TFET-core/GPU-CU/
// accelerator mix that fits an area/power budget and prints the Pareto
// front (time vs energy; -accel adds the class-best comparison of
// cores vs GPU vs CMOS/TFET accelerators); "traffic" steps a core mix
// through a diurnal/bursty/flat request trace under pluggable wake/
// sleep + DVFS scheduling policies and reports energy per request and
// latency quantiles against the SLO; "bench" measures the
// simulation rate of this host (and with
// -history appends the record to a BENCH_history.jsonl trend file);
// "hotspots" runs one workload under CPU+heap profile and prints where
// the simulator's own CPU time and allocations go, ranked by cumulative
// and flat CPU time and by allocation (schema hetcore.prof/v1 with
// -o/-json);
// "trend" compares the newest BENCH_history.jsonl entries against the
// median of their predecessors and exits non-zero on a regression;
// "diff" compares two -metrics-out reports, two bench records or two
// hetload BENCH_load.json records and exits non-zero when a metric
// regressed beyond its threshold;
// "version" prints the internal/dist cache/wire compatibility stamp.
// -cache-dir makes every simulated point persistent (content-addressed
// under SHA-256 of the engine key plus the version stamp), so repeated
// invocations and CI reruns skip simulation entirely; -remote fans jobs
// out to hetserved daemons as extra engine lanes with transparent local
// fallback. Both preserve byte-identical output.
// Figures 7-9 and 13-14 simulate the 14 CPU workloads on every
// configuration, so expect tens of seconds at the default instruction
// budget.
//
// Observability (run/all): -metrics-out writes a JSON report with a
// manifest, a metrics snapshot and one structured record per simulation
// run (including the top-down cycle attribution); -trace-out writes a
// Chrome trace loadable in ui.perfetto.dev; -progress prints heartbeat
// lines to stderr; -serve starts the live telemetry dashboard (HTML,
// /metrics.json, /metrics Prometheus text, /series, /events) on the
// given address for the duration of the run; -cpuprofile/-memprofile
// write pprof profiles.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
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

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "list":
		err = list()
	case "run":
		err = run(os.Args[2:])
	case "all":
		err = all(os.Args[2:])
	case "soc":
		err = socCmd(os.Args[2:])
	case "traffic":
		err = trafficCmd(os.Args[2:])
	case "bench":
		err = bench(os.Args[2:])
	case "hotspots":
		err = hotspots(os.Args[2:])
	case "trend":
		err = trend(os.Args[2:])
	case "diff":
		err = diff(os.Args[2:])
	case "version":
		version()
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "hetcore: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hetcore:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `hetcore - HetCore (ISCA 2018) reproduction harness

Commands:
  list                 list all experiments
  run -exp <id> [...]  run one experiment (e.g. fig7, table1)
  all [...]            run every experiment in paper order
  soc [...]            budgeted SoC design-space search (Pareto front)
  traffic [...]        diurnal traffic scenarios: mixes x scheduling policies
  bench [...]          measure this host's simulation rate
  hotspots [...]       profile one workload: top functions by cumulative/flat CPU and allocation
  trend [...]          gate the newest BENCH_history.jsonl entries on their history
  diff old new         compare two reports/bench/load records, exit 1 on regression
  version              print the cache/wire version stamp

Flags for run/all:
  -instr N             total instructions per CPU run (default 400000)
  -seed S              workload synthesis seed (default 1)
  -workloads a,b,c     restrict CPU workloads
  -kernels X,Y         restrict GPU kernels
  -jobs N              concurrent simulation jobs (0 = NumCPU); output is
                       byte-identical for any value
  -cache-dir D         persistent result cache; a repeated invocation
                       simulates nothing and produces identical output
  -remote H:P,...      hetserved workers used as extra engine lanes (with
                       local fallback); output stays byte-identical
  -csv                 emit CSV instead of aligned text
  -json                emit JSON
  -metrics-out F       write metrics + run-record report JSON
  -trace-out F         write Chrome trace JSON (open in ui.perfetto.dev)
  -progress            print progress heartbeats to stderr
  -serve ADDR          serve the live telemetry dashboard (e.g. :8090)
  -cpuprofile F        write pprof CPU profile
  -memprofile F        write pprof heap profile

Flags for soc (plus all run/all flags above):
  -budget-w W          SoC power budget in watts (default 20)
  -budget-mm2 A        SoC area budget in mm^2 (default 50)
  -breakdown           also print the per-workload time/energy breakdown
                       of every Pareto-front mix
  -accel               also print the class-best comparison (cores-only vs
                       GPU-only vs CMOS/TFET accelerator mixes, by ED²)

Flags for traffic (plus all run/all flags above):
  -trace T             synthetic trace (diurnal, bursty, flat) or a
                       .csv/.jsonl trace file (epoch_sec,rps rows)
  -policy P,Q          restrict scheduling policies (naive, util, cacheaware)
  -config M,N          core mixes to serve the trace (default c4t4g0,c8t0g0)
  -slo-ms MS           latency SLO in milliseconds (default 50)
  -budget-w W          chip power budget in watts (default uncapped)
  -req-instr N         instructions per request (default 2000000)
  -o F                 write the hetcore.traffic/v1 report JSON here
  -history F           append the report to this BENCH_history.jsonl

Flags for bench:
  -instr N             CPU instruction budget (default 2000000)
  -seed S              workload synthesis seed
  -jobs N              worker-pool width for the full-suite measurement
  -o F                 output file (default BENCH_sim_rate.json)
  -history F           also append the record to this BENCH_history.jsonl

Flags for hotspots:
  -device cpu|gpu      simulator to profile (default cpu)
  -config C            architecture configuration (default BaseCMOS)
  -workload W          CPU workload / GPU kernel (default barnes / MatrixMultiplication)
  -instr N             CPU instruction budget (default 2000000)
  -seed S              workload synthesis seed
  -top N               flat table depth (default 10); the cumulative table
                       lists 3N, enough to reach the pipeline phases under
                       Core.step
  -o F                 write the hetcore.prof/v1 report JSON here
  -json                print the report JSON to stdout instead of the table

Flags for trend:
  -history F           history file (default BENCH_history.jsonl)
  -window N            compare against the median of the last N prior entries (0 = all)
  -tol PCT             tolerance for deterministic metrics, percent (default 0.1)
  -rate-tol PCT        tolerance for host-timing metrics, percent (default 25)
  -q                   only print regressions and the verdict

Flags for diff:
  -tol PCT             tolerance for deterministic metrics, percent (default 0.1)
  -rate-tol PCT        tolerance for host-timing metrics, percent (default 25)
  -q                   only print regressions and the verdict
`)
}

// emit writes a table in the selected format.
func emit(t harness.Table, csv, js bool) error {
	switch {
	case js:
		return t.JSON(os.Stdout)
	case csv:
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
func version() {
	fmt.Println(dist.Stamp())
	fmt.Printf("  cache schema:      v%d\n", dist.CacheVersion)
	fmt.Printf("  device-table hash: %s\n", dist.DeviceTableHash())
	fmt.Printf("  report schema:     %s\n", obs.SchemaVersion)
	fmt.Printf("  go:                %s\n", runtime.Version())
}

func list() error {
	for _, e := range harness.Experiments() {
		fmt.Printf("%-10s %-14s %s\n", e.ID, "("+e.PaperRef+")", e.Title)
	}
	return nil
}

func run(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	exp := fs.String("exp", "", "experiment ID (see 'hetcore list')")
	sim := harness.AddSimFlags(fs)
	ob := harness.AddObsFlags(fs)
	csv := fs.Bool("csv", false, "emit CSV")
	js := fs.Bool("json", false, "emit JSON")
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
	sess, err := ob.Start(os.Args)
	if err != nil {
		return err
	}
	sess.Experiments = []string{e.ID}
	sess.Seed = sim.Seed
	opts := sim.Options()
	opts.Obs = sess.Obs
	opts, err = opts.WithSharedEngine()
	if err != nil {
		return err
	}
	sess.Engine = opts.Engine
	t, err := harness.RunExperiment(e, opts)
	if err != nil {
		return err
	}
	if err := emit(t, *csv, *js); err != nil {
		return err
	}
	return sess.Close()
}

func all(args []string) error {
	fs := flag.NewFlagSet("all", flag.ExitOnError)
	sim := harness.AddSimFlags(fs)
	ob := harness.AddObsFlags(fs)
	csv := fs.Bool("csv", false, "emit CSV")
	js := fs.Bool("json", false, "emit JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sess, err := ob.Start(os.Args)
	if err != nil {
		return err
	}
	sess.Seed = sim.Seed
	opts := sim.Options()
	opts.Obs = sess.Obs
	// One engine for the whole evaluation: figures sharing a simulation
	// matrix (fig7/8/9, fig10/11/12, cycles...) simulate it once.
	opts, err = opts.WithSharedEngine()
	if err != nil {
		return err
	}
	sess.Engine = opts.Engine
	for _, e := range harness.Experiments() {
		sess.Experiments = append(sess.Experiments, e.ID)
		t, err := harness.RunExperiment(e, opts)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		if *csv || *js {
			fmt.Printf("# %s (%s)\n", e.ID, e.PaperRef)
		}
		if err := emit(t, *csv, *js); err != nil {
			return err
		}
		if *csv || *js {
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
	fs := flag.NewFlagSet("soc", flag.ExitOnError)
	budgetW := fs.Float64("budget-w", 0, "power budget in watts (0 = default 20)")
	budgetMM2 := fs.Float64("budget-mm2", 0, "area budget in mm^2 (0 = default 50)")
	breakdown := fs.Bool("breakdown", false, "also print the per-workload breakdown of Pareto mixes")
	accel := fs.Bool("accel", false, "also print the class-best comparison (cores vs GPU vs accelerators)")
	sim := harness.AddSimFlags(fs)
	ob := harness.AddObsFlags(fs)
	csv := fs.Bool("csv", false, "emit CSV")
	js := fs.Bool("json", false, "emit JSON")
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
	sess, err := ob.Start(os.Args)
	if err != nil {
		return err
	}
	sess.Experiments = []string{"soc"}
	sess.Seed = sim.Seed
	opts := sim.Options()
	opts.Obs = sess.Obs
	opts, err = opts.WithSharedEngine()
	if err != nil {
		return err
	}
	sess.Engine = opts.Engine
	t, err := harness.SoCPareto(opts, budget)
	if err != nil {
		return err
	}
	if err := emit(t, *csv, *js); err != nil {
		return err
	}
	if *breakdown {
		sess.Experiments = append(sess.Experiments, "socbreak")
		bt, err := harness.SoCBreakdown(opts, budget)
		if err != nil {
			return err
		}
		if !*csv && !*js {
			fmt.Println()
		}
		if err := emit(bt, *csv, *js); err != nil {
			return err
		}
	}
	if *accel {
		sess.Experiments = append(sess.Experiments, "socaccel")
		at, err := harness.SoCAccelCompare(opts, budget)
		if err != nil {
			return err
		}
		if !*csv && !*js {
			fmt.Println()
		}
		if err := emit(at, *csv, *js); err != nil {
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
	fs := flag.NewFlagSet("traffic", flag.ExitOnError)
	traceFlag := fs.String("trace", "diurnal", "synthetic trace (diurnal, bursty, flat) or a .csv/.jsonl trace file")
	policyFlag := fs.String("policy", "", "comma-separated scheduling policies (default: all)")
	configFlag := fs.String("config", "", "comma-separated core mixes (default: "+strings.Join(traffic.DefaultMixes, ",")+")")
	budgetW := fs.Float64("budget-w", 0, "chip power budget in watts (0 = uncapped)")
	sloMS := fs.Float64("slo-ms", 0, "latency SLO in milliseconds (0 = default 50)")
	reqInstr := fs.Uint64("req-instr", 0, "instructions per request (0 = default 2000000)")
	out := fs.String("o", "", "write the hetcore.traffic/v1 report JSON here")
	history := fs.String("history", "", "append the report to this BENCH_history.jsonl")
	sim := harness.AddSimFlags(fs)
	ob := harness.AddObsFlags(fs)
	csv := fs.Bool("csv", false, "emit CSV")
	js := fs.Bool("json", false, "emit JSON")
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

	sess, err := ob.Start(os.Args)
	if err != nil {
		return err
	}
	sess.Experiments = []string{"traffic"}
	sess.Seed = sim.Seed
	opts := sim.Options()
	opts.Obs = sess.Obs
	opts, err = opts.WithSharedEngine()
	if err != nil {
		return err
	}
	sess.Engine = opts.Engine
	sess.Obs.SetPhase("traffic")
	rep, err := harness.TrafficReport(opts, tr, fileTrace, mixes, policies, knobs)
	if err != nil {
		return err
	}
	t := harness.TrafficTable("traffic",
		fmt.Sprintf("Traffic scenarios on trace %s (%d epochs)", tr.Name, len(tr.RPS)),
		fmt.Sprintf("SLO %.0f ms; energy per request includes leakage of every awake core.", rep.SLOMS),
		rep.Scenarios)
	if err := emit(t, *csv, *js); err != nil {
		return err
	}
	if *out != "" {
		if err := rep.WriteJSON(*out); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *out)
	}
	if *history != "" {
		entry := harness.NewTrafficHistoryEntry(*rep, runtime.Version(), time.Now().Unix())
		if err := harness.AppendHistory(*history, entry); err != nil {
			return err
		}
		fmt.Printf("appended to %s\n", *history)
	}
	return sess.Close()
}

func bench(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	instr := fs.Uint64("instr", 0, "CPU instruction budget (0 = 2000000)")
	seed := fs.Uint64("seed", 1, "workload synthesis seed")
	out := fs.String("o", "BENCH_sim_rate.json", "output file")
	history := fs.String("history", "", "also append the record to this BENCH_history.jsonl")
	var jobs int
	harness.AddJobsFlag(fs, &jobs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	rec, err := harness.MeasureSimRate(*instr, *seed, jobs)
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	if err := rec.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if *history != "" {
		entry := harness.NewBenchHistoryEntry(rec, time.Now().Unix())
		if err := harness.AppendHistory(*history, entry); err != nil {
			return err
		}
	}
	fmt.Printf("cpu  %12.0f insts/s  (%s, %d insts in %.2fs)\n",
		rec.CPUInstsPerSec, rec.CPUWorkload, rec.CPUInstructions, rec.CPUWallSeconds)
	fmt.Printf("gpu  %12.0f wave-insts/s  (%s, %d insts in %.2fs)\n",
		rec.GPUWaveInstsPerSec, rec.GPUKernel, rec.GPUWaveInsts, rec.GPUWallSeconds)
	fmt.Printf("wrote %s\n", *out)
	if *history != "" {
		fmt.Printf("appended to %s\n", *history)
	}
	return nil
}

// hotspots profiles one workload run under CPU + heap pprof, reported
// as a table or hetcore.prof/v1 JSON.
func hotspots(args []string) error {
	fs := flag.NewFlagSet("hotspots", flag.ExitOnError)
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
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if *js {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	fmt.Print(rep.Format())
	if *out != "" {
		fmt.Printf("\nwrote %s\n", *out)
	}
	return nil
}

// trend gates the newest history entries against the median of their
// predecessors.
func trend(args []string) error {
	fs := flag.NewFlagSet("trend", flag.ExitOnError)
	history := fs.String("history", "BENCH_history.jsonl", "history file (JSONL)")
	window := fs.Int("window", 0, "median window: last N prior entries per kind (0 = all)")
	tol := fs.Float64("tol", 0.1, "tolerance for deterministic metrics, percent")
	rateTol := fs.Float64("rate-tol", 25, "tolerance for host-timing metrics, percent")
	quiet := fs.Bool("q", false, "only print regressions and the verdict")
	if err := fs.Parse(args); err != nil {
		return err
	}
	entries, err := harness.LoadHistory(*history)
	if err != nil {
		return err
	}
	if len(entries) == 0 {
		return fmt.Errorf("trend: %s has no entries", *history)
	}
	res := harness.Trend(entries, *window, harness.DiffOptions{
		RelTol:  *tol / 100,
		RateTol: *rateTol / 100,
	})
	if *quiet {
		for _, k := range res.Kinds {
			for _, row := range k.Diff.Regressions() {
				fmt.Printf("%s %s: %s -> %s (%.2f%%) REGRESSED\n",
					k.Kind, row.Metric, harness.FormatMetric(row.Old),
					harness.FormatMetric(row.New), row.DeltaPct)
			}
		}
	} else if err := res.Format(os.Stdout); err != nil {
		return err
	}
	if res.Regressed() {
		return fmt.Errorf("trend regression in %s", *history)
	}
	if *quiet {
		fmt.Println("-- trend OK")
	}
	return nil
}

func diff(args []string) error {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
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
