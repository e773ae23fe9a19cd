package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"hetcore/internal/dist"
	"hetcore/internal/engine"
	"hetcore/internal/harness"
	"hetcore/internal/trace"
)

// traceCmd inspects and snapshots the synthetic workload traces. "dump"
// serialises a workload to the compact binary trace format; "stats"
// summarises live workloads or a trace file: instruction mix, branch
// behaviour, dependency structure and data footprint, the quantities
// the profiles in internal/trace are calibrated against.
func traceCmd(args []string) error {
	if len(args) > 0 {
		switch args[0] {
		case "stats":
			return traceStats(args[1:])
		case "dump":
			return traceDump(args[1:])
		}
	}
	return fmt.Errorf("trace needs a subcommand: stats or dump ('hetcore trace stats -h')")
}

// traceFlags registers the flags stats and dump share.
func traceFlags(fs *flag.FlagSet, sim *harness.SimFlags) (workload *string, n *uint64, core *int, ob *harness.ObsFlags) {
	workload = fs.String("workload", "", "CPU workload name")
	n = fs.Uint64("n", 200_000, "instructions")
	fs.Uint64Var(&sim.Seed, "seed", 1, "synthesis seed")
	core = fs.Int("core", 0, "core ID")
	return workload, n, core, harness.AddObsFlags(fs)
}

// traceStats prints the summary of a trace file (-in) or of each
// workload in a comma-separated -workload list. The workloads are
// summarised as jobs on the engine pool and printed in the order given.
func traceStats(args []string) error {
	fs := flag.NewFlagSet("hetcore trace stats", flag.ExitOnError)
	var sim harness.SimFlags
	workload, n, core, ob := traceFlags(fs, &sim)
	in := fs.String("in", "", "trace file to read instead of a live workload")
	harness.AddJobsFlag(fs, &sim.Jobs)
	harness.AddDistFlags(fs, &sim.Dist)
	if err := fs.Parse(args); err != nil {
		return err
	}
	sess, opts, err := sim.Start(ob, os.Args, "trace-stats")
	if err != nil {
		return err
	}
	var sums []trace.Summary
	names := strings.Split(*workload, ",")
	switch {
	case *in != "":
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		r, err := trace.NewReader(f)
		if err != nil {
			return err
		}
		s := trace.Summarize(r, r.Remaining())
		if r.Err() != nil {
			return r.Err()
		}
		sums, names = []trace.Summary{s}, nil
	case *workload != "":
		plan := make([]engine.Job, len(names))
		for i, name := range names {
			if _, err := trace.CPUWorkload(name); err != nil {
				return err
			}
			k := engine.Key{Device: "trace", Config: "stats", Workload: name,
				Seed: sim.Seed, Instr: *n, Variant: fmt.Sprintf("core=%d", *core)}
			// A known workload with a core=N variant always resolves.
			run, _ := dist.Resolve(k, opts.Obs)
			plan[i] = engine.Job{Key: k, Run: run}
		}
		outs, err := opts.Engine.RunAll(plan)
		if err != nil {
			return err
		}
		for _, out := range outs {
			sums = append(sums, out.(trace.Summary))
		}
	default:
		return fmt.Errorf("trace stats needs -workload or -in")
	}
	for i, s := range sums {
		if len(names) > 1 {
			fmt.Printf("== %s ==\n", names[i])
		}
		printSummary(os.Stdout, s)
		if reg := sess.Obs.Reg(); reg != nil {
			reg.Counter("trace.instructions").Add(s.Instructions)
			reg.Counter("trace.mem_ops").Add(s.MemOps)
			reg.Gauge("trace.taken_rate").Set(s.TakenRate())
			reg.Gauge("trace.mean_dep_dist").Set(s.MeanDep1())
			reg.Gauge("trace.working_set_bytes").Set(float64(s.WorkingSetBytes()))
		}
	}
	return sess.Close()
}

// percent returns 100·part/whole, or 0 for an empty whole.
func percent(part, whole uint64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

func printSummary(w io.Writer, s trace.Summary) {
	fmt.Fprintf(w, "instructions   %d\n", s.Instructions)
	names := []string{"alu", "mul", "div", "fadd", "fmul", "fdiv", "ld", "st", "br"}
	for i, name := range names {
		c := s.OpCounts[i]
		fmt.Fprintf(w, "  %-5s %9d  (%.1f%%)\n", name, c, percent(c, s.Instructions))
	}
	fmt.Fprintf(w, "branches taken %.1f%%\n", s.TakenRate()*100)
	fmt.Fprintf(w, "mean dep dist  %.2f\n", s.MeanDep1())
	fmt.Fprintf(w, "two-source     %.1f%%\n", percent(s.Dep2Count, s.Instructions))
	fmt.Fprintf(w, "shared mem ops %.2f%%\n", percent(s.SharedOps, s.MemOps))
	fmt.Fprintf(w, "data footprint %.1f KB\n", float64(s.WorkingSetBytes())/1024)
}

// traceDump writes n instructions of one workload to a trace file.
func traceDump(args []string) error {
	fs := flag.NewFlagSet("hetcore trace dump", flag.ExitOnError)
	var sim harness.SimFlags
	workload, n, core, ob := traceFlags(fs, &sim)
	out := fs.String("o", "", "output trace file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *workload == "" || *out == "" {
		return fmt.Errorf("trace dump needs -workload and -o")
	}
	sess, _, err := sim.Start(ob, os.Args, "trace-dump")
	if err != nil {
		return err
	}
	p, err := trace.CPUWorkload(*workload)
	if err != nil {
		return err
	}
	g, err := trace.NewGenerator(p, sim.Seed, *core)
	if err != nil {
		return err
	}
	if err := harness.WriteFile(*out, func(w io.Writer) error {
		return trace.WriteTrace(w, g, *n)
	}); err != nil {
		return err
	}
	if reg := sess.Obs.Reg(); reg != nil {
		reg.Counter("trace.instructions").Add(*n)
	}
	fmt.Printf("wrote %d instructions of %s to %s\n", *n, *workload, *out)
	return sess.Close()
}
