package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"hetcore/internal/engine"
	"hetcore/internal/gpu"
	"hetcore/internal/harness"
	"hetcore/internal/hetsim"
	"hetcore/internal/trace"
)

// knob is one sweepable parameter of the AdvHet design point. Exactly
// one of cpu and gpu is set: it applies one value to a copy of the
// AdvHet configuration and returns the row label. The first value is
// the default, and every row is normalised to it.
type knob struct {
	title  string // printed with the workload or kernel
	values []int
	cpu    func(*hetsim.CPUConfig, int) string
	gpu    func(*hetsim.GPUConfig, int) string
}

// knobs are the design decisions DESIGN.md calls out.
var knobs = map[string]knob{
	// The FastCache is one way's worth of the DL1, so its capacity is
	// swept by changing the associativity: 16-way -> 2 KB fast way,
	// 8-way -> 4 KB (default), 4-way -> 8 KB, 2-way -> 16 KB.
	"fastsize": {"AdvHet asymmetric-DL1 fast-way size", []int{8, 16, 4, 2},
		func(c *hetsim.CPUConfig, ways int) string {
			c.Hier.DL1Ways = ways
			c.Hier.FastSize = c.Hier.DL1Size / ways
			return fmt.Sprintf("fast=%dKB/%dway", c.Hier.FastSize/1024, ways)
		}, nil},
	"steerwindow": {"AdvHet dual-speed ALU steering window", []int{4, 1, 2, 8},
		func(c *hetsim.CPUConfig, w int) string {
			c.Core.SteerWindow = w
			return fmt.Sprintf("window=%d", w)
		}, nil},
	"prefetch": {"Next-line prefetcher", []int{1, 0},
		func(c *hetsim.CPUConfig, on int) string {
			c.Hier.NextLinePrefetch = on == 1
			return fmt.Sprintf("prefetch=%v", on == 1)
		}, nil},
	"rfentries": {"AdvHet GPU RF-cache entries per thread", []int{6, 2, 4, 8, 12},
		nil, func(c *hetsim.GPUConfig, n int) string {
			c.Dev.RFCacheEntries = n
			return fmt.Sprintf("entries=%d", n)
		}},
	"waves": {"GPU resident wavefronts per CU", []int{6, 2, 4, 10, 16},
		nil, func(c *hetsim.GPUConfig, n int) string {
			c.Dev.MaxWavesPerCU = n
			return fmt.Sprintf("waves=%d", n)
		}},
}

// sweep runs every value of one knob as a plan on the engine pool and
// prints time, energy and ED² per row, normalised to the default. Rows
// print in declared order, so the output is identical for any -jobs.
func sweep(args []string) error {
	names := make([]string, 0, len(knobs))
	for name := range knobs {
		names = append(names, name)
	}
	sort.Strings(names)
	fs := flag.NewFlagSet("hetcore sweep", flag.ExitOnError)
	name := fs.String("sweep", "", strings.Join(names, " | "))
	workload := fs.String("workload", "barnes", "CPU workload for CPU sweeps")
	kernel := fs.String("kernel", "Reduction", "GPU kernel for GPU sweeps")
	var sim harness.SimFlags
	fs.Uint64Var(&sim.Instructions, "instr", 250_000, "total instructions per CPU run")
	fs.Uint64Var(&sim.Seed, "seed", 1, "workload synthesis seed")
	harness.AddJobsFlag(fs, &sim.Jobs)
	harness.AddCacheDirFlag(fs, &sim.Dist.CacheDir)
	ob := harness.AddObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	k, ok := knobs[*name]
	if !ok {
		return fmt.Errorf("unknown sweep %q (have %s)", *name, strings.Join(names, ", "))
	}
	sess, opts, err := sim.Start(ob, os.Args, "sweep-"+*name)
	if err != nil {
		return err
	}
	sess.Obs.SetPhase("sweep-" + *name)
	labels, plan, err := k.plan(opts, *workload, *kernel)
	if err != nil {
		return err
	}
	outs, err := opts.Engine.RunAll(plan)
	if err != nil {
		return err
	}
	subject := *workload
	if k.gpu != nil {
		subject = *kernel
	}
	fmt.Printf("== %s (%s) ==\n", k.title, subject)
	fmt.Printf("%-16s %8s %8s %8s\n", "value", "time", "energy", "ED2")
	base := outs[0].(hetsim.Result)
	for i, out := range outs {
		r := out.(hetsim.Result)
		fmt.Printf("%-16s %8.3f %8.3f %8.3f\n", labels[i], r.Seconds()/base.Seconds(),
			r.TotalEnergyJ()/base.TotalEnergyJ(), r.ED2()/base.ED2())
	}
	fmt.Println("-- normalised to the first row")
	return sess.Close()
}

// plan declares one engine job per knob value. The key's Variant keeps
// each mutated configuration apart from the stock run of the same name.
func (k knob) plan(opts harness.Options, workload, kernel string) ([]string, []engine.Job, error) {
	var labels []string
	var plan []engine.Job
	if k.cpu != nil {
		prof, err := trace.CPUWorkload(workload)
		if err != nil {
			return nil, nil, err
		}
		for _, v := range k.values {
			cfg, err := hetsim.CPUConfigByName("AdvHet")
			if err != nil {
				return nil, nil, err
			}
			label := k.cpu(&cfg, v)
			labels = append(labels, label)
			plan = append(plan, engine.Job{
				Key: engine.Key{Device: "cpu", Config: cfg.Name, Workload: prof.Name,
					Seed: opts.Seed, Instr: opts.Instructions, Variant: "sweep:" + label},
				Run: func() (any, error) {
					return hetsim.RunCPU(cfg, prof, hetsim.RunOpts{
						TotalInstructions: opts.Instructions, Seed: opts.Seed, Obs: opts.Obs})
				},
			})
		}
		return labels, plan, nil
	}
	kern, err := gpu.KernelByName(kernel)
	if err != nil {
		return nil, nil, err
	}
	for _, v := range k.values {
		cfg, err := hetsim.GPUConfigByName("AdvHet")
		if err != nil {
			return nil, nil, err
		}
		label := k.gpu(&cfg, v)
		labels = append(labels, label)
		plan = append(plan, engine.Job{
			Key: engine.Key{Device: "gpu", Config: cfg.Name, Workload: kern.Name,
				Seed: opts.Seed, Variant: "sweep:" + label},
			Run: func() (any, error) {
				return hetsim.RunGPUObserved(cfg, kern, opts.Seed, opts.Obs)
			},
		})
	}
	return labels, plan, nil
}
