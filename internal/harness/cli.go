package harness

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"hetcore/internal/engine"
	"hetcore/internal/obs"
)

// SimFlags are the simulation-budget flags every CLI shares.
type SimFlags struct {
	Instructions uint64
	Seed         uint64
	Workloads    string
	Kernels      string
	Jobs         int
	Dist         DistFlags
}

// AddSimFlags registers the shared simulation flags on fs.
func AddSimFlags(fs *flag.FlagSet) *SimFlags {
	var s SimFlags
	fs.Uint64Var(&s.Instructions, "instr", 0, "total instructions per CPU run (0 = default)")
	fs.Uint64Var(&s.Seed, "seed", 1, "workload synthesis seed")
	fs.StringVar(&s.Workloads, "workloads", "", "comma-separated CPU workload subset")
	fs.StringVar(&s.Kernels, "kernels", "", "comma-separated GPU kernel subset")
	AddJobsFlag(fs, &s.Jobs)
	AddDistFlags(fs, &s.Dist)
	return &s
}

// AddJobsFlag registers the shared worker-pool flag on fs.
func AddJobsFlag(fs *flag.FlagSet, jobs *int) {
	fs.IntVar(jobs, "jobs", 0, "concurrent simulation jobs (0 = NumCPU); results are identical for any value")
}

// DistFlags are the distribution flags every CLI shares: the persistent
// result cache and the remote worker fleet (internal/dist).
type DistFlags struct {
	CacheDir string
	Remote   string
}

// AddDistFlags registers the shared distribution flags on fs.
func AddDistFlags(fs *flag.FlagSet, d *DistFlags) {
	AddCacheDirFlag(fs, &d.CacheDir)
	fs.StringVar(&d.Remote, "remote", "", "comma-separated hetserved workers (host:port) used as extra engine lanes")
}

// AddCacheDirFlag registers the persistent result-cache flag on fs, for
// commands whose jobs never execute remotely.
func AddCacheDirFlag(fs *flag.FlagSet, dir *string) {
	fs.StringVar(dir, "cache-dir", "", "persistent result-cache directory; repeated invocations skip already-simulated jobs")
}

// Start opens the observability session of one CLI invocation and the
// engine that every experiment of the invocation shares, so experiments
// sharing a simulation matrix (fig7/8/9, fig10/11/12, cycles...)
// simulate it once. The returned options carry the parsed flags, the
// session's Observer and the engine. command and experiments go into
// the report manifest; the caller may append more experiments.
func (s *SimFlags) Start(ob *ObsFlags, command []string, experiments ...string) (*ObsSession, Options, error) {
	sess, err := ob.Start(command)
	if err != nil {
		return nil, Options{}, err
	}
	sess.Seed = s.Seed
	sess.Experiments = experiments
	opts := Options{Instructions: s.Instructions, Seed: s.Seed, Jobs: s.Jobs,
		CacheDir: s.Dist.CacheDir, Obs: sess.Obs}
	if s.Dist.Remote != "" {
		opts.Remote = strings.Split(s.Dist.Remote, ",")
	}
	if s.Workloads != "" {
		opts.Workloads = strings.Split(s.Workloads, ",")
	}
	if s.Kernels != "" {
		opts.Kernels = strings.Split(s.Kernels, ",")
	}
	if opts, err = opts.WithSharedEngine(); err != nil {
		return nil, Options{}, err
	}
	sess.Engine = opts.Engine
	return sess, opts, nil
}

// ObsFlags are the observability flags every CLI shares.
type ObsFlags struct {
	MetricsOut string
	TraceOut   string
	Progress   bool
	Serve      string
	CPUProfile string
	MemProfile string
}

// AddObsFlags registers the shared observability flags on fs.
func AddObsFlags(fs *flag.FlagSet) *ObsFlags {
	var f ObsFlags
	fs.StringVar(&f.MetricsOut, "metrics-out", "", "write the metrics/run-record report JSON here")
	fs.StringVar(&f.TraceOut, "trace-out", "", "write a Chrome trace (ui.perfetto.dev) JSON here")
	fs.BoolVar(&f.Progress, "progress", false, "print progress heartbeats to stderr")
	fs.StringVar(&f.Serve, "serve", "", "serve the live telemetry dashboard on this addr (e.g. :8090)")
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a pprof CPU profile here")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write a pprof heap profile here")
	return &f
}

func (f *ObsFlags) enabled() bool {
	return f.MetricsOut != "" || f.TraceOut != "" || f.Progress || f.Serve != ""
}

// ObsSession is one CLI invocation's observability state: the Observer to
// thread into Options/RunOpts and the output files to flush on Close.
// The caller may fill Experiments and Seed for the report manifest.
type ObsSession struct {
	Obs *obs.Observer

	// Manifest fields, set by the caller before Close.
	Experiments []string
	Seed        uint64
	// Engine, when set, contributes its job/cache/remote stats to the
	// report manifest.
	Engine *engine.Engine

	flags   ObsFlags
	command []string
	start   time.Time
	cpuProf *os.File
	cpuOnce sync.Once
	server  *obs.Server
}

// stopCPUProfile stops the running CPU profile and closes its file
// exactly once, no matter how many exit paths reach it (Start's
// server-error unwind and Close both do). Later calls are no-ops.
func (s *ObsSession) stopCPUProfile() error {
	if s.cpuProf == nil {
		return nil
	}
	var err error
	s.cpuOnce.Do(func() {
		pprof.StopCPUProfile()
		err = s.cpuProf.Close()
	})
	return err
}

// Start opens the observability session described by the flags: it builds
// the Observer (nil when no obs flag is set — the simulators then skip
// all instrumentation) and starts CPU profiling if requested. command is
// recorded in the report manifest.
func (f *ObsFlags) Start(command []string) (*ObsSession, error) {
	s := &ObsSession{flags: *f, command: command, start: time.Now()}
	if f.CPUProfile != "" {
		fh, err := os.Create(f.CPUProfile)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(fh); err != nil {
			fh.Close()
			return nil, err
		}
		s.cpuProf = fh
	}
	if f.enabled() {
		o := &obs.Observer{
			Metrics: obs.NewRegistry(),
			Records: &obs.RecordSink{},
		}
		if f.TraceOut != "" {
			o.Trace = obs.NewTraceWriter()
			o.Trace.ProcessName(0, "harness")
		}
		switch {
		case f.Progress:
			o.Progress = obs.NewProgress(os.Stderr, 0)
		case f.Serve != "":
			// The dashboard needs heartbeat state even when the stderr
			// heartbeat is off; discard the printed lines.
			o.Progress = obs.NewProgress(io.Discard, 0)
		}
		if f.Serve != "" {
			// Live telemetry: per-interval series, the event log and the
			// HTTP dashboard. Only -serve arms the samplers, so plain
			// -metrics-out runs keep their exact prior cost and output.
			o.Series = obs.NewSeriesSet(0)
			o.Events = obs.NewEventLog(0)
			srv, err := obs.StartServer(f.Serve, o)
			if err != nil {
				s.stopCPUProfile() //nolint:errcheck // unwinding on the server error
				return nil, err
			}
			s.server = srv
			fmt.Fprintf(os.Stderr, "obs: serving live telemetry on %s\n", srv.URL())
		}
		s.Obs = o
	}
	return s, nil
}

// Close stops profiling and writes the trace and metrics files.
func (s *ObsSession) Close() error {
	if s == nil {
		return nil
	}
	s.Obs.Prog().Finish()
	if err := s.stopCPUProfile(); err != nil {
		return err
	}
	if s.flags.MemProfile != "" {
		fh, err := os.Create(s.flags.MemProfile)
		if err != nil {
			return err
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(fh); err != nil {
			fh.Close()
			return err
		}
		if err := fh.Close(); err != nil {
			return err
		}
	}
	if s.flags.TraceOut != "" {
		if err := WriteFile(s.flags.TraceOut, s.Obs.Tracer().WriteJSON); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
	}
	if s.flags.MetricsOut != "" {
		if err := WriteFile(s.flags.MetricsOut, s.Report().WriteJSON); err != nil {
			return fmt.Errorf("writing metrics: %w", err)
		}
	}
	if s.server != nil {
		if err := s.server.Close(); err != nil {
			return fmt.Errorf("stopping telemetry server: %w", err)
		}
	}
	return nil
}

// Report assembles the manifest, metrics snapshot and run records. Runs
// are sorted into the canonical order so reports do not depend on the
// completion order of the -jobs worker pool.
func (s *ObsSession) Report() obs.Report {
	runs := s.Obs.Sink().Records()
	obs.SortRecords(runs)
	wall := time.Since(s.start).Seconds()
	// The rate counts simulated instructions only: soc and traffic
	// records compose measured runs and report modelled work.
	var insts uint64
	for _, r := range runs {
		switch r.Kind {
		case "cpu", "cmp", "gpu":
			insts += r.Instructions
		}
	}
	m := obs.Manifest{
		Schema:      obs.SchemaVersion,
		Command:     s.command,
		GoVersion:   runtime.Version(),
		Experiments: s.Experiments,
		Seed:        s.Seed,
		Runs:        len(runs),
		WallSeconds: wall,
	}
	if s.Engine != nil {
		m.EngineJobsRun = s.Engine.JobsRun()
		m.EngineCacheHits = s.Engine.CacheHits()
		m.EngineDiskHits = s.Engine.DiskHits()
		m.EngineRemoteJobs = s.Engine.RemoteJobs()
	}
	if wall > 0 {
		m.SimRateKIPS = float64(insts) / wall / 1e3
	}
	var snap obs.Snapshot
	if reg := s.Obs.Reg(); reg != nil {
		snap = reg.Snapshot()
		m.SoCConfigsEvaluated = snap.Counters["soc.configs_evaluated"]
		m.SoCConfigsOverBudget = snap.Counters["soc.configs_over_budget"]
	}
	return obs.Report{Manifest: m, Metrics: snap, Runs: runs}
}

// WriteFile creates path, fills it with write and closes it, returning
// the first error of the three.
func WriteFile(path string, write func(w io.Writer) error) error {
	fh, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(fh); err != nil {
		fh.Close()
		return err
	}
	return fh.Close()
}
