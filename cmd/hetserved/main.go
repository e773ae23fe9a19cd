// Command hetserved is the networked simulation daemon of internal/dist.
//
// Usage:
//
//	hetserved [-addr :9090] [-cache-dir DIR] [-jobs N] [-addr-file F]
//
// The daemon executes simulation jobs POSTed to /v1/jobs on a local
// run-plan engine (internal/engine) and answers health probes on
// /v1/health. With -cache-dir every result is also written to the
// persistent content-addressed cache, so repeated jobs — from any
// client — are served from disk without simulating. Every request is
// instrumented (per-endpoint latency histograms, per-status error
// counters, queue-depth/in-flight gauges, a bounded request log) and
// summarised on GET /v1/stats, which also reports a runtime block
// (heap bytes, GC cycles, p99 GC pause, goroutines) so a fleet
// operator can spot memory or scheduler pressure without attaching a
// profiler; job responses carry the server-side
// queue/cache/execute/encode timing breakdown plus the client's trace
// context, which `-remote -trace-out` clients merge into per-worker
// Perfetto tracks. The observability endpoints of the live dashboard
// (/metrics.json, /metrics, /series, /events, the HTML index and the
// net/http/pprof handlers under /debug/pprof/) are mounted on the same
// listener, so an operator can watch a fleet worker with a browser —
// or grab a labelled CPU profile from it under load — while it serves.
// `hetcore load` drives synthetic load at a daemon and gates its latency
// quantiles.
//
// Clients (`hetcore run`, `all`, `soc`, `traffic` and `trace stats`)
// point -remote at one or more daemons; the stamp in every response
// lets a client reject workers built from different code or device
// tables, keeping results byte-identical to a purely local run.
//
// -addr :0 picks a free port; -addr-file writes the bound address to a
// file once listening, which scripts use to discover the port.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"hetcore/internal/dist"
	"hetcore/internal/obs"
)

func main() {
	fs := flag.NewFlagSet("hetserved", flag.ExitOnError)
	addr := fs.String("addr", ":9090", "listen address (host:port; :0 picks a free port)")
	addrFile := fs.String("addr-file", "", "write the bound address to this file once listening")
	cacheDir := fs.String("cache-dir", "", "persistent result-cache directory shared with local runs")
	var jobs int
	fs.IntVar(&jobs, "jobs", 0, "concurrent simulation jobs (0 = NumCPU)")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}

	// The daemon always runs with full telemetry: the obs endpoints are
	// mounted on the serving listener, so there is no separate -serve.
	o := &obs.Observer{
		Metrics:  obs.NewRegistry(),
		Series:   obs.NewSeriesSet(0),
		Events:   obs.NewEventLog(0),
		Progress: obs.NewProgress(io.Discard, 0),
	}

	d, err := dist.NewDaemon(dist.DaemonConfig{
		Jobs:     jobs,
		CacheDir: *cacheDir,
		Obs:      o,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "hetserved: "+format+"\n", args...)
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "hetserved:", err)
		os.Exit(1)
	}
	if err := d.Start(*addr); err != nil {
		fmt.Fprintln(os.Stderr, "hetserved:", err)
		os.Exit(1)
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(d.Addr()+"\n"), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "hetserved:", err)
			d.Close()
			os.Exit(1)
		}
	}
	cache := *cacheDir
	if cache == "" {
		cache = "(memory only)"
	}
	fmt.Fprintf(os.Stderr, "hetserved: listening on %s  stamp=%s  jobs=%d  cache=%s\n",
		d.Addr(), dist.Stamp(), d.Engine().Workers(), cache)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	fmt.Fprintf(os.Stderr, "hetserved: %s, shutting down\n", s)
	if err := d.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "hetserved:", err)
		os.Exit(1)
	}
}
