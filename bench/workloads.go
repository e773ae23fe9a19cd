package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"hetcore/internal/dist"
	"hetcore/internal/engine"
	"hetcore/internal/harness"
	"hetcore/internal/obs"
)

// warmInstr is paper-warm's CPU budget. A warm repetition reads the same
// 13,213 results whatever the budget; a small one keeps the cold fill,
// repeated by every set-up, near eight seconds (the GPU kernels, whose
// length is fixed, take most of it).
const warmInstr = 10_000

// minReps is the fewest warm repetitions a run times, however short its
// window.
const minReps = 2

// report is the benchmark's result, printed as the last line of standard
// output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	problems []string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *report) set(name string, v float64, unit string) { r.Metrics[name] = metric{v, unit} }

// problem records a failed output check.
func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) check(err error) {
	if err != nil {
		r.problem("%v", err)
	}
}

// endToEnd sets the end-to-end metrics from a run's timed requests: lat
// holds every attempted request (failed ones too), elapsed the window
// they filled, cpuTime the system under test's CPU time over them, and
// setups the durations of the repeated set-up.
func (r *report) endToEnd(lat []time.Duration, elapsed, cpuTime time.Duration, rssMB float64, setups []time.Duration) {
	ms := make([]float64, len(lat))
	for i, d := range lat {
		ms[i] = float64(d.Nanoseconds()) / 1e6
	}
	r.Attempted = len(lat)
	q := tailQuantile(len(ms))
	r.set("latency_p50_ms", median(ms), "ms")
	r.set("latency_tail_ms", quantile(ms, q), "ms")
	fmt.Printf("latency tail is the p%g of %d requests\n", 100*q, len(ms))
	r.set("throughput_rps", float64(len(lat)-r.Failed)/elapsed.Seconds(), "1/s")
	r.set("cpu_ms_per_req", float64(cpuTime.Nanoseconds())/1e6/float64(len(lat)), "ms")
	r.set("peak_rss_mb", rssMB, "MB")
	s := make([]float64, len(setups))
	for i, d := range setups {
		s[i] = d.Seconds()
	}
	r.set("setup_s", median(s), "s")
	fmt.Printf("requests %d (failed %d) in %.3f s; set-ups %d\n", len(lat), r.Failed, elapsed.Seconds(), len(setups))
}

// minSetupTime is the least total time a run spends repeating its
// set-up, so a set-up of a few milliseconds still yields a steady median.
const minSetupTime = time.Second

// setUp repeats the workload's set-up at least e.setups times and for at
// least minSetupTime, and returns how long each took.
func (e *env) setUp(fn func(i int) error) ([]time.Duration, error) {
	var ds []time.Duration
	var total time.Duration
	for i := 0; i < e.setups || total < minSetupTime; i++ {
		start := time.Now()
		if err := fn(i); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		ds = append(ds, time.Since(start))
		total += ds[i]
	}
	return ds, nil
}

// allArgs is the `hetcore all` command line of the paper workloads.
func (e *env) allArgs(instr uint64, cacheDir, metricsOut string) []string {
	args := []string{"all", "-seed", strconv.FormatUint(e.seed, 10), "-jobs", "2",
		"-cache-dir", cacheDir, "-metrics-out", metricsOut}
	if instr != 0 {
		args = append(args, "-instr", strconv.FormatUint(instr, 10))
	}
	return args
}

func experimentIDs() []string {
	var ids []string
	for _, ex := range harness.Experiments() {
		ids = append(ids, ex.ID)
	}
	return ids
}

// checkTables checks one `hetcore all` output: every experiment's table
// in paper order and, at seed 1 with the default budget, every table of
// the committed results_full.txt byte for byte.
func (e *env) checkTables(r *report, stdout []byte, instr uint64) {
	r.check(checkHeaders(string(stdout), experimentIDs()))
	if e.seed != 1 || instr != 0 {
		return
	}
	ref, err := os.ReadFile(filepath.Join(e.root, "results_full.txt"))
	if err != nil {
		r.check(err)
		return
	}
	if bad := matchReference(string(ref), string(stdout)); len(bad) > 0 {
		r.problem("results_full.txt tables not reproduced: %s", strings.Join(bad, ", "))
	}
}

// checkCold checks that a cold run simulated every job exactly once: as
// many jobs ran as the disk cache holds entries, and none came from disk.
func checkCold(dir string, jobsRun, diskHits uint64) error {
	n, err := cacheEntries(dir)
	if err != nil {
		return err
	}
	if jobsRun == 0 || jobsRun != uint64(n) || diskHits != 0 {
		return fmt.Errorf("cold run: %d jobs run, %d disk hits, %d cache entries", jobsRun, diskHits, n)
	}
	return nil
}

// paperCold is one `hetcore all` on an empty disk cache: every figure and
// extension simulated from scratch, the ROADMAP's end-to-end number. Its
// set-up makes the empty cache directory and checks the binary's version
// stamp.
func (e *env) paperCold(r *report, traced bool) error {
	dir := filepath.Join(e.tmp, "cold-cache")
	setups, err := e.setUp(func(int) error {
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		p, err := e.run("hetcore", "version")
		if err != nil {
			return err
		}
		if stamp, _, _ := strings.Cut(string(p.stdout), "\n"); stamp != dist.Stamp() {
			return fmt.Errorf("hetcore stamp %q, benchmark built with %q", stamp, dist.Stamp())
		}
		return nil
	})
	if err != nil {
		return err
	}
	if traced {
		return e.paperTraced(r, dir, e.instr, nil, 0)
	}
	m := filepath.Join(e.tmp, "cold-metrics.json")
	p, err := e.run("hetcore", e.allArgs(e.instr, dir, m)...)
	if err != nil {
		return err
	}
	e.checkTables(r, p.stdout, e.instr)
	man, err := readManifest(m)
	if err == nil {
		err = checkCold(dir, man.JobsRun, man.DiskHits)
	}
	r.check(err)
	if len(r.problems) > 0 {
		r.Failed = 1
	}
	fmt.Printf("engine: %d jobs run, %d memory hits\n", man.JobsRun, man.CacheHits)
	r.endToEnd([]time.Duration{p.wall}, p.wall, p.cpu, p.rssMB, setups)
	return nil
}

// paperWarm repeats `hetcore all` against a disk cache that already holds
// every result, so each repetition simulates nothing: the engine, codec
// and disk-cache reads do all the work. Its set-up is the cold fill.
func (e *env) paperWarm(r *report, traced bool) error {
	instr := e.instr
	if instr == 0 {
		instr = warmInstr
	}
	var dir string
	var fill []byte
	var filled uint64
	setups, err := e.setUp(func(i int) error {
		dir = filepath.Join(e.tmp, fmt.Sprintf("warm-cache-%d", i))
		m := filepath.Join(e.tmp, "fill-metrics.json")
		p, err := e.run("hetcore", e.allArgs(instr, dir, m)...)
		if err != nil {
			return err
		}
		man, err := readManifest(m)
		if err == nil {
			err = checkCold(dir, man.JobsRun, man.DiskHits)
		}
		if err != nil {
			return err
		}
		if fill != nil && !bytes.Equal(p.stdout, fill) {
			return errors.New("two cold fills printed different tables")
		}
		fill, filled = p.stdout, man.JobsRun
		return nil
	})
	if err != nil {
		return err
	}
	e.checkTables(r, fill, instr)
	if traced {
		return e.paperTraced(r, dir, instr, fill, filled)
	}

	m := filepath.Join(e.tmp, "rep-metrics.json")
	var lat []time.Duration
	var cpuTime time.Duration
	var rss []float64
	start := time.Now()
	for len(lat) < minReps || time.Since(start) < e.window {
		p, err := e.run("hetcore", e.allArgs(instr, dir, m)...)
		if err != nil {
			return err
		}
		lat, cpuTime, rss = append(lat, p.wall), cpuTime+p.cpu, append(rss, p.rssMB)
		man, err := readManifest(m)
		switch {
		case err != nil:
			r.check(err)
		case !bytes.Equal(p.stdout, fill):
			r.problem("warm repetition %d printed different tables than the fill", len(lat))
		case man.JobsRun != 0 || man.DiskHits != filled:
			r.problem("warm repetition %d: %d jobs run, %d disk hits, want 0 and %d",
				len(lat), man.JobsRun, man.DiskHits, filled)
		default:
			continue
		}
		r.Failed++
	}
	r.endToEnd(lat, time.Since(start), cpuTime, median(rss), setups)
	return nil
}

// paperTraced replays `hetcore all` in this process with spans, checks it
// printed what the binary prints, and runs the layer probes on its keys
// and results. want is the binary's output for the same cache state (nil
// for a cold cache, which is checked against the reference instead) and
// filled the number of results the cache holds.
func (e *env) paperTraced(r *report, dir string, instr uint64, want []byte, filled uint64) error {
	res, err := replayAll(dir, e.seed, instr, e.tracePath())
	if err != nil {
		return err
	}
	r.Attempted = 1
	if want == nil {
		e.checkTables(r, res.stdout, instr)
		r.check(checkCold(dir, res.eng.JobsRun(), res.eng.DiskHits()))
	} else {
		if !bytes.Equal(res.stdout, want) {
			r.problem("traced replay printed different tables than hetcore")
		}
		if res.eng.JobsRun() != 0 || res.eng.DiskHits() != filled {
			r.problem("traced replay: %d jobs run, %d disk hits, want 0 and %d",
				res.eng.JobsRun(), res.eng.DiskHits(), filled)
		}
	}
	if len(r.problems) > 0 {
		r.Failed = 1
	}
	fmt.Printf("traced replay %.3f s; trace in %s\n", res.wall.Seconds(), e.tracePath())
	for _, s := range res.exps {
		fmt.Printf("  harness.%s_s %.6f s\n", s.name, s.dur.Seconds())
	}
	for _, dev := range sortedNames(res.busy) {
		fmt.Printf("  hetsim.%s_busy_s %.6f s\n", dev, res.busy[dev])
	}
	c := res.cache
	fmt.Printf("  disk cache: %d gets (%.3f s), %d puts (%.3f s)\n",
		c.gets, c.getDur.Seconds(), c.puts, c.putDur.Seconds())
	r.set("engine.jobs_run", float64(res.eng.JobsRun()), "count")
	r.set("engine.disk_hits", float64(res.eng.DiskHits()), "count")
	r.set("engine.mem_hits", float64(res.eng.CacheHits()), "count")

	results := c.results
	samples, missFrac, err := e.rttProbe(results, instr)
	if err != nil {
		return err
	}
	if missFrac != 1 {
		r.problem("round-trip probe: %.4f of the fresh keys simulated exactly once, want all", missFrac)
	}
	rttMetrics(r, samples, missFrac, "round-trip probe")
	return e.layerProbes(r, keysOf(results), results)
}

// serve is a fresh hetserved daemon under the recorded dist.Pool request
// stream: the only workload on the wire and daemon path. Its set-up
// starts the daemon on an empty cache.
func (e *env) serve(r *report, traced bool) error {
	log, err := e.requestLog()
	if err != nil {
		return err
	}
	instr := e.instr
	if instr == 0 {
		instr = poolInstr
	}
	keys := poolKeys(log, e.seed, instr)
	c := newClient()
	var daemons []*daemon
	setups, err := e.setUp(func(i int) error {
		d, err := e.serveSetup(c, filepath.Join(e.tmp, fmt.Sprintf("serve-cache-%d", i)))
		if err != nil {
			return err
		}
		daemons = append(daemons, d)
		return nil
	})
	// Only the last set-up's daemon serves the window.
	var d *daemon
	if err == nil {
		d, daemons = daemons[len(daemons)-1], daemons[:len(daemons)-1]
	}
	for _, old := range daemons {
		if _, stopErr := old.stop(); err == nil {
			err = stopErr
		}
	}
	if err != nil {
		if d != nil {
			d.stop() //nolint:errcheck // the earlier error is reported
		}
		return err
	}

	cpu0, err := d.cpuTime()
	var samples []sample
	var elapsed time.Duration
	var cpu1 time.Duration
	var h dist.HealthResponse
	if err == nil {
		samples, elapsed = runLoad(c, loadSpec{base: d.base, keys: keys, seed: e.seed, window: e.window})
		if cpu1, err = d.cpuTime(); err == nil {
			h, err = health(c, d.base)
		}
	}
	st, stopErr := d.stop()
	if err == nil {
		err = stopErr
	}
	if err != nil {
		return err
	}
	missFrac := checkLoad(samples, nil)
	lat := make([]time.Duration, len(samples))
	hits := 0
	for i, s := range samples {
		lat[i] = s.dur
		if s.err != nil {
			if r.Failed < 5 {
				r.problem("request %d, %s: %v", s.idx, s.key, s.err)
			}
			r.Failed++
		} else if s.hit {
			hits++
		}
	}
	if missFrac != 1 {
		r.problem("%.4f of the keys simulated exactly once, want all", missFrac)
	}
	fmt.Printf("stream: %d requests (%d passes of %d keys), %d served from the daemon's cache\n",
		len(samples), (len(samples)+len(keys)-1)/len(keys), len(keys), hits)
	fmt.Printf("daemon: %d jobs run, %d memory hits, %d disk hits\n", h.JobsRun, h.CacheHits, h.DiskHits)
	if !traced {
		r.endToEnd(lat, elapsed, cpu1-cpu0, maxRSSMB(st), setups)
		return nil
	}

	r.Attempted = len(samples)
	if err := writeLoadTrace(e.tracePath(), samples); err != nil {
		return err
	}
	fmt.Printf("traced loop of %d requests; trace in %s\n", len(samples), e.tracePath())
	r.set("engine.jobs_run", float64(h.JobsRun), "count")
	r.set("engine.disk_hits", float64(h.DiskHits), "count")
	r.set("engine.mem_hits", float64(h.CacheHits), "count")
	rttMetrics(r, samples, missFrac, "traced loop")

	results := map[engine.Key]any{}
	for _, s := range samples {
		if _, done := results[s.key]; s.err == nil && !done {
			if results[s.key], err = dist.DecodeResult(s.typ, s.result); err != nil {
				return err
			}
		}
	}
	return e.layerProbes(r, keysOf(results), results)
}

// writeLoadTrace writes a closed loop's requests as a Chrome trace: one
// track per connection, one slice per request carrying the daemon's
// echoed timing breakdown.
func writeLoadTrace(path string, samples []sample) error {
	tw := obs.NewTraceWriter()
	tw.ProcessName(1, "client")
	for i := 0; i < conns; i++ {
		tw.ThreadName(1, int64(i), fmt.Sprintf("connection %d", i))
	}
	for _, s := range samples {
		name := "simulated"
		if s.hit {
			name = "cached"
		}
		tw.Complete(1, int64(s.conn), name, "client", us(s.start), us(s.dur), map[string]any{
			"key": s.key.String(), "source": s.timing.Source, "server_wall_ms": s.wallMS,
			"queue_ms": s.timing.QueueMS, "cache_ms": s.timing.CacheMS,
			"exec_ms": s.timing.ExecMS, "encode_ms": s.timing.EncodeMS,
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tw.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// rttMetrics sets the daemon round-trip metrics from a checked closed
// loop: client round trips of requests the daemon served from its cache
// (hot) and of those it simulated (cold), the daemon's echoed lane wait
// and execute time of the cold ones, its encode time, the rest of the
// round trip (HTTP, JSON, the loopback wire), and missFrac from
// checkLoad.
func rttMetrics(r *report, samples []sample, missFrac float64, what string) {
	var hot, cold, queue, exec, encode, wire []float64
	failed := 0
	for _, s := range samples {
		if s.err != nil {
			if failed == 0 {
				r.problem("%s: request %d, %s: %v", what, s.idx, s.key, s.err)
			}
			failed++
			continue
		}
		rtt := us(s.dur)
		if s.hit {
			hot = append(hot, rtt)
		} else {
			cold, exec = append(cold, rtt), append(exec, s.timing.ExecMS*1e3)
			queue = append(queue, s.timing.QueueMS*1e3)
		}
		encode = append(encode, s.timing.EncodeMS*1e3)
		wire = append(wire, rtt-s.wallMS*1e3)
	}
	if failed > 0 || len(hot) == 0 || len(cold) == 0 {
		r.problem("%s: %d failed requests, %d hot and %d cold served", what, failed, len(hot), len(cold))
		return
	}
	r.set("dist.rtt_hot_p50_us", median(hot), "us")
	r.set("dist.rtt_cold_p50_us", median(cold), "us")
	r.set("dist.server_queue_us", median(queue), "us")
	r.set("dist.server_exec_us", median(exec), "us")
	r.set("dist.server_encode_us", median(encode), "us")
	r.set("dist.wire_us", median(wire), "us")
	r.set("dist.cold_miss_frac", missFrac, "frac")
	fmt.Printf("%s: %d hot, %d cold requests\n", what, len(hot), len(cold))
}

// layerProbes runs every layer probe on the workload's keys and results
// and sets the per-layer metrics.
func (e *env) layerProbes(r *report, keys []engine.Key, results map[engine.Key]any) error {
	runtime.GC()
	instr := e.instr
	if instr == 0 {
		instr = probeInstr
	}
	cp, err := probeCPU(e.seed, instr)
	if err != nil {
		return err
	}
	for _, m := range cp.mismatches {
		r.problem("cpu probe %s", m)
	}
	fmt.Printf("cpu probe: %d workload x config pairs, %d mismatches\n", cp.pairs, len(cp.mismatches))
	r.set("hetsim.cpu_minst_per_s", float64(cp.insts)/cp.runSec/1e6, "Minst/s")
	r.set("trace.synth_minst_per_s", float64(cp.synthInsts)/cp.synthSec/1e6, "Minst/s")
	r.set("cpu.core_minst_per_s", float64(cp.insts)/cp.coreSec/1e6, "Minst/s")
	r.set("cache.maccess_per_s", float64(cp.calls)/cp.cacheSec/1e6, "Maccess/s")
	r.set("cache.calls_per_inst", float64(cp.calls)/float64(cp.insts), "calls/inst")
	r.set("cpu.layer_sum_frac", (cp.synthSec+cp.coreSec+cp.cacheSec)/cp.runSec, "frac")
	r.set("energy.compute_us", cp.energySec*1e6/float64(cp.energyCalls), "us")

	rate, err := probeGPU(e.seed)
	if err != nil {
		return err
	}
	r.set("gpu.mwave_inst_per_s", rate, "Minst/s")
	evalUS, err := probeSoC(e.seed)
	if err != nil {
		return err
	}
	r.set("soc.evaluate_us", evalUS, "us")
	simMS, err := probeTraffic(e.seed)
	if err != nil {
		return err
	}
	r.set("traffic.simulate_ms", simMS, "ms")

	useful, err := syntheticUse(keys, e.workload == "serve")
	if err != nil {
		return err
	}
	r.set("trace.synth_useful_frac", useful, "frac")
	jobUS, hitUS, err := probeEngine(keys)
	if err != nil {
		return err
	}
	r.set("engine.job_overhead_us", jobUS, "us")
	r.set("engine.mem_hit_us", hitUS, "us")
	dp, err := probeDist(filepath.Join(e.tmp, "dist-probe"), keys, results)
	if err != nil {
		return err
	}
	if dp.mismatches > 0 {
		r.problem("dist probe: %d results did not survive encode/decode or the disk cache", dp.mismatches)
	}
	r.set("dist.encode_us", dp.encodeUS, "us")
	r.set("dist.decode_us", dp.decodeUS, "us")
	r.set("dist.diskcache_put_us", dp.putUS, "us")
	r.set("dist.diskcache_get_us", dp.getUS, "us")
	r.set("dist.result_bytes", dp.resultBytes, "B")
	fmt.Printf("engine and dist probes over %d keys\n", len(keys))
	return nil
}

func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
