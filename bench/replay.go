package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"hetcore/internal/dist"
	"hetcore/internal/engine"
	"hetcore/internal/harness"
	"hetcore/internal/obs"
)

// timingCache is the engine's second-level cache during a traced
// replay: the dist disk cache, plus the time each lookup and write took
// and every result that passed through, which the layer probes reuse as
// that workload's inputs.
type timingCache struct {
	disk *dist.DiskCache

	mu             sync.Mutex
	results        map[engine.Key]any
	gets, puts     int
	getDur, putDur time.Duration
}

func (c *timingCache) Get(k engine.Key) (any, bool) {
	start := time.Now()
	v, ok := c.disk.Get(k)
	d := time.Since(start)
	c.mu.Lock()
	c.gets++
	c.getDur += d
	if ok {
		c.results[k] = v
	}
	c.mu.Unlock()
	return v, ok
}

func (c *timingCache) Put(k engine.Key, v any) {
	start := time.Now()
	c.disk.Put(k, v)
	d := time.Since(start)
	c.mu.Lock()
	c.puts++
	c.putDur += d
	c.results[k] = v
	c.mu.Unlock()
}

// span is one closed interval of the traced run.
type span struct {
	name string
	dur  time.Duration
}

// replayResult is what one traced in-process `hetcore all` produced.
type replayResult struct {
	stdout []byte
	wall   time.Duration
	exps   []span             // one per experiment, in paper order
	busy   map[string]float64 // engine job seconds per device kind
	eng    *engine.Engine
	cache  *timingCache
}

// replayAll runs every experiment of `hetcore all` in this process on one
// two-lane engine whose second-level cache is a timingCache over the
// dist disk cache in dir. Spans are kept in memory: one per experiment
// on the harness track, one per executed job on the engine's lane
// tracks. The Chrome trace is written to tracePath at the end.
func replayAll(dir string, seed, instr uint64, tracePath string) (*replayResult, error) {
	disk, err := dist.OpenCache(dir, nil)
	if err != nil {
		return nil, err
	}
	tw := obs.NewTraceWriter()
	tw.ProcessName(0, "harness")
	eng := engine.New(2, &obs.Observer{Trace: tw})
	origin := time.Now()
	tc := &timingCache{disk: disk, results: map[engine.Key]any{}}
	eng.SetCache(tc)
	opts := harness.Options{Instructions: instr, Seed: seed, Engine: eng}

	res := &replayResult{eng: eng, cache: tc}
	var out bytes.Buffer
	for _, ex := range harness.Experiments() {
		start := time.Now()
		t, err := harness.RunExperiment(ex, opts)
		d := time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", ex.ID, err)
		}
		tw.Complete(0, 0, ex.ID, "harness", us(start.Sub(origin)), us(d), nil)
		res.exps = append(res.exps, span{ex.ID, d})
		if err := t.Format(&out); err != nil {
			return nil, err
		}
	}
	res.wall = time.Since(origin)
	res.stdout = out.Bytes()

	var buf bytes.Buffer
	if err := tw.WriteJSON(&buf); err != nil {
		return nil, err
	}
	if res.busy, err = busyByDevice(buf.Bytes()); err != nil {
		return nil, err
	}
	return res, os.WriteFile(tracePath, buf.Bytes(), 0o644)
}

// busyByDevice sums the engine's per-job slices of a Chrome trace by the
// job's device kind.
func busyByDevice(traceJSON []byte) (map[string]float64, error) {
	var f struct {
		TraceEvents []obs.TraceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(traceJSON, &f); err != nil {
		return nil, err
	}
	busy := map[string]float64{}
	for _, ev := range f.TraceEvents {
		if ev.Cat == "engine" && ev.Phase == "X" {
			dev, _ := ev.Args["device"].(string)
			busy[dev] += ev.Dur / 1e6
		}
	}
	return busy, nil
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// sortKeys orders keys by their rendered form, so probes see the same
// sequence on every run.
func sortKeys(keys []engine.Key) {
	names := make(map[engine.Key]string, len(keys))
	for _, k := range keys {
		names[k] = k.String()
	}
	sort.Slice(keys, func(i, j int) bool { return names[keys[i]] < names[keys[j]] })
}

// keysOf returns the keys of a result set, sorted.
func keysOf(results map[engine.Key]any) []engine.Key {
	keys := make([]engine.Key, 0, len(results))
	for k := range results {
		keys = append(keys, k)
	}
	sortKeys(keys)
	return keys
}
