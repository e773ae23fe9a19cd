package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"hetcore/internal/dist"
	"hetcore/internal/engine"
	"hetcore/internal/obs"
)

// poolLog is the request stream the serve workload replays: every key
// that two `hetcore all -remote` clients sent one fresh hetserved through
// their dist.Pool engine lanes, in the order they sent them. -record-pool
// writes it.
//
//go:embed poolmix.txt
var poolLog string

// Recording parameters: the budget the clients ran at and how many
// clients shared the daemon, one after the other.
const (
	poolInstr   = 10_000
	poolClients = 2
)

// requestLog returns the request log the run replays: e.pool when set,
// else the recorded one.
func (e *env) requestLog() ([]engine.Key, error) {
	if e.pool != nil {
		return e.pool, nil
	}
	return parsePool(poolLog)
}

// parsePool reads a request log: one stock key a line, as engine.Key
// renders it; blank lines and lines starting with # are skipped. Every
// key must be one a daemon can resolve.
func parsePool(text string) ([]engine.Key, error) {
	var keys []engine.Key
	for i, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		k, err := parseKey(line)
		if err != nil {
			return nil, fmt.Errorf("request log line %d: %w", i+1, err)
		}
		keys = append(keys, k)
	}
	if len(keys) == 0 {
		return nil, errors.New("request log holds no keys")
	}
	return keys, nil
}

// parseKey parses a stock key, device/config/workload/s<seed>/i<instr>.
func parseKey(s string) (engine.Key, error) {
	f := strings.Split(s, "/")
	if len(f) != 5 || !strings.HasPrefix(f[3], "s") || !strings.HasPrefix(f[4], "i") {
		return engine.Key{}, fmt.Errorf("%q is not device/config/workload/s<seed>/i<instr>", s)
	}
	seed, err := strconv.ParseUint(f[3][1:], 10, 64)
	if err != nil {
		return engine.Key{}, fmt.Errorf("%q: seed: %w", s, err)
	}
	instr, err := strconv.ParseUint(f[4][1:], 10, 64)
	if err != nil {
		return engine.Key{}, fmt.Errorf("%q: instructions: %w", s, err)
	}
	k := engine.Key{Device: f[0], Config: f[1], Workload: f[2], Seed: seed, Instr: instr}
	switch {
	case k.String() != s:
		return engine.Key{}, fmt.Errorf("%q does not render back to itself", s)
	case !dist.Resolvable(k):
		return engine.Key{}, fmt.Errorf("%s cannot run on a daemon", s)
	}
	return k, nil
}

// poolKeys returns the log's keys moved to one seed and, for the keys
// that carry a budget, to instr instructions (0 is the simulators'
// default, which is how `hetcore all` keys its default budget).
func poolKeys(log []engine.Key, seed, instr uint64) []engine.Key {
	keys := make([]engine.Key, len(log))
	for i, k := range log {
		k.Seed = seed
		if k.Instr != 0 {
			k.Instr = instr
		}
		keys[i] = k
	}
	return keys
}

// recordPool re-records the request log into path: a fresh hetserved on
// an empty cache, then poolClients `hetcore all -remote` runs against it
// one after the other, each on its own empty local cache. Each client's
// -trace-out holds one "dist" slice per job its pool sent, named by the
// key and carrying how the daemon served it.
func (e *env) recordPool(path string) error {
	d, err := e.startDaemon(filepath.Join(e.tmp, "record-daemon-cache"))
	if err != nil {
		return err
	}
	type request struct {
		ts     float64
		key    string
		source string
	}
	var clients [][]request
	for c := 1; c <= poolClients && err == nil; c++ {
		tr := filepath.Join(e.tmp, fmt.Sprintf("client-%d-trace.json", c))
		args := append(e.allArgs(poolInstr, filepath.Join(e.tmp, fmt.Sprintf("client-%d-cache", c)),
			filepath.Join(e.tmp, "client-metrics.json")),
			"-remote", strings.TrimPrefix(d.base, "http://"), "-trace-out", tr)
		if _, err = e.run("hetcore", args...); err != nil {
			break
		}
		var raw []byte
		if raw, err = os.ReadFile(tr); err != nil {
			break
		}
		var f struct {
			TraceEvents []obs.TraceEvent `json:"traceEvents"`
		}
		if err = json.Unmarshal(raw, &f); err != nil {
			break
		}
		var reqs []request
		for _, ev := range f.TraceEvents {
			if ev.Cat == "dist" && ev.Phase == "X" {
				src, _ := ev.Args["source"].(string)
				reqs = append(reqs, request{ev.TS, ev.Name, src})
			}
		}
		sort.SliceStable(reqs, func(i, j int) bool { return reqs[i].ts < reqs[j].ts })
		clients = append(clients, reqs)
	}
	if _, stopErr := d.stop(); err == nil {
		err = stopErr
	}
	if err != nil {
		return err
	}

	var b strings.Builder
	fmt.Fprintf(&b, "# dist.Pool request log: the keys %d `hetcore all -remote -seed %d -jobs 2 -instr %d`\n", poolClients, e.seed, poolInstr)
	b.WriteString("# clients sent one fresh `hetserved -jobs 2` on an empty cache, one client\n")
	b.WriteString("# after the other, each on its own empty local cache, in the order they sent\n")
	b.WriteString("# them. Re-record with: bash bench/run.sh -record-pool FILE\n")
	devices := map[string]int{}
	for c, reqs := range clients {
		hits := 0
		for _, r := range reqs {
			if r.source != "run" {
				hits++
			}
			devices[strings.SplitN(r.key, "/", 2)[0]]++
		}
		fmt.Fprintf(&b, "# client %d: %d requests, %d served from the daemon's cache\n", c+1, len(reqs), hits)
	}
	b.WriteString("# by device:")
	for _, dev := range sortedNames(devices) {
		fmt.Fprintf(&b, " %s %d", dev, devices[dev])
	}
	b.WriteString("\n")
	for _, reqs := range clients {
		for _, r := range reqs {
			b.WriteString(r.key + "\n")
		}
	}
	if _, err := parsePool(b.String()); err != nil {
		return err
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
