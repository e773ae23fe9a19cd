package dist

import (
	"fmt"
	"testing"

	"hetcore/internal/engine"
	"hetcore/internal/gpu"
	"hetcore/internal/hetsim"
	"hetcore/internal/soc"
	"hetcore/internal/trace"
	"hetcore/internal/traffic"
)

// stockKeys lists every stock (device, config, workload) triple a daemon
// resolves, built from the packages that own the names, with the number
// of triples per device.
func stockKeys() ([]engine.Key, map[string]int) {
	var keys []engine.Key
	counts := map[string]int{}
	add := func(device, config, workload string, instr uint64) {
		keys = append(keys, engine.Key{Device: device, Config: config, Workload: workload,
			Seed: 1, Instr: instr})
		counts[device]++
	}
	profs := trace.CPUWorkloads()
	for _, c := range hetsim.CPUConfigs() {
		for _, p := range profs {
			add("cpu", c.Name, p.Name, 10_000)
		}
	}
	for _, c := range hetsim.GPUConfigs() {
		for _, k := range gpu.Kernels() {
			add("gpu", c.Name, k.Name, 0)
		}
	}
	for _, c := range []string{"HeteroCMP", "HeteroCMP-nomig"} {
		for _, p := range profs {
			add("cmp", c, p.Name, 10_000)
		}
	}
	for _, c := range soc.DefaultSpace() {
		for _, w := range soc.Workloads() {
			add("soc", c.Name(), w.Name, 10_000)
		}
	}
	for _, m := range traffic.DefaultMixes {
		for _, p := range traffic.PolicyNames() {
			for _, tr := range traffic.TraceNames() {
				add("traffic", m+"+"+p, tr, 10_000)
			}
		}
	}
	return keys, counts
}

// TestResolvableSet pins the set of keys a daemon resolves: every stock
// triple and every per-core trace-stats key resolves, and the near misses
// around them do not.
func TestResolvableSet(t *testing.T) {
	keys, counts := stockKeys()
	want := map[string]int{"cpu": 12 * 14, "gpu": 6 * 19, "cmp": 2 * 14, "soc": 2320 * 14, "traffic": 6 * 3}
	for dev, n := range want {
		if counts[dev] != n {
			t.Errorf("%s: %d stock triples, want %d", dev, counts[dev], n)
		}
	}
	if len(keys) != 32_808 {
		t.Errorf("%d stock triples, want 32808", len(keys))
	}
	for _, p := range trace.CPUWorkloads() {
		for core := 0; core < 4; core++ {
			keys = append(keys, engine.Key{Device: "trace", Config: "stats", Workload: p.Name,
				Seed: 1, Instr: 10_000, Variant: fmt.Sprintf("core=%d", core)})
		}
	}
	for _, k := range keys {
		if !Resolvable(k) {
			t.Errorf("key %s not resolvable", k)
		}
	}

	miss := func(device, config, workload string, instr uint64, variant string) engine.Key {
		return engine.Key{Device: device, Config: config, Workload: workload,
			Seed: 1, Instr: instr, Variant: variant}
	}
	var near []engine.Key
	for _, mix := range []string{"c02t4g8", "c2t4g8xt02", "c2t4g8xt3", "c9t0g0", "c1t0g5", "c0t0g4"} {
		near = append(near, miss("soc", mix, "fft", 10_000, ""))
	}
	for _, k := range []engine.Key{
		miss("cpu", "AdvHet", "barnes", 10_000, ""),
		miss("gpu", "AdvHet", "Reduction", 0, ""),
		miss("cmp", "HeteroCMP", "barnes", 10_000, ""),
		miss("soc", "c2t4g8", "fft", 10_000, ""),
		miss("traffic", "c4t4g0+cacheaware", "diurnal", 10_000, ""),
	} {
		if !Resolvable(k) {
			t.Errorf("stock key %s not resolvable", k)
		}
		for _, v := range []string{"cores=1", "sweep:window=8", "x"} {
			k.Variant = v
			near = append(near, k)
		}
	}
	near = append(near,
		miss("gpu", "AdvHet", "Reduction", 5, ""),
		miss("cpu", "advhet", "barnes", 10_000, ""),
		miss("traffic", "c2t2g0+cacheaware", "diurnal", 10_000, ""),
		miss("traffic", "c4t4g0+nosuch", "diurnal", 10_000, ""),
		miss("traffic", "c4t4g0", "diurnal", 10_000, ""),
		miss("traffic", "nope+naive", "diurnal", 10_000, ""),
		miss("traffic", "c4t4g0+cacheaware", "nosuch", 10_000, ""),
		miss("trace", "stats", "barnes", 10_000, ""),
		miss("foo", "AdvHet", "barnes", 10_000, ""),
	)
	for _, k := range near {
		if Resolvable(k) {
			t.Errorf("near miss %s resolvable, want not", k)
		}
	}
}

// TestResolvableAllocs: deciding whether a key resolves looks names up in
// tables built once, so it costs a handful of allocations for every
// device kind, however large the kind's name space.
func TestResolvableAllocs(t *testing.T) {
	for _, k := range []engine.Key{
		{Device: "cpu", Config: "AdvHet", Workload: "barnes", Seed: 1, Instr: 10_000},
		{Device: "gpu", Config: "AdvHet", Workload: "Reduction", Seed: 1},
		{Device: "cmp", Config: "HeteroCMP", Workload: "barnes", Seed: 1, Instr: 10_000},
		{Device: "soc", Config: "c2t4g8", Workload: "fft", Seed: 1, Instr: 10_000},
		{Device: "traffic", Config: "c4t4g0+cacheaware", Workload: "diurnal", Seed: 1, Instr: 10_000},
		traceKey("barnes", 1),
	} {
		Resolvable(k) // build the tables
		if n := testing.AllocsPerRun(20, func() { Resolvable(k) }); n > 8 {
			t.Errorf("Resolvable(%s): %.0f allocations, want at most 8", k, n)
		}
	}
}
