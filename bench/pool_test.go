package main

import (
	"encoding/json"
	"errors"
	"testing"

	"hetcore/internal/engine"
)

func TestParseKey(t *testing.T) {
	k, err := parseKey("soc/c4t4g8xc2/fft/s1/i10000")
	if err != nil {
		t.Fatal(err)
	}
	if want := (engine.Key{Device: "soc", Config: "c4t4g8xc2", Workload: "fft", Seed: 1, Instr: 10000}); k != want {
		t.Errorf("parsed %+v, want %+v", k, want)
	}
	for _, bad := range []string{
		"cpu/BaseCMOS/fft/s1",              // no budget
		"cpu/BaseCMOS/fft/1/i10000",        // seed without its s
		"cpu/BaseCMOS/fft/s01/i10000",      // does not render back
		"cpu/NoSuchConfig/fft/s1/i10000",   // the daemon cannot resolve it
		"gpu/BaseCMOS/BinarySearch/s1/i10", // GPU keys carry no budget
		"trace/stats/fft/s1/i2000/core=0",  // variants run where they were built
	} {
		if _, err := parseKey(bad); err == nil {
			t.Errorf("parseKey(%q) passed", bad)
		}
	}
}

// The recorded log must stay replayable: every key one the current
// runner registry resolves. A renamed config or workload fails here
// rather than in a benchmark run.
func TestRecordedPoolParses(t *testing.T) {
	keys, err := parsePool(poolLog)
	if err != nil {
		t.Fatal(err)
	}
	devices := map[string]bool{}
	for _, k := range keys {
		devices[k.Device] = true
	}
	for _, d := range []string{"cpu", "gpu", "cmp", "soc", "traffic"} {
		if !devices[d] {
			t.Errorf("recorded log has no %s key", d)
		}
	}
}

func TestPoolKeys(t *testing.T) {
	log := []engine.Key{
		{Device: "cpu", Config: "BaseCMOS", Workload: "fft", Seed: 1, Instr: 10000},
		{Device: "gpu", Config: "BaseCMOS", Workload: "URNG", Seed: 1},
	}
	got := poolKeys(log, 7, 0)
	if got[0].Seed != 7 || got[0].Instr != 0 || got[1].Seed != 7 || got[1].Instr != 0 {
		t.Errorf("poolKeys(seed 7, default budget) = %+v", got)
	}
	if got := poolKeys(log, 2, 20000); got[0].Instr != 20000 || got[1].Instr != 0 {
		t.Errorf("poolKeys(budget 20000) = %+v, want the CPU key moved and the GPU key left", got)
	}
	if log[0].Seed != 1 {
		t.Error("poolKeys changed its input")
	}
	if passSeed(5, 0) != 5 || passSeed(5, 1) == passSeed(6, 0) || passSeed(5, 1) == passSeed(5, 2) {
		t.Error("pass seeds collide")
	}
}

func TestCheckLoad(t *testing.T) {
	a := engine.Key{Device: "cpu", Config: "BaseCMOS", Workload: "fft", Seed: 1}
	b := engine.Key{Device: "cpu", Config: "BaseCMOS", Workload: "lu", Seed: 1}
	reply := func(k engine.Key, hit bool, payload string) sample {
		return sample{key: k, hit: hit, result: json.RawMessage(payload)}
	}
	failed := func(samples []sample) int {
		n := 0
		for _, s := range samples {
			if s.err != nil {
				n++
			}
		}
		return n
	}
	for _, tc := range []struct {
		name     string
		samples  []sample
		given    map[engine.Key][]byte
		failed   int
		missFrac float64
	}{
		{"each key simulated once, then cached",
			[]sample{reply(a, false, "1"), reply(b, false, "2"), reply(a, true, "1")}, nil, 0, 1},
		{"a repeat answered before the first request",
			[]sample{reply(a, true, "1"), reply(a, false, "1")}, nil, 0, 1},
		{"a key simulated twice",
			[]sample{reply(a, false, "1"), reply(a, false, "1")}, nil, 1, 0},
		{"a cached payload that changed",
			[]sample{reply(a, false, "1"), reply(a, true, "9")}, nil, 1, 1},
		{"a key never simulated",
			[]sample{reply(a, true, "1"), reply(b, false, "2")}, nil, 0, 0.5},
		{"given results served from the cache, fresh ones simulated",
			[]sample{reply(a, true, "1"), reply(b, false, "2")}, map[engine.Key][]byte{a: []byte("1")}, 0, 1},
		{"a given result simulated again",
			[]sample{reply(a, false, "1")}, map[engine.Key][]byte{a: []byte("1")}, 1, 1},
		{"a given result served changed",
			[]sample{reply(a, true, "2")}, map[engine.Key][]byte{a: []byte("1")}, 1, 1},
		{"a failed request is left out",
			[]sample{{key: a, err: errors.New("HTTP 500")}, reply(a, false, "1")}, nil, 1, 1},
	} {
		missFrac := checkLoad(tc.samples, tc.given)
		if got := failed(tc.samples); got != tc.failed || missFrac != tc.missFrac {
			t.Errorf("%s: %d failed, share %g; want %d, %g", tc.name, got, missFrac, tc.failed, tc.missFrac)
		}
	}
}
