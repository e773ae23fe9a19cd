package dist

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"

	"hetcore/internal/engine"
	"hetcore/internal/hetsim"
)

// FuzzDiskCacheGet: whatever bytes sit at a key's entry path, Get never
// panics, and a hit is a registered result value that re-encodes.
func FuzzDiskCacheGet(f *testing.F) {
	key := engine.Key{Device: "cpu", Config: "BaseCMOS", Workload: "barnes", Seed: 1, Instr: 40_000}
	dir := f.TempDir()
	c, err := OpenCache(dir, nil)
	if err != nil {
		f.Fatal(err)
	}
	c.Put(key, hetsim.CPUResult{Config: "BaseCMOS", Workload: "barnes", Cores: 4, Cycles: 1234})
	valid, err := os.ReadFile(c.path(key))
	if err != nil {
		f.Fatal(err)
	}
	_, _, _, payload, err := splitEntry(valid)
	if err != nil {
		f.Fatal(err)
	}
	entry := func(stamp, typeName string, payload []byte) []byte {
		return append(appendEntryHeader(nil, stamp, key.String(), typeName), payload...)
	}
	// The v6 format: a JSON envelope. It must read as a miss.
	v6 := []byte(`{"stamp":"hetcore.dist/v6+` + DeviceTableHash() + `","key":"` + key.String() +
		`","type":"hetsim.CPUResult","result":{"Config":"BaseCMOS","Cores":4}}`)
	if err := os.WriteFile(c.path(key), v6, 0o644); err != nil {
		f.Fatal(err)
	}
	if _, ok := c.Get(key); ok {
		f.Fatal("v6 JSON entry reported a hit")
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2]) // torn write
	f.Add([]byte{})
	f.Add(v6)
	f.Add(entry(Stamp(), "hetsim.CPUResult", payload[:len(payload)-1]))
	f.Add(entry(Stamp(), "nope", payload))
	f.Add(entry("hetcore.dist/v1+0", "hetsim.CPUResult", payload))
	f.Add(entry(Stamp(), "hetsim.CPUResult", append(payload[:len(payload):len(payload)], 0)))

	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(c.path(key), data, 0o644); err != nil {
			t.Fatal(err)
		}
		v, ok := c.Get(key)
		if !ok {
			return
		}
		if _, _, err := EncodeResult(v); err != nil {
			t.Fatalf("hit %T does not re-encode: %v", v, err)
		}
	})
}

// FuzzDecodeResult: for any registered type name and payload,
// DecodeResult never panics, and a value it decodes re-encodes to bytes
// that decode and re-encode to themselves.
func FuzzDecodeResult(f *testing.F) {
	protos := RegisteredResults()
	names := make([]string, 0, len(protos))
	for name := range protos {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		pv := reflect.New(reflect.TypeOf(protos[name])).Elem()
		seed := 0
		fillValue(pv, &seed)
		_, data, err := EncodeResult(pv.Interface())
		if err != nil {
			f.Fatal(err)
		}
		for _, n := range []int{len(data), len(data) - 1, len(data) / 2, 1, 0} {
			f.Add(name, data[:n])
		}
	}
	f.Add("no.SuchType", []byte{0})

	f.Fuzz(func(t *testing.T, name string, data []byte) {
		v, err := DecodeResult(name, data)
		if err != nil {
			return
		}
		gotName, again, err := EncodeResult(v)
		if err != nil || gotName != name {
			t.Fatalf("decoded %T re-encodes as %q, %v", v, gotName, err)
		}
		back, err := DecodeResult(name, again)
		if err != nil {
			t.Fatalf("re-encoded %s does not decode: %v", name, err)
		}
		if _, third, _ := EncodeResult(back); !bytes.Equal(third, again) {
			t.Fatalf("%s re-encoding is unstable:\n %x\n %x", name, again, third)
		}
	})
}

// FuzzJobRequest: for any POST /v1/jobs body, decoding it as the daemon
// does and resolving its key returns without panicking, and a resolved
// key yields a job. The job itself is never run: this exercises the
// wire decoder and the resolver, not the simulators.
func FuzzJobRequest(f *testing.F) {
	for _, k := range []engine.Key{
		{Device: "cpu", Config: "BaseCMOS", Workload: "barnes", Seed: 1, Instr: 10_000},
		{Device: "gpu", Config: "AdvHet-2X", Workload: "URNG", Seed: 1},
		{Device: "cmp", Config: "HeteroCMP-nomig", Workload: "radix", Seed: 1, Instr: 10_000},
		{Device: "soc", Config: "c1t2g0", Workload: "fft", Seed: 1, Instr: 10_000},
		{Device: "traffic", Config: "c4t4g0+util", Workload: "diurnal", Seed: 1, Instr: 10_000},
		{Device: "trace", Config: "stats", Workload: "canneal", Seed: 1, Instr: 10_000, Variant: "core=2"},
		{Device: "cpu", Config: "BaseCMOS", Workload: "barnes", Seed: 1, Variant: "cores=1"},
	} {
		// Every seed but the one-core component variant is a stock key
		// a daemon resolves.
		if want := k.Variant != "cores=1"; Resolvable(k) != want {
			f.Fatalf("seed %s: Resolvable = %v, want %v", k, !want, want)
		}
		body, err := json.Marshal(JobRequest{Key: k, TraceID: "t1", SpanID: "s1"})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte(`{"key":{"Device":"trace","Config":"stats","Variant":"core=%d"}}`))
	f.Add([]byte(`{"key":null}`))
	f.Add([]byte(`[]`))

	f.Fuzz(func(t *testing.T, body []byte) {
		var req JobRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return
		}
		_ = req.Key.String()
		fn, ok := Resolve(req.Key, nil)
		if ok && fn == nil {
			t.Fatalf("Resolve(%s) reported ok with a nil job", req.Key)
		}
		if ok != Resolvable(req.Key) {
			t.Fatalf("Resolve and Resolvable disagree on %s", req.Key)
		}
	})
}
