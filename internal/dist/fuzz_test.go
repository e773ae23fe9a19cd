package dist

import (
	"os"
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
	f.Add(valid)
	f.Add(valid[:len(valid)/2]) // torn write
	f.Add([]byte{})
	f.Add([]byte("null"))
	f.Add([]byte(`{"stamp":"` + Stamp() + `","key":"` + key.String() + `","type":"hetsim.CPUResult","result":[1]}`))
	f.Add([]byte(`{"stamp":"` + Stamp() + `","key":"` + key.String() + `","type":"nope","result":{}}`))
	f.Add([]byte(`{"stamp":"hetcore.dist/v1+0","key":"` + key.String() + `","type":"hetsim.CPUResult","result":{}}`))

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
