package cache

import (
	"math/rand"
	"testing"
)

func TestAccessors(t *testing.T) {
	c := MustNew("demo", 32*1024, 8, 64)
	if c.Name() != "demo" {
		t.Errorf("Name = %q", c.Name())
	}
}

func TestAsymProbeAndStats(t *testing.T) {
	a, _ := NewAsymmetricDL1(4*1024, 28*1024, 7, 64)
	present := func(addr uint64) bool { return a.fast.Probe(addr) || a.slow.Probe(addr) }
	if present(0x40) {
		t.Error("cold probe hit")
	}
	a.Access(0x40, false)
	if !present(0x40) {
		t.Error("probe missed resident line")
	}
	if a.FastStats().Accesses() == 0 {
		t.Error("no fast accesses recorded")
	}
	// Demote then probe: the line lives in slow but is still resident.
	a.Access(0x40+4096, false)
	if !a.slow.Probe(0x40) {
		t.Error("probe missed demoted line")
	}
	if a.SlowStats().Accesses() == 0 {
		t.Error("no slow accesses recorded")
	}
	// Two cold misses: the DL1 counts each once, the slow array three
	// times (a probe for each, and the demotion).
	if s := a.Stats(); s.Reads != 2 || s.ReadMisses != 2 {
		t.Errorf("DL1 stats = %+v, want 2 reads, 2 misses", s)
	}
}

func TestHierarchyDL1HitRateHelpers(t *testing.T) {
	h, _ := NewHierarchy(testConfig(1))
	h.Read(0, 0x40)
	h.Read(0, 0x40)
	if hr := h.Counts().DL1.HitRate(); hr != 0.5 {
		t.Errorf("DL1 hit rate = %v, want 0.5", hr)
	}

	ha, _ := NewHierarchy(asymTestConfig(1))
	ha.Read(0, 0x40)
	ha.Read(0, 0x40)
	if hr := ha.Counts().DL1.HitRate(); hr != 0.5 {
		t.Errorf("asym DL1 hit rate = %v, want 0.5", hr)
	}
	if fr := ha.Counts().DL1Fast.HitRate(); fr != 0.5 {
		t.Errorf("asym fast hit rate = %v, want 0.5", fr)
	}
}

// The asymmetric DL1 swaps lines between its arrays so that, as one
// cache, it holds what a plain DL1 of the same size and associativity
// holds. Fed the same stream, both count the same DL1 misses and
// writebacks, and the levels below see the same traffic.
func TestAsymmetricDL1MissesMatchPlainDL1(t *testing.T) {
	plain, _ := NewHierarchy(testConfig(1))
	asym, _ := NewHierarchy(asymTestConfig(1))
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200_000; i++ {
		// A 16 KB hot region and a 256 KB cold one: the DL1 both hits
		// and misses in the slow ways.
		addr := uint64(rng.Intn(16 * 1024))
		if rng.Intn(10) < 3 {
			addr = 1<<20 + uint64(rng.Intn(256*1024))
		}
		if rng.Intn(10) < 3 {
			plain.Write(0, addr)
			asym.Write(0, addr)
		} else {
			plain.Read(0, addr)
			asym.Read(0, addr)
		}
	}
	p, a := plain.Counts(), asym.Counts()
	if a.DL1 != p.DL1 {
		t.Errorf("asymmetric DL1 counts %+v, plain DL1 %+v", a.DL1, p.DL1)
	}
	if a.L2 != p.L2 {
		t.Errorf("asymmetric L2 counts %+v, plain L2 %+v", a.L2, p.L2)
	}
	if a.DL1.Misses() == 0 || a.DL1Slow.Reads == a.DL1Slow.ReadMisses {
		t.Errorf("stream exercised neither DL1 misses nor slow hits: %+v", a)
	}
}

// Promotions and the undo of the slow array's probe fill move lines
// inside the DL1; only a coherence invalidation counts as one.
func TestAsymmetricInternalMovesAreNotInvalidations(t *testing.T) {
	a, _ := NewAsymmetricDL1(4*1024, 28*1024, 7, 64)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50_000; i++ {
		addr := uint64(rng.Intn(64 * 1024))
		a.Access(addr, rng.Intn(10) < 3)
	}
	if a.Swaps == 0 || a.Stats().Misses() == 0 {
		t.Fatalf("stream exercised no promotion or no miss: swaps %d, %+v", a.Swaps, a.Stats())
	}
	if n := a.FastStats().Invalidates + a.SlowStats().Invalidates + a.Stats().Invalidates; n != 0 {
		t.Errorf("%d invalidations counted with no coherence traffic", n)
	}
	a.Access(0x40, false)
	if present, _ := a.Invalidate(0x40); !present {
		t.Fatal("resident line not found by a coherence invalidation")
	}
	if got := a.Stats().Invalidates; got != 1 {
		t.Errorf("DL1 invalidates = %d, want 1", got)
	}
	if got := a.FastStats().Invalidates + a.SlowStats().Invalidates; got != 1 {
		t.Errorf("array invalidates = %d, want 1", got)
	}
}

func TestCountsDelta(t *testing.T) {
	h, _ := NewHierarchy(testConfig(2))
	h.Read(0, 0x40)
	snap := h.Counts()
	h.Read(1, 0x80)
	h.Write(0, 0x40)
	d := h.Counts().Delta(snap)
	if d.DL1.Accesses() != 2 {
		t.Errorf("delta DL1 accesses = %d, want 2", d.DL1.Accesses())
	}
	if d.DRAMAccesses != 1 {
		t.Errorf("delta DRAM = %d, want 1", d.DRAMAccesses)
	}
	// Self-delta is zero.
	z := h.Counts().Delta(h.Counts())
	if z.DL1.Accesses() != 0 || z.RingMessages != 0 || z.Directory.ReadMisses != 0 {
		t.Errorf("self delta not zero: %+v", z)
	}
}

func TestPrefetcherFillsL2(t *testing.T) {
	cfg := testConfig(1)
	cfg.NextLinePrefetch = true
	h, _ := NewHierarchy(cfg)
	h.Read(0, 0x10000) // misses; prefetches 0x10040 into L2
	if h.Counts().Prefetches == 0 {
		t.Fatal("no prefetch issued")
	}
	// The next line should now be an L2 hit: much cheaper than DRAM.
	lat := h.Read(0, 0x10040)
	if lat > cfg.L2RT {
		t.Errorf("prefetched line cost %d cycles, want <= L2 RT %d", lat, cfg.L2RT)
	}

	// With the prefetcher off, the same pattern pays full latency.
	cfg.NextLinePrefetch = false
	h2, _ := NewHierarchy(cfg)
	h2.Read(0, 0x10000)
	if lat := h2.Read(0, 0x10040); lat <= cfg.L2RT {
		t.Errorf("without prefetch the next line cost only %d cycles", lat)
	}
}

func TestDRAMFixedCycles(t *testing.T) {
	cfg := testConfig(1)
	cfg.DRAMFixedCycles = 100
	cfg.FreqGHz = 1.0 // would be 50 cycles in the ns model
	h, _ := NewHierarchy(cfg)
	lat := h.Read(0, 0x40)
	if lat < 100 {
		t.Errorf("cold read %d cycles; fixed-cycle DRAM should charge 100+", lat)
	}
	if h.Counts().DRAMAccesses == 0 {
		t.Error("fixed-cycle path did not count the DRAM access")
	}
}

func TestDirectoryEvictUnknownLine(t *testing.T) {
	d, _ := NewDirectory(2)
	d.Evict(0, 999) // must not panic or create state
	if d.Sharers(999) != 0 {
		t.Error("evict of unknown line created state")
	}
	if d.Drop(999) != nil {
		t.Error("drop of unknown line returned holders")
	}
}

func TestDirectoryCheckCorePanics(t *testing.T) {
	d, _ := NewDirectory(2)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range core did not panic")
		}
	}()
	d.Read(5, 1)
}

func TestCoherenceWriteAfterOwnerEvict(t *testing.T) {
	h, _ := NewHierarchy(testConfig(2))
	addr := uint64(0xa000)
	h.Write(0, addr) // core 0 owns
	h.Read(1, addr)  // owner forward, both share
	h.Write(1, addr) // core 1 upgrades; core 0 invalidated
	if h.dl1[0].Probe(addr) {
		t.Error("core 0 kept its copy after remote upgrade")
	}
	// Core 1 now owns; its subsequent write is a cheap hit.
	if lat := h.Write(1, addr); lat > testConfig(2).DL1RT {
		t.Errorf("owned write cost %d cycles", lat)
	}
}
