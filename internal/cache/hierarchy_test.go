package cache

import "testing"

// testConfig mirrors Table III's BaseCMOS hierarchy (DRAM: 50 ns at
// 2 GHz).
func testConfig(cores int) Config {
	return Config{
		Cores: cores, LineSize: 64,
		IL1Size: 32 * 1024, IL1Ways: 2, IL1RT: 2,
		DL1Size: 32 * 1024, DL1Ways: 8, DL1RT: 2,
		L2Size: 256 * 1024, L2Ways: 8, L2RT: 8,
		L3SizePerCore: 2 * 1024 * 1024, L3Ways: 16, L3RT: 32,
		DRAMCycles: 100, RingHopLat: 2,
	}
}

// asymTestConfig is testConfig with AdvHet's asymmetric DL1: a 4 KB
// 1-way fast array in front of 28 KB of 7-way slow array.
func asymTestConfig(cores int) Config {
	cfg := testConfig(cores)
	cfg.AsymDL1 = true
	cfg.FastSize, cfg.FastRT, cfg.SlowRT = 4*1024, 1, 5
	return cfg
}

func TestHierarchyValidation(t *testing.T) {
	bad := testConfig(0)
	if _, err := NewHierarchy(bad); err == nil {
		t.Error("zero cores accepted")
	}
	for _, c := range []int{0, -100} {
		bad = testConfig(1)
		bad.DRAMCycles = c
		if _, err := NewHierarchy(bad); err == nil {
			t.Errorf("DRAM round trip of %d cycles accepted", c)
		}
	}
	bad = testConfig(1)
	bad.AsymDL1 = true // missing fast geometry
	if _, err := NewHierarchy(bad); err == nil {
		t.Error("asym without fast size accepted")
	}
}

func TestLatencyLadder(t *testing.T) {
	h, err := NewHierarchy(testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	addr := uint64(0x1234540)
	// Cold: L3 miss -> DRAM. 50ns at 2GHz = 100 cycles + L3 + ring.
	l := h.Read(0, addr)
	if l < 100+32 {
		t.Errorf("cold read latency %d, want >= 132", l)
	}
	// Warm: DL1 hit.
	if l = h.Read(0, addr); l != 2 {
		t.Errorf("DL1 hit latency %d, want 2", l)
	}

	// Evict from DL1 only (conflict set) to force an L2 hit.
	// 32KB/8way/64B = 64 sets -> same set every 4096 bytes.
	for i := 1; i <= 8; i++ {
		h.Read(0, addr+uint64(i)*4096)
	}
	if l = h.Read(0, addr); l != 8 {
		t.Errorf("L2 hit latency %d, want 8", l)
	}
}

func TestTFETLatencies(t *testing.T) {
	cfg := testConfig(1)
	cfg.DL1RT, cfg.L2RT, cfg.L3RT = 4, 12, 40 // BaseHet TFET caches
	h, _ := NewHierarchy(cfg)
	addr := uint64(0x40)
	h.Read(0, addr)
	if l := h.Read(0, addr); l != 4 {
		t.Errorf("TFET DL1 hit latency %d, want 4", l)
	}
}

func TestAsymmetricHierarchyLatencies(t *testing.T) {
	h, err := NewHierarchy(asymTestConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	addr := uint64(0x40)
	h.Read(0, addr) // cold
	if l := h.Read(0, addr); l != 1 {
		t.Errorf("fast hit latency %d, want 1", l)
	}
	// Conflict the fast way (1-way, 64 sets => stride 4096).
	h.Read(0, addr+4096)
	if l := h.Read(0, addr); l != 5 {
		t.Errorf("slow hit latency %d, want 5", l)
	}
	if hr := h.Counts().DL1Fast.HitRate(); hr <= 0 {
		t.Errorf("fast hit rate %v, want > 0", hr)
	}
}

func TestInstFetch(t *testing.T) {
	h, _ := NewHierarchy(testConfig(1))
	pc := uint64(0x1000)
	if l := h.InstFetch(0, pc); l < 32 {
		t.Errorf("cold fetch latency %d, want deep-hierarchy latency", l)
	}
	if l := h.InstFetch(0, pc); l != 2 {
		t.Errorf("warm fetch latency %d, want 2", l)
	}
	if h.Counts().IL1.Reads != 2 {
		t.Errorf("IL1 reads = %d", h.Counts().IL1.Reads)
	}
}

func TestCoherenceInvalidation(t *testing.T) {
	h, _ := NewHierarchy(testConfig(4))
	addr := uint64(0x7000)
	// Core 0 and 1 read the line (shared).
	h.Read(0, addr)
	h.Read(1, addr)
	if s := h.dir.Sharers(h.lineAddr(addr)); s != 2 {
		t.Fatalf("sharers = %d, want 2", s)
	}
	// Core 2 writes: both sharers must be invalidated.
	h.Write(2, addr)
	if s := h.dir.Sharers(h.lineAddr(addr)); s != 1 {
		t.Errorf("sharers after write = %d, want 1", s)
	}
	// Core 0's next read misses its DL1 (invalidated) and sees an owner
	// forward from core 2.
	before := h.Counts().Directory.OwnerForwards
	lat := h.Read(0, addr)
	after := h.Counts().Directory.OwnerForwards
	if after != before+1 {
		t.Errorf("owner forwards %d -> %d, want +1", before, after)
	}
	if lat <= 8 {
		t.Errorf("coherence read latency %d suspiciously low", lat)
	}
	if h.Counts().Directory.Invalidations < 2 {
		t.Errorf("invalidations = %d, want >= 2", h.Counts().Directory.Invalidations)
	}
}

func TestWriteUpgradeOnSharedLine(t *testing.T) {
	h, _ := NewHierarchy(testConfig(2))
	addr := uint64(0x9000)
	h.Read(0, addr)
	h.Read(1, addr)
	// Core 0 writes a line it holds but shares: upgrade required, core
	// 1's copy dies.
	h.Write(0, addr)
	if p := h.dl1[1].Probe(addr); p {
		t.Error("core 1 still holds the line after upgrade")
	}
}

func TestDirectoryDropOnL3Eviction(t *testing.T) {
	// Tiny L3 to force evictions quickly.
	cfg := testConfig(1)
	cfg.L3SizePerCore = 16 * 64 * 16 // 16 sets * 16 ways * 64B
	h, _ := NewHierarchy(cfg)
	// Touch far more lines than L3 holds.
	for a := uint64(0); a < 4*1024*1024; a += 64 {
		h.Read(0, a)
	}
	// Early lines must be gone from DL1 too (inclusion).
	if h.dl1[0].Probe(0) {
		t.Error("L3-evicted line still in DL1 (inclusion violated)")
	}
}

func TestRing(t *testing.T) {
	r, err := NewRing(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if h := r.Hops(0, 4); h != 4 {
		t.Errorf("Hops(0,4) = %d, want 4", h)
	}
	if h := r.Hops(0, 7); h != 1 {
		t.Errorf("Hops(0,7) = %d (wraparound), want 1", h)
	}
	if l := r.Traverse(1, 3); l != 4 {
		t.Errorf("Traverse latency %d, want 4", l)
	}
	if r.Messages != 1 || r.HopsTotal != 2 {
		t.Errorf("counters = %d msgs %d hops", r.Messages, r.HopsTotal)
	}
	if _, err := NewRing(0, 1); err == nil {
		t.Error("zero-node ring accepted")
	}
}

func TestRingHopsPanics(t *testing.T) {
	r, _ := NewRing(4, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range node did not panic")
		}
	}()
	r.Hops(0, 9)
}

func TestDirectoryBasics(t *testing.T) {
	d, err := NewDirectory(4)
	if err != nil {
		t.Fatal(err)
	}
	iv := d.Read(0, 10)
	if iv.OwnerForward || len(iv.InvalidatedCores) != 0 {
		t.Errorf("first read intervention: %+v", iv)
	}
	d.Read(1, 10)
	iv = d.Write(2, 10)
	if len(iv.InvalidatedCores) != 2 {
		t.Errorf("write should invalidate 2 sharers, got %v", iv.InvalidatedCores)
	}
	iv = d.Read(3, 10)
	if !iv.OwnerForward || iv.OwnerCore != 2 {
		t.Errorf("read after write should forward from 2: %+v", iv)
	}
	d.Evict(3, 10)
	if d.Sharers(10) != 1 {
		t.Errorf("sharers after evict = %d", d.Sharers(10))
	}
	held := d.Drop(10)
	if len(held) != 1 || held[0] != 2 {
		t.Errorf("drop returned %v", held)
	}
	if d.Sharers(10) != 0 {
		t.Error("line survived drop")
	}
	if _, err := NewDirectory(65); err == nil {
		t.Error("65-core directory accepted")
	}
}

func TestCountsAggregate(t *testing.T) {
	h, _ := NewHierarchy(testConfig(2))
	h.Read(0, 0x40)
	h.Read(1, 0x80)
	h.Write(0, 0x40)
	c := h.Counts()
	if c.DL1.Accesses() != 3 {
		t.Errorf("DL1 accesses = %d, want 3", c.DL1.Accesses())
	}
	if c.DRAMAccesses != 2 {
		t.Errorf("DRAM accesses = %d, want 2", c.DRAMAccesses)
	}
	if c.RingMessages == 0 {
		t.Error("no ring messages recorded")
	}
}
