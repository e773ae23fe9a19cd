package cache

import (
	"testing"
	"testing/quick"
)

// MustNew is New for test geometries; it panics on error.
func MustNew(name string, size, ways, lineSize int) *Cache {
	c, err := New(name, size, ways, lineSize)
	if err != nil {
		panic(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	cases := []struct {
		size, ways, line int
		ok               bool
	}{
		{32 * 1024, 8, 64, true},
		{4 * 1024, 1, 64, true},
		{0, 8, 64, false},
		{32 * 1024, 0, 64, false},
		{32 * 1024, 8, 0, false},
		{33 * 1024, 8, 64, false}, // not divisible
		{24 * 1024, 8, 64, false}, // 48 sets, not power of two
		{32 * 1024, 8, 96, false}, // line not power of two
		{64, 1, 1, false},         // 1-byte lines: line address + 1 overflows
		{64, 1, 2, true},
	}
	for _, c := range cases {
		_, err := New("t", c.size, c.ways, c.line)
		if (err == nil) != c.ok {
			t.Errorf("New(%d,%d,%d) err=%v, want ok=%v", c.size, c.ways, c.line, err, c.ok)
		}
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew with bad geometry did not panic")
		}
	}()
	MustNew("t", 1, 3, 7)
}

func TestBasicHitMiss(t *testing.T) {
	c := MustNew("t", 1024, 2, 64) // 8 sets
	if r := c.Access(0x1000, false); r.Hit {
		t.Error("cold access hit")
	}
	if r := c.Access(0x1000, false); !r.Hit {
		t.Error("second access missed")
	}
	if r := c.Access(0x1020, false); !r.Hit {
		t.Error("same-line access missed")
	}
	s := c.Stats()
	if s.Reads != 3 || s.ReadMisses != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestLRUReplacement(t *testing.T) {
	c := MustNew("t", 2*64, 2, 64) // 1 set, 2 ways
	c.Access(0x0000, false)
	c.Access(0x1000, false)
	c.Access(0x0000, false) // touch A so B is LRU
	r := c.Access(0x2000, false)
	if !r.Evicted || r.EvictedAddr != 0x1000 {
		t.Errorf("expected eviction of 0x1000, got %+v", r)
	}
	if !c.Probe(0x0000) || c.Probe(0x1000) || !c.Probe(0x2000) {
		t.Error("LRU victim selection wrong")
	}
}

func TestWritebackOnDirtyEviction(t *testing.T) {
	c := MustNew("t", 2*64, 2, 64)
	c.Access(0x0000, true) // dirty
	c.Access(0x1000, false)
	r := c.Access(0x2000, false) // evicts dirty 0x0000
	if !r.Evicted || !r.EvictedDirty || r.EvictedAddr != 0x0000 {
		t.Errorf("expected dirty eviction of 0, got %+v", r)
	}
	if c.Stats().Writebacks != 1 {
		t.Errorf("writebacks = %d", c.Stats().Writebacks)
	}
}

func TestInvalidate(t *testing.T) {
	c := MustNew("t", 1024, 2, 64)
	c.Access(0x40, true)
	p, d := c.Invalidate(0x40)
	if !p || !d {
		t.Errorf("Invalidate = (%v,%v), want (true,true)", p, d)
	}
	if c.Probe(0x40) {
		t.Error("line still present after invalidate")
	}
	p, _ = c.Invalidate(0x40)
	if p {
		t.Error("second invalidate reported present")
	}
	if c.Stats().Invalidates != 1 {
		t.Errorf("invalidate count = %d", c.Stats().Invalidates)
	}
}

func TestCleanLine(t *testing.T) {
	c := MustNew("t", 1024, 2, 64)
	c.Access(0x40, true)
	c.CleanLine(0x40)
	_, d := c.Invalidate(0x40)
	if d {
		t.Error("line still dirty after CleanLine")
	}
}

func TestHitRateWorkingSet(t *testing.T) {
	c := MustNew("t", 32*1024, 8, 64)
	// A working set that fits: near-perfect hit rate after warmup.
	for pass := 0; pass < 10; pass++ {
		for a := uint64(0); a < 16*1024; a += 64 {
			c.Access(a, false)
		}
	}
	if hr := c.Stats().HitRate(); hr < 0.89 {
		t.Errorf("fitting working set hit rate %.3f, want >= 0.89", hr)
	}
	// A working set 8x the cache: mostly misses.
	c2 := MustNew("t2", 32*1024, 8, 64)
	for pass := 0; pass < 4; pass++ {
		for a := uint64(0); a < 256*1024; a += 64 {
			c2.Access(a, false)
		}
	}
	if hr := c2.Stats().HitRate(); hr > 0.1 {
		t.Errorf("thrashing working set hit rate %.3f, want <= 0.1", hr)
	}
}

func TestStatsHelpers(t *testing.T) {
	s := Stats{Reads: 8, Writes: 2, ReadMisses: 1, WriteMisses: 1}
	if s.Accesses() != 10 || s.Misses() != 2 {
		t.Errorf("accesses/misses = %d/%d", s.Accesses(), s.Misses())
	}
	if s.HitRate() != 0.8 {
		t.Errorf("hit rate = %v", s.HitRate())
	}
	if (Stats{}).HitRate() != 1 {
		t.Error("empty stats hit rate should be 1")
	}
}

// Property: immediately after any access, the line is present; invariants
// on counters hold under random access streams.
func TestCacheInvariantsProperty(t *testing.T) {
	f := func(seed uint64, writes uint16) bool {
		c := MustNew("p", 4*1024, 4, 64)
		x := seed
		for i := 0; i < 500; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			addr := (x >> 16) % (64 * 1024)
			isW := x&1 == 0
			c.Access(addr, isW)
			if !c.Probe(addr) {
				return false
			}
		}
		s := c.Stats()
		return s.Misses() <= s.Accesses() && s.Accesses() == 500
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestAsymmetricBasics(t *testing.T) {
	a, err := NewAsymmetricDL1(4*1024, 28*1024, 7, 64)
	if err != nil {
		t.Fatal(err)
	}
	// Cold miss.
	r := a.Access(0x100, false)
	if r.AnyHit() {
		t.Error("cold access hit")
	}
	// Now in fast (MRU fill): immediate re-access is a fast hit.
	r = a.Access(0x100, false)
	if !r.FastHit {
		t.Errorf("expected fast hit, got %+v", r)
	}
}

func TestAsymmetricPromotion(t *testing.T) {
	a, _ := NewAsymmetricDL1(4*1024, 28*1024, 7, 64)
	// Fill line A, then displace it from fast with a conflicting line B
	// (fast is 1-way, 64 sets: same set index = same (addr/64)%64).
	a.Access(0x0000, false)      // A -> fast
	a.Access(0x0000+4096, false) // B conflicts in fast; A demotes to slow
	r := a.Access(0x0000, false) // A should be a slow hit, then promote
	if !r.SlowHit {
		t.Fatalf("expected slow hit for demoted line, got %+v", r)
	}
	r = a.Access(0x0000, false) // now promoted: fast hit
	if !r.FastHit {
		t.Errorf("expected fast hit after promotion, got %+v", r)
	}
	if a.Swaps == 0 {
		t.Error("promotion did not count a swap")
	}
}

func TestAsymmetricDirtyPreservedAcrossDemotion(t *testing.T) {
	a, _ := NewAsymmetricDL1(4*1024, 28*1024, 7, 64)
	a.Access(0x0000, true)       // dirty in fast
	a.Access(0x1000, false)      // demote dirty A to slow
	p, d := a.Invalidate(0x0000) // should still be dirty in slow
	if !p || !d {
		t.Errorf("demoted dirty line lost: present=%v dirty=%v", p, d)
	}
}

func TestAsymmetricDirtyPreservedAcrossPromotion(t *testing.T) {
	a, _ := NewAsymmetricDL1(4*1024, 28*1024, 7, 64)
	a.Access(0x0000, true)  // dirty in fast
	a.Access(0x1000, false) // demote dirty A to slow
	a.Access(0x0000, false) // promote A back to fast via read
	p, d := a.Invalidate(0x0000)
	if !p || !d {
		t.Errorf("promoted dirty line lost dirtiness: present=%v dirty=%v", p, d)
	}
}

func TestAsymmetricCapacityBehaves(t *testing.T) {
	// Working set fitting in 32 KB total should mostly hit even though
	// fast is only 4 KB.
	a, _ := NewAsymmetricDL1(4*1024, 28*1024, 7, 64)
	misses := 0
	const passes = 12
	for pass := 0; pass < passes; pass++ {
		for addr := uint64(0); addr < 24*1024; addr += 64 {
			if r := a.Access(addr, false); !r.AnyHit() {
				misses++
			}
		}
	}
	total := passes * 24 * 1024 / 64
	hitRate := 1 - float64(misses)/float64(total)
	if hitRate < 0.85 {
		t.Errorf("asymmetric hit rate %.3f for fitting working set, want >= 0.85", hitRate)
	}
}

// The fast-way hit rate should be high for MRU-friendly streams — the
// property that makes the asymmetric cache pay off in AdvHet.
func TestAsymmetricFastHitRateOnReuse(t *testing.T) {
	a, _ := NewAsymmetricDL1(4*1024, 28*1024, 7, 64)
	// Tight reuse over 2 KB: everything fits in fast.
	for pass := 0; pass < 20; pass++ {
		for addr := uint64(0); addr < 2*1024; addr += 64 {
			a.Access(addr, false)
		}
	}
	if fr := a.FastStats().HitRate(); fr < 0.9 {
		t.Errorf("fast hit rate %.3f on tight reuse, want >= 0.9", fr)
	}
}

func TestAsymmetricRejectsBadGeometry(t *testing.T) {
	if _, err := NewAsymmetricDL1(0, 28*1024, 7, 64); err == nil {
		t.Error("zero fast size accepted")
	}
	if _, err := NewAsymmetricDL1(4*1024, 28*1024, 0, 64); err == nil {
		t.Error("zero slow ways accepted")
	}
}
