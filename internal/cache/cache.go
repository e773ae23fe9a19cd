// Package cache implements the memory hierarchy of the simulated HetCore
// processor: set-associative write-back caches (IL1, DL1, L2 private per
// core; L3 shared), the AdvHet asymmetric DL1 (a CMOS "fast way" in front
// of TFET "slow ways", Section IV-C1), a directory-based MESI protocol over
// a ring interconnect (Table III: "Ring with MESI directory-based
// protocol"), and a fixed-latency DRAM.
//
// Caches are structural models: real tag arrays with LRU replacement, so
// hit rates emerge from the access stream rather than being assumed.
// Latencies are supplied by the enclosing Hierarchy configuration, because
// the same array serves CMOS and TFET variants at different round-trip
// times.
package cache

import "fmt"

// line is one cache line's tag state, 16 bytes: the tag arrays of the
// shared L3 are most of a run's memory.
//
// tag is the line address plus one for a valid line and 0 for an invalid
// one, so one compare with lineAddr+1 checks both valid and tag (New
// rejects 1-byte lines, whose line addresses span all of uint64). meta
// packs the LRU sequence number (the cache's access tick; higher = more
// recently used) above the dirty bit. Every access stamps at most one
// line with a fresh tick, so the valid lines of a set have distinct
// ticks and the least meta is the least recently used line.
type line struct {
	tag  uint64
	meta uint64
}

const (
	lineDirty = 1
	lruShift  = 1
)

func (l *line) valid() bool { return l.tag != 0 }
func (l *line) dirty() bool { return l.meta&lineDirty != 0 }

// Stats counts the activity of one cache array, consumed by the energy
// model.
type Stats struct {
	Reads       uint64 // read lookups
	Writes      uint64 // write lookups
	ReadMisses  uint64
	WriteMisses uint64
	Writebacks  uint64 // dirty evictions
	Invalidates uint64 // coherence invalidations received
}

// Accesses returns total lookups.
func (s Stats) Accesses() uint64 { return s.Reads + s.Writes }

// Misses returns total misses.
func (s Stats) Misses() uint64 { return s.ReadMisses + s.WriteMisses }

// HitRate returns the fraction of lookups that hit, or 1 if there were no
// lookups.
func (s Stats) HitRate() float64 {
	a := s.Accesses()
	if a == 0 {
		return 1
	}
	return 1 - float64(s.Misses())/float64(a)
}

// Cache is a set-associative, write-back, write-allocate cache with LRU
// replacement.
type Cache struct {
	name     string
	sets     int
	ways     int
	lineBits uint
	data     []line // sets*ways, way-major within set
	tick     uint64
	stats    Stats
}

// New builds a cache of the given total size in bytes, associativity and
// line size. Size must be a multiple of ways*lineSize, the set count a
// power of two and the line size a power of two of at least 2 bytes.
func New(name string, size, ways, lineSize int) (*Cache, error) {
	if size <= 0 || ways <= 0 || lineSize <= 0 {
		return nil, fmt.Errorf("cache %s: non-positive geometry (%d/%d/%d)", name, size, ways, lineSize)
	}
	if size%(ways*lineSize) != 0 {
		return nil, fmt.Errorf("cache %s: size %d not divisible by ways*line %d", name, size, ways*lineSize)
	}
	sets := size / (ways * lineSize)
	if sets&(sets-1) != 0 {
		return nil, fmt.Errorf("cache %s: set count %d not a power of two", name, sets)
	}
	if lineSize&(lineSize-1) != 0 {
		return nil, fmt.Errorf("cache %s: line size %d not a power of two", name, lineSize)
	}
	if lineSize < 2 {
		return nil, fmt.Errorf("cache %s: line size %d below 2 bytes", name, lineSize)
	}
	lb := uint(0)
	for 1<<lb < lineSize {
		lb++
	}
	return &Cache{
		name:     name,
		sets:     sets,
		ways:     ways,
		lineBits: lb,
		data:     make([]line, sets*ways),
	}, nil
}

// Name returns the cache's configured name.
func (c *Cache) Name() string { return c.name }

// Stats returns a copy of the activity counters.
func (c *Cache) Stats() Stats { return c.stats }

// validLines counts the lines currently holding data.
func (c *Cache) validLines() int {
	n := 0
	for i := range c.data {
		if c.data[i].valid() {
			n++
		}
	}
	return n
}

// Occupancy returns the fraction of lines currently valid, in [0, 1].
// It is a state observation, not a counter: no delta against a warmup
// snapshot is needed.
func (c *Cache) Occupancy() float64 {
	return float64(c.validLines()) / float64(len(c.data))
}

// lineAddr maps a byte address to its line-granular address.
func (c *Cache) lineAddr(addr uint64) uint64 { return addr >> c.lineBits }

func (c *Cache) setOf(la uint64) int { return int(la) & (c.sets - 1) }

// Result reports the outcome of a cache access.
type Result struct {
	Hit bool
	// Evicted reports that a valid line was displaced by the fill.
	Evicted bool
	// EvictedAddr is the byte address of the displaced line's first byte.
	EvictedAddr uint64
	// EvictedDirty reports that the displaced line needed writing back.
	EvictedDirty bool
}

// Access looks up addr, allocating on miss (write-allocate). A write hit
// or write fill marks the line dirty. The returned Result describes any
// eviction so the caller can propagate writebacks.
func (c *Cache) Access(addr uint64, isWrite bool) Result {
	tag := c.lineAddr(addr) + 1
	set := c.set(tag - 1)
	c.tick++
	dirty := uint64(0)
	if isWrite {
		c.stats.Writes++
		dirty = lineDirty
	} else {
		c.stats.Reads++
	}

	// One pass finds a hit or else the victim: the first invalid way,
	// else the LRU one. An invalid line's meta is 0 and a valid line's
	// at least 1<<lruShift, so the first way with the least meta is that
	// victim.
	vi, least := 0, ^uint64(0)
	for i := range set {
		l := &set[i]
		if l.tag == tag {
			l.meta = c.tick<<lruShift | l.meta&lineDirty | dirty
			return Result{Hit: true}
		}
		if l.meta < least {
			vi, least = i, l.meta
		}
	}
	if isWrite {
		c.stats.WriteMisses++
	} else {
		c.stats.ReadMisses++
	}
	v := &set[vi]
	res := Result{}
	if v.tag != 0 {
		res.Evicted = true
		res.EvictedAddr = (v.tag - 1) << c.lineBits
		res.EvictedDirty = v.dirty()
		if v.dirty() {
			c.stats.Writebacks++
		}
	}
	v.tag, v.meta = tag, c.tick<<lruShift|dirty
	return res
}

// set returns the ways of line address la's set.
func (c *Cache) set(la uint64) []line {
	base := c.setOf(la) * c.ways
	return c.data[base : base+c.ways : base+c.ways]
}

// find returns addr's line, or nil if it is not present.
func (c *Cache) find(addr uint64) *line {
	la := c.lineAddr(addr)
	set := c.set(la)
	for i := range set {
		if set[i].tag == la+1 {
			return &set[i]
		}
	}
	return nil
}

// Probe reports whether addr is present without touching LRU state or
// counters.
func (c *Cache) Probe(addr uint64) bool { return c.find(addr) != nil }

// Invalidate removes addr's line if present, returning whether it was
// present and whether it was dirty (the caller owns any writeback). It
// counts a received coherence invalidation when the line was present.
func (c *Cache) Invalidate(addr uint64) (present, dirty bool) {
	present, dirty = c.remove(addr)
	if present {
		c.stats.Invalidates++
	}
	return present, dirty
}

// remove drops addr's line if present without counting it: the
// asymmetric DL1 moves lines between its arrays with it.
func (c *Cache) remove(addr uint64) (present, dirty bool) {
	l := c.find(addr)
	if l == nil {
		return false, false
	}
	dirty = l.dirty()
	*l = line{}
	return true, dirty
}

// CleanLine clears the dirty bit of addr's line if present (used when an
// owner is downgraded to sharer after forwarding data).
func (c *Cache) CleanLine(addr uint64) {
	if l := c.find(addr); l != nil {
		l.meta &^= lineDirty
	}
}
