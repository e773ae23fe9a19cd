package cache

import "fmt"

// Config describes one processor's memory hierarchy (Table III), with
// round-trip latencies already resolved for the CMOS/TFET choice of each
// level (the hetsim package selects 2 vs 4 cycles for DL1, 8 vs 12 for L2,
// 32 vs 40 for L3, and so on).
type Config struct {
	Cores    int
	LineSize int

	IL1Size, IL1Ways, IL1RT int

	// Plain DL1 (BaseCMOS, BaseHet, ...).
	DL1Size, DL1Ways, DL1RT int
	// Asymmetric DL1 (AdvHet and BaseCMOS-Enh): when AsymDL1 is set, the
	// DL1 is FastSize bytes of 1-way CMOS in front of
	// (DL1Size-FastSize) bytes of (DL1Ways-1)-way slow cache.
	AsymDL1        bool
	FastSize       int
	FastRT, SlowRT int
	// AsymReplayPenalty models the scheduler replay cost of a variable-
	// latency DL1: consumers speculatively woken for a FastCache hit
	// must replay when the access actually goes to the SlowCache. This
	// is why the asymmetric cache does not help an already-balanced
	// CMOS design (BaseCMOS-Enh) while being a large win when the
	// alternative is a uniformly slow TFET DL1 (AdvHet).
	AsymReplayPenalty int

	L2Size, L2Ways, L2RT int

	// L3 is shared; L3SizePerCore scales with the core count.
	L3SizePerCore, L3Ways, L3RT int

	DRAMRoundTripNS float64
	// DRAMFixedCycles, when positive, overrides the nanosecond-based
	// DRAM latency with a fixed cycle count regardless of clock. The
	// paper's simulator configures memory latency in cycles, so its
	// half-frequency BaseTFET still pays the same cycle count; set this
	// to reproduce that behaviour (100 cycles = 50 ns at the 2 GHz
	// reference clock).
	DRAMFixedCycles int
	RingHopLat      int
	FreqGHz         float64

	// NextLinePrefetch enables a simple next-line prefetcher: a demand
	// miss in the L2 also pulls the following line into the L2 in the
	// background. This is the stride-prefetch behaviour every modern
	// baseline has; without it, streaming workloads expose every
	// compulsory miss.
	NextLinePrefetch bool
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Cores <= 0 {
		return fmt.Errorf("cache: config needs >=1 core, got %d", c.Cores)
	}
	if c.LineSize <= 0 {
		return fmt.Errorf("cache: bad line size %d", c.LineSize)
	}
	if c.FreqGHz <= 0 {
		return fmt.Errorf("cache: bad frequency %v", c.FreqGHz)
	}
	if c.AsymDL1 && (c.FastSize <= 0 || c.FastSize >= c.DL1Size || c.DL1Ways < 2) {
		return fmt.Errorf("cache: bad asymmetric DL1 geometry (fast %d of %d, %d ways)",
			c.FastSize, c.DL1Size, c.DL1Ways)
	}
	return nil
}

// Hierarchy is the full memory system of one simulated processor: private
// IL1/DL1/L2 per core, one shared L3 with a MESI directory, a ring, and
// DRAM. All methods return latency in core cycles and update the activity
// counters the energy model reads.
type Hierarchy struct {
	cfg  Config
	il1  []*Cache
	dl1  []*Cache         // plain DL1s (nil entries when asymmetric)
	adl1 []*AsymmetricDL1 // asymmetric DL1s (nil entries when plain)
	l2   []*Cache
	l3   *Cache
	dir  *Directory
	ring *Ring
	dram *DRAM

	prefetches uint64
}

// NewHierarchy builds the hierarchy for the configuration.
func NewHierarchy(cfg Config) (*Hierarchy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	h := &Hierarchy{cfg: cfg}
	h.il1 = make([]*Cache, cfg.Cores)
	h.dl1 = make([]*Cache, cfg.Cores)
	h.adl1 = make([]*AsymmetricDL1, cfg.Cores)
	h.l2 = make([]*Cache, cfg.Cores)
	for c := 0; c < cfg.Cores; c++ {
		var err error
		if h.il1[c], err = New(fmt.Sprintf("il1.%d", c), cfg.IL1Size, cfg.IL1Ways, cfg.LineSize); err != nil {
			return nil, err
		}
		if cfg.AsymDL1 {
			slowSize := cfg.DL1Size - cfg.FastSize
			if h.adl1[c], err = NewAsymmetricDL1(cfg.FastSize, slowSize, cfg.DL1Ways-1, cfg.LineSize); err != nil {
				return nil, err
			}
		} else {
			if h.dl1[c], err = New(fmt.Sprintf("dl1.%d", c), cfg.DL1Size, cfg.DL1Ways, cfg.LineSize); err != nil {
				return nil, err
			}
		}
		if h.l2[c], err = New(fmt.Sprintf("l2.%d", c), cfg.L2Size, cfg.L2Ways, cfg.LineSize); err != nil {
			return nil, err
		}
	}
	var err error
	if h.l3, err = New("l3", cfg.L3SizePerCore*cfg.Cores, cfg.L3Ways, cfg.LineSize); err != nil {
		return nil, err
	}
	if h.dir, err = NewDirectory(cfg.Cores); err != nil {
		return nil, err
	}
	if h.ring, err = NewRing(cfg.Cores, cfg.RingHopLat); err != nil {
		return nil, err
	}
	if h.dram, err = NewDRAM(cfg.DRAMRoundTripNS); err != nil {
		return nil, err
	}
	return h, nil
}

func (h *Hierarchy) lineAddr(addr uint64) uint64 {
	return addr / uint64(h.cfg.LineSize)
}

// InstFetch looks up pc in core's IL1 and returns the fetch latency.
func (h *Hierarchy) InstFetch(core int, pc uint64) int {
	res := h.il1[core].Access(pc, false)
	if res.Hit {
		return h.cfg.IL1RT
	}
	// Instruction miss: unified L2 and below.
	return h.beyondL1(core, pc, false)
}

// Read performs a load and returns its latency in cycles.
func (h *Hierarchy) Read(core int, addr uint64) int {
	return h.dataAccess(core, addr, false)
}

// Write performs a store and returns its latency in cycles.
func (h *Hierarchy) Write(core int, addr uint64) int {
	return h.dataAccess(core, addr, true)
}

func (h *Hierarchy) dataAccess(core int, addr uint64, isWrite bool) int {
	la := h.lineAddr(addr)
	var hit bool
	var lat int
	var evicted bool
	var evictedAddr uint64
	var evictedDirty bool

	if h.cfg.AsymDL1 {
		res := h.adl1[core].Access(addr, isWrite)
		hit = res.AnyHit()
		switch {
		case res.FastHit:
			lat = h.cfg.FastRT
		case res.SlowHit:
			lat = h.cfg.SlowRT + h.cfg.AsymReplayPenalty
		default:
			// Full DL1 miss discovered after both probes.
			lat = h.cfg.SlowRT + h.cfg.AsymReplayPenalty
		}
		evicted, evictedAddr, evictedDirty = res.Evicted, res.EvictedAddr, res.EvictedDirty
	} else {
		res := h.dl1[core].Access(addr, isWrite)
		hit = res.Hit
		lat = h.cfg.DL1RT
		evicted, evictedAddr, evictedDirty = res.Evicted, res.EvictedAddr, res.EvictedDirty
	}

	// DL1 writebacks drain into L2 off the critical path.
	if evicted && evictedDirty {
		h.l2[core].Access(evictedAddr, true)
	}

	if hit {
		// Write hits to lines shared by other cores still need an
		// ownership upgrade through the directory.
		if isWrite && h.dir.Sharers(la) > 1 {
			lat += h.upgrade(core, la)
		}
		return lat
	}
	return h.beyondL1(core, addr, isWrite)
}

// upgrade obtains write ownership for a line that hits locally but is
// shared remotely: an invalidation round trip to the directory.
func (h *Hierarchy) upgrade(core int, la uint64) int {
	iv := h.dir.Write(core, la)
	slice := h.ring.SliceFor(la)
	lat := h.ring.Traverse(core, slice) + h.ring.Traverse(slice, core)
	byteAddr := la * uint64(h.cfg.LineSize)
	for _, c := range iv.InvalidatedCores {
		h.invalidatePrivate(c, byteAddr)
	}
	if iv.OwnerForward {
		lat += h.cfg.L2RT / 2 // remote probe
	}
	return lat
}

// beyondL1 services an L1 miss: L2, then shared L3 + directory, then DRAM.
// Returns the total round-trip latency for the request.
func (h *Hierarchy) beyondL1(core int, addr uint64, isWrite bool) int {
	lat := h.beyondL1Inner(core, addr, isWrite, true)
	return lat
}

func (h *Hierarchy) beyondL1Inner(core int, addr uint64, isWrite, allowPrefetch bool) int {
	la := h.lineAddr(addr)
	byteAddr := la * uint64(h.cfg.LineSize)

	res := h.l2[core].Access(addr, isWrite)
	if res.Evicted {
		// Private L2 eviction: tell the directory, keep L1s included.
		evLA := h.lineAddr(res.EvictedAddr)
		h.dir.Evict(core, evLA)
		h.invalidateL1s(core, res.EvictedAddr)
		if res.EvictedDirty {
			h.l3.Access(res.EvictedAddr, true) // writeback to L3
		}
	}
	if res.Hit {
		if isWrite && h.dir.Sharers(la) > 1 {
			return h.cfg.L2RT + h.upgrade(core, la)
		}
		return h.cfg.L2RT
	}

	// Shared L3: ring to the home slice, directory action, array access.
	slice := h.ring.SliceFor(la)
	lat := h.cfg.L3RT + h.ring.Traverse(core, slice) + h.ring.Traverse(slice, core)

	var iv Intervention
	if isWrite {
		iv = h.dir.Write(core, la)
	} else {
		iv = h.dir.Read(core, la)
	}
	for _, c := range iv.InvalidatedCores {
		h.invalidatePrivate(c, byteAddr)
	}
	if iv.OwnerForward {
		// Remote owner probe: directory -> owner -> requester.
		lat += h.cfg.L2RT/2 + h.ring.Traverse(slice, iv.OwnerCore) + h.ring.Traverse(iv.OwnerCore, core)
		h.cleanRemote(iv.OwnerCore, byteAddr)
	}

	l3res := h.l3.Access(addr, isWrite)
	if l3res.Evicted {
		// Inclusive L3: back-invalidate every private copy.
		for _, c := range h.dir.Drop(h.lineAddr(l3res.EvictedAddr)) {
			h.invalidatePrivate(c, l3res.EvictedAddr)
		}
		if l3res.EvictedDirty {
			h.dram.Accesses++ // writeback to memory, off critical path
		}
	}
	if !l3res.Hit {
		if h.cfg.DRAMFixedCycles > 0 {
			h.dram.Accesses++
			lat += h.cfg.DRAMFixedCycles
		} else {
			lat += h.dram.LatencyCycles(h.cfg.FreqGHz)
		}
	}

	// Next-line prefetch: pull the following line into this core's L2 in
	// the background (no latency charged; activity is counted).
	if allowPrefetch && h.cfg.NextLinePrefetch {
		next := addr + uint64(h.cfg.LineSize)
		if !h.l2[core].Probe(next) {
			h.prefetches++
			h.beyondL1Inner(core, next, false, false)
		}
	}
	return lat
}

// invalidatePrivate removes a line from every private array of a core.
func (h *Hierarchy) invalidatePrivate(core int, byteAddr uint64) {
	h.invalidateL1s(core, byteAddr)
	if p, d := h.l2[core].Invalidate(byteAddr); p && d {
		h.l3.Access(byteAddr, true) // dirty data returns to L3
	}
}

func (h *Hierarchy) invalidateL1s(core int, byteAddr uint64) {
	h.il1[core].Invalidate(byteAddr)
	if h.cfg.AsymDL1 {
		h.adl1[core].Invalidate(byteAddr)
	} else {
		h.dl1[core].Invalidate(byteAddr)
	}
}

// cleanRemote downgrades a remote owner's copy to shared (clean).
func (h *Hierarchy) cleanRemote(core int, byteAddr uint64) {
	h.l2[core].CleanLine(byteAddr)
	if h.cfg.AsymDL1 {
		// Both arrays may hold it post-promotion; clean is best-effort.
		h.adl1[core].fast.CleanLine(byteAddr)
		h.adl1[core].slow.CleanLine(byteAddr)
	} else {
		h.dl1[core].CleanLine(byteAddr)
	}
}

// Counts aggregates all hierarchy activity for the energy model and for
// reporting.
type Counts struct {
	IL1, DL1, L2, L3 Stats
	// Asymmetric-DL1 detail (zero when the DL1 is plain): the per-array
	// counters the energy model prices. DL1 counts the asymmetric DL1 as
	// one cache (AsymmetricDL1.Stats).
	DL1Fast, DL1Slow Stats
	Swaps            uint64
	RingMessages     uint64
	RingHops         uint64
	DRAMAccesses     uint64
	Prefetches       uint64
	Directory        DirectoryStats
}

// Delta returns c minus an earlier snapshot, field-wise (warmup
// exclusion).
func (c Counts) Delta(prev Counts) Counts {
	sub := func(a, b Stats) Stats {
		return Stats{
			Reads: a.Reads - b.Reads, Writes: a.Writes - b.Writes,
			ReadMisses: a.ReadMisses - b.ReadMisses, WriteMisses: a.WriteMisses - b.WriteMisses,
			Writebacks: a.Writebacks - b.Writebacks, Invalidates: a.Invalidates - b.Invalidates,
		}
	}
	return Counts{
		IL1: sub(c.IL1, prev.IL1), DL1: sub(c.DL1, prev.DL1),
		L2: sub(c.L2, prev.L2), L3: sub(c.L3, prev.L3),
		DL1Fast: sub(c.DL1Fast, prev.DL1Fast), DL1Slow: sub(c.DL1Slow, prev.DL1Slow),
		Swaps:        c.Swaps - prev.Swaps,
		RingMessages: c.RingMessages - prev.RingMessages,
		RingHops:     c.RingHops - prev.RingHops,
		DRAMAccesses: c.DRAMAccesses - prev.DRAMAccesses,
		Prefetches:   c.Prefetches - prev.Prefetches,
		Directory: DirectoryStats{
			ReadMisses:     c.Directory.ReadMisses - prev.Directory.ReadMisses,
			WriteMisses:    c.Directory.WriteMisses - prev.Directory.WriteMisses,
			Invalidations:  c.Directory.Invalidations - prev.Directory.Invalidations,
			OwnerForwards:  c.Directory.OwnerForwards - prev.Directory.OwnerForwards,
			WritebacksToL3: c.Directory.WritebacksToL3 - prev.Directory.WritebacksToL3,
		},
	}
}

// Visit calls fn for every hierarchy counter in a fixed order, keyed by
// dotted metric names — the bridge into the observability registry.
func (c Counts) Visit(fn func(name string, v uint64)) {
	level := func(prefix string, s Stats) {
		fn(prefix+".reads", s.Reads)
		fn(prefix+".read_misses", s.ReadMisses)
		fn(prefix+".writes", s.Writes)
		fn(prefix+".write_misses", s.WriteMisses)
		fn(prefix+".writebacks", s.Writebacks)
		fn(prefix+".invalidates", s.Invalidates)
	}
	level("cache.il1", c.IL1)
	level("cache.dl1", c.DL1)
	level("cache.dl1_fast", c.DL1Fast)
	level("cache.dl1_slow", c.DL1Slow)
	level("cache.l2", c.L2)
	level("cache.l3", c.L3)
	fn("cache.dl1_swaps", c.Swaps)
	fn("ring.messages", c.RingMessages)
	fn("ring.hops", c.RingHops)
	fn("dram.accesses", c.DRAMAccesses)
	fn("cache.prefetches", c.Prefetches)
	fn("directory.read_misses", c.Directory.ReadMisses)
	fn("directory.write_misses", c.Directory.WriteMisses)
	fn("directory.invalidations", c.Directory.Invalidations)
	fn("directory.owner_forwards", c.Directory.OwnerForwards)
	fn("directory.writebacks_to_l3", c.Directory.WritebacksToL3)
}

// Counts returns the hierarchy-wide aggregated counters.
func (h *Hierarchy) Counts() Counts {
	var out Counts
	add := func(dst *Stats, s Stats) {
		dst.Reads += s.Reads
		dst.Writes += s.Writes
		dst.ReadMisses += s.ReadMisses
		dst.WriteMisses += s.WriteMisses
		dst.Writebacks += s.Writebacks
		dst.Invalidates += s.Invalidates
	}
	for c := 0; c < h.cfg.Cores; c++ {
		add(&out.IL1, h.il1[c].Stats())
		if h.cfg.AsymDL1 {
			add(&out.DL1, h.adl1[c].Stats())
			add(&out.DL1Fast, h.adl1[c].FastStats())
			add(&out.DL1Slow, h.adl1[c].SlowStats())
			out.Swaps += h.adl1[c].Swaps
		} else {
			add(&out.DL1, h.dl1[c].Stats())
		}
		add(&out.L2, h.l2[c].Stats())
	}
	add(&out.L3, h.l3.Stats())
	out.RingMessages = h.ring.Messages
	out.RingHops = h.ring.HopsTotal
	out.DRAMAccesses = h.dram.Accesses
	out.Prefetches = h.prefetches
	out.Directory = h.dir.Stats()
	return out
}

// Occupancy is the valid-line fraction of each data level. DL1 and L2
// are means over the per-core private arrays; L3 is the shared array.
type Occupancy struct {
	DL1, L2, L3 float64
}

// Occupancy reports the current valid-line fraction of the data levels.
func (h *Hierarchy) Occupancy() Occupancy {
	var o Occupancy
	for c := 0; c < h.cfg.Cores; c++ {
		if h.cfg.AsymDL1 {
			o.DL1 += h.adl1[c].Occupancy()
		} else {
			o.DL1 += h.dl1[c].Occupancy()
		}
		o.L2 += h.l2[c].Occupancy()
	}
	n := float64(h.cfg.Cores)
	o.DL1 /= n
	o.L2 /= n
	o.L3 = h.l3.Occupancy()
	return o
}
