package cache

// AsymmetricDL1 is the AdvHet data cache of Section IV-C1. It partitions
// the ways of the baseline 8-way DL1: one way's worth of capacity is
// implemented in CMOS (the FastCache — 4 KB, 1-way, 1-cycle round trip)
// and the remaining ways in TFET (the SlowCache — 5-cycle round trip on a
// FastCache miss: 1 cycle to discover the fast miss plus 4 for the slow
// access).
//
// A request checks the FastCache first. On a FastCache miss that hits the
// SlowCache, the line is promoted into the FastCache (MRU placement) and
// the displaced FastCache line is demoted into the SlowCache — a swap, so
// total capacity behaves like the original cache. Misses in both arrays go
// to L2 and fill the FastCache.
//
// The two arrays' own counters price their energy: a fast miss reads the
// slow array once to probe it and once more to demote the fast victim.
// stats counts the DL1 as one cache instead: one access per request, a
// miss only when both arrays miss, and a writeback only when a dirty line
// leaves the DL1, so its misses equal those of a plain DL1 of the same
// size.
type AsymmetricDL1 struct {
	fast  *Cache
	slow  *Cache
	stats Stats
	// Swaps counts fast<->slow line exchanges (each costs two slow-array
	// accesses of energy).
	Swaps uint64
}

// NewAsymmetricDL1 builds the asymmetric cache. fastSize is the CMOS way's
// capacity (4 KB in the paper); slowSize/slowWays describe the TFET
// remainder (28 KB, 7 ways for a 32 KB 8-way DL1).
func NewAsymmetricDL1(fastSize, slowSize, slowWays, lineSize int) (*AsymmetricDL1, error) {
	fast, err := New("dl1-fast", fastSize, 1, lineSize)
	if err != nil {
		return nil, err
	}
	slow, err := New("dl1-slow", slowSize, slowWays, lineSize)
	if err != nil {
		return nil, err
	}
	return &AsymmetricDL1{fast: fast, slow: slow}, nil
}

// AsymResult describes where an asymmetric access was satisfied.
type AsymResult struct {
	// FastHit: satisfied by the CMOS way (1-cycle round trip).
	FastHit bool
	// SlowHit: satisfied by the TFET ways (5-cycle round trip).
	SlowHit bool
	// Result carries eviction information for lines leaving the DL1
	// entirely (from the slow array, after demotion pressure, or on
	// fill).
	Result
}

// AnyHit reports whether the access hit anywhere in the DL1.
func (r AsymResult) AnyHit() bool { return r.FastHit || r.SlowHit }

// Access performs a load or store.
func (a *AsymmetricDL1) Access(addr uint64, isWrite bool) AsymResult {
	if isWrite {
		a.stats.Writes++
	} else {
		a.stats.Reads++
	}
	fres := a.fast.Access(addr, isWrite)
	if fres.Hit {
		return AsymResult{FastHit: true}
	}
	// The fill into fast displaced a line (fres); that victim demotes
	// into the slow array rather than leaving the DL1.
	out := AsymResult{}
	sres := a.slow.Access(addr, false)
	if sres.Hit {
		out.SlowHit = true
		// Promotion: line now lives in fast (already filled above);
		// remove the stale slow copy. Its dirtiness is preserved by
		// the fast fill for writes; for reads we must not lose it.
		_, dirty := a.slow.remove(addr)
		if dirty && !isWrite {
			a.fast.MarkDirty(addr)
		}
		a.Swaps++
	} else {
		// Miss everywhere: the slow.Access above allocated the line
		// in slow as a side effect; undo it so the line lives only in
		// fast (the MRU position). Any eviction it caused stands in
		// for demotion pressure.
		if isWrite {
			a.stats.WriteMisses++
		} else {
			a.stats.ReadMisses++
		}
		a.slow.remove(addr)
		out.Result = sres // propagate the slow-array eviction, if any
		out.Result.Hit = false
		if sres.EvictedDirty {
			a.stats.Writebacks++
		}
	}
	// Demote the fast victim into the slow array.
	if fres.Evicted {
		dres := a.slow.Access(fres.EvictedAddr, false)
		if fres.EvictedDirty {
			a.slow.MarkDirty(fres.EvictedAddr)
		}
		if dres.EvictedDirty {
			a.stats.Writebacks++
		}
		if dres.Evicted {
			// A line left the DL1 entirely via demotion. Report the
			// most recent eviction (at most one per access matters
			// for writeback accounting; both are counted in stats).
			out.Evicted = true
			out.EvictedAddr = dres.EvictedAddr
			out.EvictedDirty = dres.EvictedDirty
		}
	}
	return out
}

// Invalidate removes the line from both arrays (coherence).
func (a *AsymmetricDL1) Invalidate(addr uint64) (present, dirty bool) {
	p1, d1 := a.fast.Invalidate(addr)
	p2, d2 := a.slow.Invalidate(addr)
	if p1 || p2 {
		a.stats.Invalidates++
	}
	return p1 || p2, d1 || d2
}

// Occupancy returns the valid-line fraction over both arrays combined,
// weighted by capacity, so the asymmetric DL1 reports on the same [0, 1]
// scale as a plain DL1 of the same total size.
func (a *AsymmetricDL1) Occupancy() float64 {
	valid := a.fast.validLines() + a.slow.validLines()
	total := len(a.fast.data) + len(a.slow.data)
	return float64(valid) / float64(total)
}

// Stats returns the DL1-level counters: what a plain DL1 of the same
// size and contents would count.
func (a *AsymmetricDL1) Stats() Stats { return a.stats }

// FastStats returns the CMOS way's counters.
func (a *AsymmetricDL1) FastStats() Stats { return a.fast.Stats() }

// SlowStats returns the TFET ways' counters.
func (a *AsymmetricDL1) SlowStats() Stats { return a.slow.Stats() }

// MarkDirty sets the dirty bit of addr's line if present. It lets the
// asymmetric wrapper preserve dirtiness across promotions/demotions.
func (c *Cache) MarkDirty(addr uint64) {
	if l := c.find(addr); l != nil {
		l.meta |= lineDirty
	}
}
