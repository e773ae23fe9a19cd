package cache

import (
	"fmt"
	"math/rand"
	"testing"
)

// refCache is a naive model of Cache: per-way valid, dirty and last-use
// fields, and a victim that is the first invalid way, else the least
// recently used one.
type refCache struct {
	sets, ways int
	lineBits   uint
	lines      []refLine // sets*ways, way-major within set
	tick       uint64
	stats      Stats
}

type refLine struct {
	valid, dirty bool
	la, used     uint64
}

func newRefCache(sets, ways, lineSize int) *refCache {
	r := &refCache{sets: sets, ways: ways, lines: make([]refLine, sets*ways)}
	for 1<<r.lineBits < lineSize {
		r.lineBits++
	}
	return r
}

func (r *refCache) set(addr uint64) (uint64, []refLine) {
	la := addr >> r.lineBits
	s := int(la % uint64(r.sets))
	return la, r.lines[s*r.ways : (s+1)*r.ways]
}

func (r *refCache) find(addr uint64) *refLine {
	la, set := r.set(addr)
	for i := range set {
		if set[i].valid && set[i].la == la {
			return &set[i]
		}
	}
	return nil
}

func (r *refCache) access(addr uint64, isWrite bool) Result {
	r.tick++
	if isWrite {
		r.stats.Writes++
	} else {
		r.stats.Reads++
	}
	if l := r.find(addr); l != nil {
		l.used = r.tick
		l.dirty = l.dirty || isWrite
		return Result{Hit: true}
	}
	if isWrite {
		r.stats.WriteMisses++
	} else {
		r.stats.ReadMisses++
	}
	la, set := r.set(addr)
	victim := -1
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
	}
	if victim < 0 {
		victim = 0
		for i := range set {
			if set[i].used < set[victim].used {
				victim = i
			}
		}
	}
	v := &set[victim]
	var res Result
	if v.valid {
		res = Result{Evicted: true, EvictedAddr: v.la << r.lineBits, EvictedDirty: v.dirty}
		if v.dirty {
			r.stats.Writebacks++
		}
	}
	*v = refLine{valid: true, dirty: isWrite, la: la, used: r.tick}
	return res
}

func (r *refCache) invalidate(addr uint64) (present, dirty bool) {
	l := r.find(addr)
	if l == nil {
		return false, false
	}
	r.stats.Invalidates++
	present, dirty = true, l.dirty
	*l = refLine{}
	return present, dirty
}

func (r *refCache) setDirty(addr uint64, dirty bool) {
	if l := r.find(addr); l != nil {
		l.dirty = dirty
	}
}

// TestCacheMatchesReferenceModel drives Cache and the naive model with
// the same random stream of reads, writes, invalidations, cleans and
// dirty marks, over geometries from 1-way to 16-way and line sizes down
// to 2 bytes. The stream's line addresses include 0 and the highest
// line address, and crowd a few sets so that lines are evicted. After
// every call the results, the counters and the presence of every line
// in the stream must agree.
func TestCacheMatchesReferenceModel(t *testing.T) {
	geoms := []struct{ sets, ways, line int }{
		{8, 1, 64},
		{4, 2, 64},
		{2, 3, 16},
		{4, 4, 2},
		{2, 8, 32},
		{1, 16, 2},
		{4, 16, 64},
	}
	for gi, g := range geoms {
		t.Run(fmt.Sprintf("%dx%dx%d", g.sets, g.ways, g.line), func(t *testing.T) {
			c, err := New("ref", g.sets*g.ways*g.line, g.ways, g.line)
			if err != nil {
				t.Fatal(err)
			}
			ref := newRefCache(g.sets, g.ways, g.line)
			rng := rand.New(rand.NewSource(int64(gi) + 1))

			// Line addresses: the lowest and highest ones and their
			// neighbours, plus a spread over a few sets, about three
			// times the capacity in all.
			maxLA := ^uint64(0) >> ref.lineBits
			las := []uint64{0, 1, maxLA, maxLA - 1, maxLA - uint64(g.sets)}
			for len(las) < 3*g.sets*g.ways+5 {
				las = append(las, uint64(rng.Intn(2*g.sets))+uint64(g.sets)*uint64(rng.Intn(64)))
			}
			addr := func() uint64 {
				la := las[rng.Intn(len(las))]
				return la<<ref.lineBits | uint64(rng.Intn(g.line))
			}

			var evictions, dirtyEvictions uint64
			for step := 0; step < 4000; step++ {
				a := addr()
				var op string
				switch x := rng.Intn(20); {
				case x < 8:
					op = "read"
					if got, want := c.Access(a, false), ref.access(a, false); got != want {
						t.Fatalf("step %d read %#x: got %+v, want %+v", step, a, got, want)
					}
				case x < 15:
					op = "write"
					got, want := c.Access(a, true), ref.access(a, true)
					if got != want {
						t.Fatalf("step %d write %#x: got %+v, want %+v", step, a, got, want)
					}
					if got.Evicted {
						evictions++
					}
					if got.EvictedDirty {
						dirtyEvictions++
					}
				case x < 17:
					op = "invalidate"
					gp, gd := c.Invalidate(a)
					wp, wd := ref.invalidate(a)
					if gp != wp || gd != wd {
						t.Fatalf("step %d invalidate %#x: got %v/%v, want %v/%v", step, a, gp, gd, wp, wd)
					}
				case x < 19:
					op = "clean"
					c.CleanLine(a)
					ref.setDirty(a, false)
				default:
					op = "mark dirty"
					c.MarkDirty(a)
					ref.setDirty(a, true)
				}
				if got, want := c.Stats(), ref.stats; got != want {
					t.Fatalf("step %d %s %#x: stats %+v, want %+v", step, op, a, got, want)
				}
				for _, la := range las {
					b := la << ref.lineBits
					if got, want := c.Probe(b), ref.find(b) != nil; got != want {
						t.Fatalf("step %d %s %#x: Probe(%#x) = %v, want %v", step, op, a, b, got, want)
					}
				}
			}
			if s := c.Stats(); s.Misses() == s.Accesses() || evictions == 0 || dirtyEvictions == 0 || s.Invalidates == 0 {
				t.Errorf("stream too weak: %+v, %d evictions on writes (%d dirty)", s, evictions, dirtyEvictions)
			}
		})
	}
}
