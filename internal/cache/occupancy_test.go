package cache

import (
	"math"
	"testing"
)

// TestCacheOccupancyBounds pins the basic occupancy invariants of a
// single array: empty cache reports 0, occupancy is monotone under
// fills, never leaves [0, 1], and a fully touched cache reports 1.
func TestCacheOccupancyBounds(t *testing.T) {
	c := MustNew("t", 4096, 4, 64) // 64 lines
	if got := c.Occupancy(); got != 0 {
		t.Fatalf("empty occupancy = %v, want 0", got)
	}
	prev := 0.0
	for i := 0; i < 64; i++ {
		c.Access(uint64(i)*64, false)
		occ := c.Occupancy()
		if occ < prev {
			t.Fatalf("occupancy decreased under fills: %v -> %v", prev, occ)
		}
		if occ < 0 || occ > 1 {
			t.Fatalf("occupancy %v out of [0, 1]", occ)
		}
		prev = occ
	}
	if got := c.Occupancy(); got != 1 {
		t.Fatalf("full occupancy = %v, want 1", got)
	}
	// Conflict misses replace lines rather than adding them.
	c.Access(1<<20, false)
	if got := c.Occupancy(); got != 1 {
		t.Fatalf("occupancy after replacement = %v, want 1", got)
	}
	if p, _ := c.Invalidate(63 * 64); !p {
		t.Fatal("expected line 63 present")
	}
	want := 63.0 / 64.0
	if got := c.Occupancy(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("occupancy after invalidate = %v, want %v", got, want)
	}
}

// TestAsymOccupancyWeightedMean pins that the asymmetric DL1 reports the
// capacity-weighted valid fraction of its two arrays: fill k distinct
// lines (k under the slow array's capacity so nothing leaves the DL1)
// and the combined occupancy must be k / totalLines.
func TestAsymOccupancyWeightedMean(t *testing.T) {
	a, err := NewAsymmetricDL1(4096, 28672, 7, 64) // 64 + 448 lines
	if err != nil {
		t.Fatal(err)
	}
	if got := a.Occupancy(); got != 0 {
		t.Fatalf("empty occupancy = %v, want 0", got)
	}
	const k = 100
	for i := 0; i < k; i++ {
		a.Access(uint64(i)*64, false)
	}
	want := float64(k) / float64(64+448)
	if got := a.Occupancy(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("occupancy after %d distinct lines = %v, want %v", k, got, want)
	}
}

// TestHierarchyOccupancyMeanInvariant pins that the hierarchy's DL1/L2
// occupancy equals the mean of the per-core arrays and that the shared
// L3 matches its own array — the aggregation contract the traffic
// scheduler's cache-aware policy reads through CPUResult.
func TestHierarchyOccupancyMeanInvariant(t *testing.T) {
	cfg := Config{
		Cores: 2, LineSize: 64,
		IL1Size: 4096, IL1Ways: 2, IL1RT: 1,
		DL1Size: 4096, DL1Ways: 4, DL1RT: 2,
		L2Size: 16384, L2Ways: 4, L2RT: 8,
		L3SizePerCore: 32768, L3Ways: 8, L3RT: 32,
		DRAMCycles: 100, RingHopLat: 1,
	}
	h, err := NewHierarchy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Touch disjoint regions from each core so the private arrays end
	// at different occupancies.
	for i := 0; i < 40; i++ {
		h.Read(0, uint64(i)*64)
	}
	for i := 0; i < 10; i++ {
		h.Read(1, 1<<24+uint64(i)*64)
	}
	occ := h.Occupancy()
	wantDL1 := (h.dl1[0].Occupancy() + h.dl1[1].Occupancy()) / 2
	wantL2 := (h.l2[0].Occupancy() + h.l2[1].Occupancy()) / 2
	if math.Abs(occ.DL1-wantDL1) > 1e-12 || math.Abs(occ.L2-wantL2) > 1e-12 {
		t.Fatalf("hierarchy occupancy %+v, want DL1 %v L2 %v", occ, wantDL1, wantL2)
	}
	if occ.L3 != h.l3.Occupancy() {
		t.Fatalf("L3 occupancy %v != shared array %v", occ.L3, h.l3.Occupancy())
	}
	if h.dl1[0].Occupancy() == h.dl1[1].Occupancy() {
		t.Fatal("test wants cores at different occupancies to exercise the mean")
	}
	for _, v := range []float64{occ.DL1, occ.L2, occ.L3} {
		if v <= 0 || v > 1 {
			t.Fatalf("occupancy %v out of (0, 1]", v)
		}
	}
}
