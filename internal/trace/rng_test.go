package trace

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d/100 identical outputs across different seeds", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := NewRNG(3)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("mean = %v, want ≈0.5", mean)
	}
}

func TestIntnRange(t *testing.T) {
	r := NewRNG(9)
	seen := make(map[int]bool)
	for i := 0; i < 10000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Errorf("Intn(7) produced only %d distinct values", len(seen))
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestGeometricMean(t *testing.T) {
	r := NewRNG(11)
	for _, mean := range []float64{1, 2, 5, 12} {
		var sum float64
		const n = 200000
		for i := 0; i < n; i++ {
			v := r.geometric(threshold(1 / mean))
			if v < 1 {
				t.Fatalf("Geometric(%v) = %d < 1", mean, v)
			}
			sum += float64(v)
		}
		got := sum / n
		if math.Abs(got-mean)/mean > 0.03 {
			t.Errorf("Geometric mean(%v) = %v", mean, got)
		}
	}
}

func TestBoolProbability(t *testing.T) {
	r := NewRNG(13)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	got := float64(hits) / n
	if math.Abs(got-0.3) > 0.01 {
		t.Errorf("Bool(0.3) rate = %v", got)
	}
}

// Property: any seed produces values in-range for all helpers.
func TestRNGProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		for i := 0; i < 32; i++ {
			if f := r.Float64(); f < 0 || f >= 1 {
				return false
			}
			if v := r.Intn(10); v < 0 || v >= 10 {
				return false
			}
			if g := r.geometric(threshold(1.0 / 3)); g < 1 || g > 1024 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestThresholdMatchesFloat: the integer test k < threshold(p) agrees
// with Float64() < p for every draw k, including the draws on either side
// of p's boundary and the edge probabilities.
func TestThresholdMatchesFloat(t *testing.T) {
	ps := []float64{0, -0.5, math.NaN(), 1, 1.5, math.Inf(1), 0.5, 0.55, 0.975,
		1.0 / 3.5, 0.45 * 0.6, 5e-324, 1 - 1.0/(1<<53), 3.0 / (1 << 53)}
	r := NewRNG(17)
	for i := 0; i < 2000; i++ {
		ps = append(ps, r.Float64(), 1/(1+r.Float64()*100))
	}
	for _, p := range ps {
		th := threshold(p)
		ks := []uint64{0, 1, 1<<53 - 1}
		if th > 0 {
			ks = append(ks, th-1)
		}
		if th < 1<<53 {
			ks = append(ks, th)
		}
		for _, k := range ks {
			if got, want := k < th, float64(k)/(1<<53) < p; got != want {
				t.Fatalf("p=%v k=%d: threshold test %v, float test %v", p, k, got, want)
			}
		}
	}
}
