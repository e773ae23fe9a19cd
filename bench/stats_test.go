package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %g, want %g", tc.xs, got, tc.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples is not NaN")
	}
}

func TestQuantileIsNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted input
	}
	for _, tc := range []struct{ q, want float64 }{
		{0.5, 50}, {0.99, 99}, {1, 100}, {0, 1},
	} {
		if got := quantile(xs, tc.q); got != tc.want {
			t.Errorf("quantile(1..100, %g) = %g, want %g", tc.q, got, tc.want)
		}
	}
	if got := quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("quantile of one sample = %g, want 7", got)
	}
}

func TestTailQuantile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{1, 0.5}, {17, 0.5}, {20, 0.5}, {100, 0.9}, {1000, 0.99}, {60000, 0.99},
	} {
		if got := tailQuantile(tc.n); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("tailQuantile(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
}

// The expected cut points come from Python's
// statistics.quantiles(xs, n=4), which defines the benchmark's spread.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{2, 9, 4, 7}, [3]float64{2.5, 5.5, 8.5}},
		{[]float64{1, 3}, [3]float64{0.5, 2, 3.5}},
		{[]float64{5, 1, 4}, [3]float64{1, 4, 5}},
	} {
		q1, q2, q3, err := quartiles(tc.xs)
		if err != nil {
			t.Fatal(err)
		}
		if got := [3]float64{q1, q2, q3}; got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	if _, _, _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one sample did not fail")
	}
	s, err := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if err != nil || s != (8.25-2.75)/5.5 {
		t.Errorf("spread = %g, %v", s, err)
	}
}

func TestCompareSets(t *testing.T) {
	decls := []metricDecl{
		{Name: "latency_p50_ms", Better: "lower", Bound: 0.1},
		{Name: "throughput_rps", Better: "higher", Bound: 0.1},
		{Name: "setup_s", Better: "lower", Bound: 0.25},
	}
	steady := func(m float64) []float64 { return []float64{m * 0.99, m, m * 1.01, m, m * 1.005} }
	noisy := []float64{1, 2, 3, 4, 5}
	for _, tc := range []struct {
		name       string
		set1, set2 map[string][]float64
		okRows     map[string]bool
	}{
		{
			name:   "same code",
			set1:   map[string][]float64{"latency_p50_ms": steady(10), "throughput_rps": steady(100), "setup_s": steady(1)},
			set2:   map[string][]float64{"latency_p50_ms": steady(10.5), "throughput_rps": steady(95), "setup_s": steady(1.2)},
			okRows: map[string]bool{"latency_p50_ms": true, "throughput_rps": true, "setup_s": true},
		},
		{
			name:   "second set regressed in each direction",
			set1:   map[string][]float64{"latency_p50_ms": steady(10), "throughput_rps": steady(100), "setup_s": steady(1)},
			set2:   map[string][]float64{"latency_p50_ms": steady(12), "throughput_rps": steady(80), "setup_s": steady(1.3)},
			okRows: map[string]bool{"latency_p50_ms": false, "throughput_rps": false, "setup_s": false},
		},
		{
			name:   "second set better by more than the bound",
			set1:   map[string][]float64{"latency_p50_ms": steady(10), "throughput_rps": steady(100), "setup_s": steady(1)},
			set2:   map[string][]float64{"latency_p50_ms": steady(6), "throughput_rps": steady(140), "setup_s": steady(0.7)},
			okRows: map[string]bool{"latency_p50_ms": false, "throughput_rps": false, "setup_s": false},
		},
		{
			name:   "spread beyond the bound, except for set-up time",
			set1:   map[string][]float64{"latency_p50_ms": noisy, "throughput_rps": steady(100), "setup_s": noisy},
			set2:   map[string][]float64{"latency_p50_ms": noisy, "throughput_rps": steady(100), "setup_s": noisy},
			okRows: map[string]bool{"latency_p50_ms": false, "throughput_rps": true, "setup_s": true},
		},
		{
			name:   "a metric with too few runs",
			set1:   map[string][]float64{"latency_p50_ms": {10}, "throughput_rps": steady(100), "setup_s": steady(1)},
			set2:   map[string][]float64{"latency_p50_ms": steady(10), "throughput_rps": steady(100), "setup_s": steady(1)},
			okRows: map[string]bool{"latency_p50_ms": false, "throughput_rps": true, "setup_s": true},
		},
	} {
		rows, ok := compareSets(decls, tc.set1, tc.set2)
		allOK := true
		for _, row := range rows {
			if row.OK != tc.okRows[row.Name] {
				t.Errorf("%s: %s ok = %v, want %v (%+v)", tc.name, row.Name, row.OK, tc.okRows[row.Name], row)
			}
			allOK = allOK && tc.okRows[row.Name]
		}
		if ok != allOK {
			t.Errorf("%s: verdict %v, want %v", tc.name, ok, allOK)
		}
	}
}
