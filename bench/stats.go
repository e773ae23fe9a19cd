package main

import (
	"fmt"
	"math"
	"sort"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the sample median (the mean of the two middle values
// for an even count). It returns NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the exact nearest-rank q-quantile of xs: the
// smallest sample with at least a fraction q of the samples at or below
// it. No interpolation, so the value is always one measured sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// tailQuantile is the latency quantile a run of n requests reports as its
// tail: p99, or the highest quantile that still has ten requests beyond
// it when n is below 1,000, and never below the median.
func tailQuantile(n int) float64 {
	q := 1 - 10/float64(n)
	return math.Max(0.5, math.Min(0.99, q))
}

// quartiles returns the three cut points of xs exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), which is how the benchmark's spread is defined. It needs at
// least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64, err error) {
	if len(xs) < 2 {
		return 0, 0, 0, fmt.Errorf("quartiles need at least 2 samples, have %d", len(xs))
	}
	s := sorted(xs)
	ld := len(s)
	m := ld + 1
	var cut [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		cut[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut[0], cut[1], cut[2], nil
}

// spread is the distance between the first and third quartile as a share
// of the median: the run-to-run noise the benchmark's bounds are set
// against.
func spread(xs []float64) (float64, error) {
	q1, q2, q3, err := quartiles(xs)
	if err != nil {
		return 0, err
	}
	return (q3 - q1) / q2, nil
}

// metricDecl is one metric of BENCHMARK.json.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// setRow is the two-set verdict for one end-to-end metric.
type setRow struct {
	Name    string
	Spread1 float64
	Spread2 float64
	Median1 float64
	Median2 float64
	Diff    float64 // |median2 - median1| / median1
	Bound   float64
	OK      bool
}

// compareSets checks that two sets of runs of the same code agree within
// the declared bounds: each set's spread must stay within the bound
// (except set-up time), and the two medians may differ, in either
// direction, by at most the bound as a share of the first.
func compareSets(decls []metricDecl, set1, set2 map[string][]float64) ([]setRow, bool) {
	allOK := true
	rows := make([]setRow, 0, len(decls))
	for _, d := range decls {
		row := setRow{Name: d.Name, Bound: d.Bound}
		a, b := set1[d.Name], set2[d.Name]
		s1, err1 := spread(a)
		s2, err2 := spread(b)
		if err1 != nil || err2 != nil {
			allOK = false
			rows = append(rows, row)
			continue
		}
		row.Spread1, row.Spread2 = s1, s2
		row.Median1, row.Median2 = median(a), median(b)
		row.Diff = math.Abs(row.Median2-row.Median1) / row.Median1
		row.OK = row.Diff <= d.Bound
		if d.Name != "setup_s" { // set-up time is exempt from the spread bound
			row.OK = row.OK && s1 <= d.Bound && s2 <= d.Bound
		}
		allOK = allOK && row.OK
		rows = append(rows, row)
	}
	return rows, allOK
}
