package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minTailSamples is how many samples must lie beyond a reported percentile
// for it to mean anything: p95 therefore needs 200.
const minTailSamples = 10

// percentile returns the p-th percentile (0 < p < 1) of samples by the
// nearest-rank method. It refuses a percentile the sample cannot support —
// fewer than minTailSamples observations beyond it — instead of reporting a
// number that is really the maximum in disguise.
func percentile(samples []float64, p float64) (float64, error) {
	n := len(samples)
	if n == 0 {
		return 0, fmt.Errorf("percentile of an empty sample")
	}
	if beyond := float64(n) * (1 - p); p > 0.5 && beyond < minTailSamples {
		return 0, fmt.Errorf("p%g needs %d samples, have %d", p*100, int(math.Ceil(minTailSamples/(1-p))), n)
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(p*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank], nil
}

// median returns the middle of samples (mean of the two middles when even),
// or 0 for an empty sample.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	var sum float64
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0: per-layer ratios of a layer a workload never
// reaches read 0 rather than NaN, which JSON cannot carry.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
