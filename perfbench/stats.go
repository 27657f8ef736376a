package main

import (
	"math"
	"sort"
)

// minTail is the number of samples that must lie beyond a reported
// percentile: p99 needs at least 1,000 samples, p50 at least 20.
const minTail = 10

// quantile returns the nearest-rank p-quantile of xs (p in (0, 1]); xs is
// not modified. It returns NaN for an empty slice.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), p)]
}

// rank is the 0-based nearest-rank index of the p-quantile among n sorted
// samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n))) - 1
	if r < 0 {
		r = 0
	}
	if r >= n {
		r = n - 1
	}
	return r
}

// tailOK reports whether n samples leave at least minTail beyond the
// p-quantile, the condition for reporting it.
func tailOK(n int, p float64) bool {
	return float64(n)*(1-p) >= minTail-1e-9
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// latency summarises one phase's request latencies in milliseconds.
type latency struct {
	N        int
	P50, P99 float64
}

// summarize reports the median over all samples and the p99 as the median
// of the p99s of consecutive windows of at least windowSamples samples
// each (one window when there are fewer): every window has enough samples
// for its own p99, and one stall of the host moves one window, not the
// reported value.
func summarize(ms []float64) latency {
	l := latency{N: len(ms), P50: quantile(ms, 0.5)}
	w := len(ms) / windowSamples
	if w < 1 {
		w = 1
	}
	var p99s []float64
	for i := 0; i < w; i++ {
		p99s = append(p99s, quantile(ms[i*len(ms)/w:(i+1)*len(ms)/w], 0.99))
	}
	l.P99 = median(p99s)
	return l
}

// windowSamples is the smallest window whose p99 has minTail samples
// beyond it.
const windowSamples = 1000

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
