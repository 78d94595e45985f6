package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// tailPercentiles are the candidates for a distribution's reported tail,
// highest first. The reported tail is the highest of them with at least
// minBeyond samples above it, so p99 needs n >= 1000.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75}

const minBeyond = 10

// tailFor returns the percentile to report as the tail of n samples and
// its label: the highest candidate up to limit with at least minBeyond
// samples above it. Below 20 samples no candidate qualifies and the tail
// is the maximum. The limit keeps a workload's tail the same percentile
// when a faster commit fits more samples into the same run.
func tailFor(n int, limit float64) (p float64, label string) {
	for _, p := range tailPercentiles {
		// The epsilon absorbs the rounding of 1-p/100 (100 × 0.1 < 10).
		if p <= limit && float64(n)*(1-p/100) >= minBeyond-1e-9 {
			return p, fmt.Sprintf("p%g", p)
		}
	}
	return 100, "max"
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks. xs need not be sorted; it is not
// modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// quartiles returns Q1 and Q3 the way Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), the spread
// measure the bounds in BENCHMARK.json are calibrated with.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return math.NaN(), math.NaN()
	}
	at := func(k int) float64 {
		m := float64(n + 1)
		j := int(math.Floor(float64(k) * m / 4))
		switch {
		case j < 1:
			j = 1
		case j > n-1:
			j = n - 1
		}
		delta := float64(k)*m - float64(j)*4
		return s[j-1] + (s[j]-s[j-1])*delta/4
	}
	return at(1), at(3)
}

// latencySummary adds the median and the tail (see tailFor) of a latency
// sample in ms to m; the tail's note names the percentile it is.
func latencySummary(m metrics, p50Name, tailName string, ms []float64, limit float64) {
	m.set(p50Name, median(ms), "ms", len(ms), "p50")
	v, label := tail(ms, limit)
	m.set(tailName, v, "ms", len(ms), label)
}

// tail returns the tail of xs (see tailFor) and its label.
func tail(xs []float64, limit float64) (float64, string) {
	p, label := tailFor(len(xs), limit)
	return percentile(xs, p), label
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func usOf(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
