package main

import (
	"math"
	"sort"
	"time"
)

// Samples is a set of measured durations. It keeps every value, so the
// percentiles it reports are samples as measured (nearest rank), never
// bucket midpoints that would read identically across runs.
type Samples struct {
	v      []time.Duration
	sorted bool
}

// Add records one duration.
func (s *Samples) Add(d time.Duration) {
	s.v = append(s.v, d)
	s.sorted = false
}

// N is the number of samples.
func (s *Samples) N() int { return len(s.v) }

// Quantile returns the nearest-rank q-quantile (0 < q <= 1): the smallest
// sample with at least q·N samples at or below it. Empty sets return 0.
func (s *Samples) Quantile(q float64) time.Duration {
	if len(s.v) == 0 {
		return 0
	}
	if !s.sorted {
		sort.Slice(s.v, func(i, j int) bool { return s.v[i] < s.v[j] })
		s.sorted = true
	}
	rank := int(math.Ceil(q*float64(len(s.v)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s.v) {
		rank = len(s.v) - 1
	}
	return s.v[rank]
}

// Max is the largest sample (0 when empty).
func (s *Samples) Max() time.Duration { return s.Quantile(1) }

// Median of plain numbers (0 when empty); used for per-run repeats.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	m := len(c) / 2
	if len(c)%2 == 1 {
		return c[m]
	}
	return (c[m-1] + c[m]) / 2
}

// quantile is the nearest-rank q-quantile of plain numbers (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	rank := int(math.Ceil(q*float64(len(c)))) - 1
	return c[max(0, min(rank, len(c)-1))]
}

// sliceMedian splits a phase's requests by due time into n equal slices and
// returns, for puts and for reads, the median over slices of each slice's
// q-quantile in microseconds, a failed request counting as infinite. A
// spell of host CPU steal that covers fewer than half the slices moves it
// less than it moves the whole-phase quantile.
func sliceMedian(ph *phase, n int, q float64) (put, read float64) {
	slices := make([][]*op, n)
	span := int64(ph.end - ph.start)
	for _, o := range ph.ops {
		i := min(int(int64(o.due-ph.start)*int64(n)/max(span, 1)), n-1)
		slices[i] = append(slices[i], o)
	}
	var ps, rs []float64
	for _, sl := range slices {
		p, r, _ := latencies(sl)
		if p.N() > 0 {
			ps = append(ps, us(p.Quantile(q)))
		}
		if r.N() > 0 {
			rs = append(rs, us(r.Quantile(q)))
		}
	}
	return median(ps), median(rs)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
