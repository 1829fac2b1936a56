package main

import (
	"testing"
	"time"
)

func TestQuantileNearestRank(t *testing.T) {
	var s Samples
	for i := 100; i >= 1; i-- { // unsorted on purpose
		s.Add(time.Duration(i) * time.Millisecond)
	}
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{
		{0.01, 1 * time.Millisecond},
		{0.5, 50 * time.Millisecond},
		{0.9, 90 * time.Millisecond},
		{0.99, 99 * time.Millisecond},
		{1, 100 * time.Millisecond},
	} {
		if got := s.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	// Adding after a query must re-sort.
	s.Add(0)
	if got := s.Quantile(0.001); got != 0 {
		t.Errorf("Quantile after Add = %v, want 0", got)
	}
}

func TestQuantileSmallSets(t *testing.T) {
	var empty Samples
	if got := empty.Quantile(0.9); got != 0 {
		t.Errorf("empty Quantile = %v, want 0", got)
	}
	var one Samples
	one.Add(7)
	if got := one.Quantile(0.5); got != 7 {
		t.Errorf("single-sample median = %v, want 7", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %v, want 0", got)
	}
	if got := quantile([]float64{8, 1, 7, 2, 6, 3, 5, 4}, 0.25); got != 2 {
		t.Errorf("lower quartile of 1..8 = %v, want 2", got)
	}
	if got := quantile([]float64{9, 1, 5, 3, 7}, 0.25); got != 3 {
		t.Errorf("lower quartile of 1,3,5,7,9 = %v, want 3", got)
	}
}

// A burst confined to one slice moves the whole-phase p90 but not the
// median over slices; failures count as infinite within their slice.
func TestSliceMedian(t *testing.T) {
	ph := &phase{start: 0, end: 9 * time.Second}
	for sl := 0; sl < 9; sl++ {
		for i := 1; i <= 10; i++ {
			lat := time.Duration(i) * time.Millisecond
			if sl == 4 {
				lat = 100 * time.Millisecond
			}
			due := time.Duration(sl)*time.Second + time.Duration(i)*time.Millisecond
			ph.ops = append(ph.ops, &op{put: true, due: due, end: due + lat, ok: true})
			ph.ops = append(ph.ops, &op{due: due, end: due + lat, ok: sl >= 5})
		}
	}
	puts, _, _ := latencies(ph.ops)
	if got := puts.Quantile(0.9); got != 100*time.Millisecond {
		t.Fatalf("whole-phase put p90 = %v, want 100ms", got)
	}
	put, read := sliceMedian(ph, 9, 0.9)
	if put != 9000 {
		t.Errorf("put p90 median over slices = %v us, want 9000", put)
	}
	// Reads failed in slices 0-4, so the median slice's p90 is a failure.
	if read != us(failed) {
		t.Errorf("read p90 median over slices = %v us, want a failure (%v)", read, us(failed))
	}
	if p50, _ := sliceMedian(ph, 9, 0.5); p50 != 5000 {
		t.Errorf("put p50 median over slices = %v us, want 5000", p50)
	}
}
