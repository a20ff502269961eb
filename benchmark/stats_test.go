package main

import "testing"

func TestMedianAndIQR(t *testing.T) {
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3,1,2) = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4,1,3,2) = %v, want 2.5", got)
	}
	// Quartiles of 1..5 are 2 and 4, the median 3.
	if got := iqrShare([]float64{5, 4, 3, 2, 1}); got != 2.0/3 {
		t.Errorf("iqrShare(1..5) = %v, want 2/3", got)
	}
	if got := iqrShare([]float64{7}); got != 0 {
		t.Errorf("iqrShare of one sample = %v, want 0", got)
	}
}

func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i)
	}
	return xs
}

// A tail percentile is reported only with ten samples beyond it, and
// the highest such one is chosen; below that it is omitted, never
// extrapolated.
func TestHighPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n   int
		pct float64
	}{
		{99, 0}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if _, pct := highPercentile(ramp(tc.n)); pct != tc.pct {
			t.Errorf("n=%d: reported p%g, want p%g", tc.n, pct, tc.pct)
		}
	}
	if v, _ := highPercentile(ramp(101)); v != 90 {
		t.Errorf("p90 of 0..100 = %v, want 90", v)
	}
	if got, ok := p90(ramp(99)); ok {
		t.Errorf("p90 of 99 samples = %v, want it omitted", got)
	}
	if got, ok := p90(ramp(101)); !ok || got != 90 {
		t.Errorf("p90 of 0..100 = %v (reported %v), want 90", got, ok)
	}
	m := metrics{}
	m.setP90("x_p90", ramp(99))
	m.setMedian("x_p50", nil)
	if len(m) != 0 {
		t.Errorf("under-sampled percentiles were stored: %v", m)
	}
}

func TestUnionLen(t *testing.T) {
	for _, tc := range []struct {
		name string
		ivs  []interval
		want int64
	}{
		{"empty", nil, 0},
		{"disjoint", []interval{{10, 20}, {0, 5}}, 15},
		{"overlapping", []interval{{0, 10}, {5, 15}}, 15},
		{"nested", []interval{{0, 100}, {10, 20}, {30, 40}}, 100},
		{"touching", []interval{{0, 10}, {10, 20}}, 20},
		{"inverted is ignored", []interval{{0, 10}, {30, 20}}, 10},
	} {
		if got := unionLen(tc.ivs); got != tc.want {
			t.Errorf("%s: unionLen = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// Self time subtracts what the children cover, once: two VPs of one
// rank waiting on fetches at the same moment block the rank once.
func TestSelfTime(t *testing.T) {
	parent := interval{100, 200}
	children := []interval{{110, 130}, {120, 140}, {190, 250}, {50, 105}}
	// Covered inside the parent: [100,105) + [110,140) + [190,200) = 45.
	if got := selfTime(parent, children); got != 55 {
		t.Errorf("selfTime = %d, want 55", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("selfTime without children = %d, want 100", got)
	}
}
