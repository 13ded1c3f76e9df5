package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentilesCountSamples(t *testing.T) {
	var xs []float64
	for i := 100; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	d := newDist(xs)
	if d.n() != 100 {
		t.Fatalf("n = %d", d.n())
	}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 50.5}, {0.9, 90.1}, {0.99, 99.01}, {1, 100}} {
		if got := d.pct(c.q); !near(got, c.want) {
			t.Errorf("pct(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	// Ten samples lie above p90 of 1..100, one above p99.
	if got := d.beyond(0.9); got != 10 {
		t.Errorf("beyond(0.9) = %d, want 10", got)
	}
	if got := d.beyond(0.99); got != 1 {
		t.Errorf("beyond(0.99) = %d, want 1", got)
	}
	if !math.IsNaN(newDist(nil).pct(0.5)) {
		t.Error("percentile of no samples should be NaN")
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3, 5}, 2, 5, 8.5},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{4, 1, 3}, 1, 3, 4},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestMETGInterpolatesInLogGrain(t *testing.T) {
	rungs := []rung{{1, 0.01}, {10, 0.2}, {100, 0.4}, {1000, 0.6}, {10000, 0.9}}
	got, ok := metg(rungs)
	// Halfway from 0.4 to 0.6 is halfway from log 100 to log 1000.
	if !ok || !near(got, math.Sqrt(100*1000)) {
		t.Fatalf("metg = %v %v, want %v", got, ok, math.Sqrt(1e5))
	}
	if got, ok := metg([]rung{{5, 0.7}, {50, 0.9}}); !ok || got != 5 {
		t.Errorf("smallest rung above 50%%: metg = %v %v, want 5", got, ok)
	}
	if got, ok := metg([]rung{{100, 0.4}, {200, 0.5}}); !ok || !near(got, 200) {
		t.Errorf("exactly 50%%: metg = %v %v, want 200", got, ok)
	}
	if _, ok := metg([]rung{{1, 0.1}, {10, 0.3}}); ok {
		t.Error("no rung at 50% should report not found")
	}
}
