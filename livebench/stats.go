package main

import (
	"math"
	"sort"
)

// dist is a sorted sample of one timing or ratio, reported with its size so
// a percentile is never shown without the number of samples behind it.
type dist struct {
	sorted []float64
}

func newDist(xs []float64) dist {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return dist{sorted: s}
}

func (d dist) n() int { return len(d.sorted) }

// pct returns the q-quantile (q in [0,1]) by linear interpolation between
// closest ranks, the same rule as numpy's default. NaN for an empty sample.
func (d dist) pct(q float64) float64 {
	n := len(d.sorted)
	if n == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return d.sorted[0]
	}
	if q >= 1 {
		return d.sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := lo + 1
	if hi >= n {
		return d.sorted[n-1]
	}
	frac := pos - float64(lo)
	return d.sorted[lo] + frac*(d.sorted[hi]-d.sorted[lo])
}

func (d dist) mean() float64 {
	if len(d.sorted) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range d.sorted {
		s += x
	}
	return s / float64(len(d.sorted))
}

// beyond is how many samples lie strictly above the q-quantile: a
// percentile is trustworthy only with about ten or more samples beyond it.
func (d dist) beyond(q float64) int {
	v := d.pct(q)
	i := sort.Search(len(d.sorted), func(i int) bool { return d.sorted[i] > v })
	return len(d.sorted) - i
}

// median of a small set of values (set-up repetitions, run medians).
func median(xs []float64) float64 { return newDist(xs).pct(0.5) }

// quartiles follows Python's statistics.quantiles(values, n=4) with its
// default "exclusive" method, so the spreads printed here match the ones
// computed over the same values elsewhere.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := newDist(xs).sorted
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	m := n + 1
	at := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// rung is one step of the burst ladder: the single-thread VM time of one
// tasklet and the efficiency the stack reached running tasklets of that
// grain.
type rung struct {
	grainUS    float64
	efficiency float64
}

// metg returns Task Bench's minimum effective task granularity: the
// smallest grain at which efficiency reaches 0.5, interpolated linearly in
// log(grain) between the two rungs that bracket the crossing. Rungs must
// be in increasing grain order. ok is false when no rung reaches 0.5; when
// the smallest rung already does, its grain is returned.
func metg(rungs []rung) (us float64, ok bool) {
	const target = 0.5
	for i, r := range rungs {
		if r.efficiency < target {
			continue
		}
		if i == 0 {
			return r.grainUS, true
		}
		lo := rungs[i-1]
		if lo.efficiency >= r.efficiency {
			return r.grainUS, true
		}
		t := (target - lo.efficiency) / (r.efficiency - lo.efficiency)
		lg := math.Log(lo.grainUS) + t*(math.Log(r.grainUS)-math.Log(lo.grainUS))
		return math.Exp(lg), true
	}
	return 0, false
}
