// Package metrics provides the measurement plumbing used across the Tasklet
// middleware: counters, gauges, latency histograms with percentile queries,
// and printable series for the experiment harness.
//
// All types are safe for concurrent use unless documented otherwise, and all
// zero values are ready to use.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing counter. The zero value is ready to
// use.
type Counter struct {
	v atomic.Int64
}

// Inc adds one to the counter.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds delta to the counter. Negative deltas are ignored so that the
// counter remains monotone.
func (c *Counter) Add(delta int64) {
	if delta > 0 {
		c.v.Add(delta)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous value that can move in both directions. The zero
// value is ready to use.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the gauge by delta (may be negative).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current gauge reading.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram records observations and answers percentile queries. It keeps
// every observation (the experiment harness needs exact percentiles over at
// most a few million samples, so memory is not a concern). The zero value is
// ready to use.
type Histogram struct {
	mu     sync.Mutex
	sorted bool
	vals   []float64
	sum    float64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.vals = append(h.vals, v)
	h.sum += v
	h.sorted = false
}

// ObserveDuration records a duration sample in milliseconds.
func (h *Histogram) ObserveDuration(d time.Duration) {
	h.Observe(float64(d) / float64(time.Millisecond))
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.vals)
}

// Sum returns the sum of all samples.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Mean returns the arithmetic mean of the samples, or 0 for an empty
// histogram.
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.vals) == 0 {
		return 0
	}
	return h.sum / float64(len(h.vals))
}

// ensureSortedLocked sorts the sample slice if needed. Callers must hold mu.
func (h *Histogram) ensureSortedLocked() {
	if !h.sorted {
		sort.Float64s(h.vals)
		h.sorted = true
	}
}

// Quantile returns the q-th quantile (0 <= q <= 1) using linear
// interpolation, or 0 for an empty histogram. Out-of-range q is clamped.
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := len(h.vals)
	if n == 0 {
		return 0
	}
	h.ensureSortedLocked()
	if q <= 0 {
		return h.vals[0]
	}
	if q >= 1 {
		return h.vals[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return h.vals[lo]
	}
	frac := pos - float64(lo)
	return h.vals[lo]*(1-frac) + h.vals[hi]*frac
}

// Min returns the smallest sample, or 0 for an empty histogram.
func (h *Histogram) Min() float64 { return h.Quantile(0) }

// Max returns the largest sample, or 0 for an empty histogram.
func (h *Histogram) Max() float64 { return h.Quantile(1) }

// Stddev returns the population standard deviation of the samples.
func (h *Histogram) Stddev() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := len(h.vals)
	if n == 0 {
		return 0
	}
	mean := h.sum / float64(n)
	var ss float64
	for _, v := range h.vals {
		d := v - mean
		ss += d * d
	}
	return math.Sqrt(ss / float64(n))
}

// Reset discards all samples.
func (h *Histogram) Reset() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.vals = h.vals[:0]
	h.sum = 0
	h.sorted = true
}

// Summary is an immutable snapshot of a histogram's distribution.
type Summary struct {
	Count  int
	Mean   float64
	Min    float64
	P50    float64
	P90    float64
	P99    float64
	Max    float64
	Stddev float64
}

// Snapshot computes a Summary of the current samples.
func (h *Histogram) Snapshot() Summary {
	return Summary{
		Count:  h.Count(),
		Mean:   h.Mean(),
		Min:    h.Min(),
		P50:    h.Quantile(0.50),
		P90:    h.Quantile(0.90),
		P99:    h.Quantile(0.99),
		Max:    h.Max(),
		Stddev: h.Stddev(),
	}
}

// String renders the summary in a fixed human-readable layout.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.3f min=%.3f p50=%.3f p90=%.3f p99=%.3f max=%.3f sd=%.3f",
		s.Count, s.Mean, s.Min, s.P50, s.P90, s.P99, s.Max, s.Stddev)
}

// Series is an ordered collection of (x, y) points for one experiment curve,
// e.g. makespan versus provider count. It is not safe for concurrent use;
// experiments build series single-threaded after the measured phase.
type Series struct {
	Name   string
	XLabel string
	YLabel string
	X      []float64
	Y      []float64
}

// Append adds one point to the series.
func (s *Series) Append(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Len returns the number of points.
func (s *Series) Len() int { return len(s.X) }

// Table renders one or more series that share an x-axis as an aligned text
// table, one row per x value, one column per series. Series with differing x
// values are merged on the union of x values; missing cells render as "-".
func Table(series ...*Series) string {
	if len(series) == 0 {
		return ""
	}
	// Union of x values, sorted.
	seen := map[float64]bool{}
	var xs []float64
	for _, s := range series {
		for _, x := range s.X {
			if !seen[x] {
				seen[x] = true
				xs = append(xs, x)
			}
		}
	}
	sort.Float64s(xs)

	var b strings.Builder
	fmt.Fprintf(&b, "%-14s", series[0].XLabel)
	for _, s := range series {
		fmt.Fprintf(&b, " %16s", s.Name)
	}
	b.WriteByte('\n')
	for _, x := range xs {
		fmt.Fprintf(&b, "%-14.4g", x)
		for _, s := range series {
			y, ok := s.lookup(x)
			if ok {
				fmt.Fprintf(&b, " %16.4f", y)
			} else {
				fmt.Fprintf(&b, " %16s", "-")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV renders series sharing an x-axis as comma-separated values with a
// header row, suitable for plotting tools. Missing cells are empty.
func CSV(series ...*Series) string {
	if len(series) == 0 {
		return ""
	}
	seen := map[float64]bool{}
	var xs []float64
	for _, s := range series {
		for _, x := range s.X {
			if !seen[x] {
				seen[x] = true
				xs = append(xs, x)
			}
		}
	}
	sort.Float64s(xs)

	var b strings.Builder
	b.WriteString(csvField(series[0].XLabel))
	for _, s := range series {
		b.WriteByte(',')
		b.WriteString(csvField(s.Name))
	}
	b.WriteByte('\n')
	for _, x := range xs {
		fmt.Fprintf(&b, "%g", x)
		for _, s := range series {
			b.WriteByte(',')
			if y, ok := s.lookup(x); ok {
				fmt.Fprintf(&b, "%g", y)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// csvField quotes a field if it contains a comma or quote.
func csvField(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

func (s *Series) lookup(x float64) (float64, bool) {
	for i, sx := range s.X {
		if sx == x {
			return s.Y[i], true
		}
	}
	return 0, false
}

// Registry is a named collection of metrics, used by long-running components
// (broker, providers) to expose their internals to tests and the harness.
// The zero value is ready to use.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// Counter returns the counter with the given name, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.counters == nil {
		r.counters = map[string]*Counter{}
	}
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge with the given name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.gauges == nil {
		r.gauges = map[string]*Gauge{}
	}
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram with the given name, creating it on first
// use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.histograms == nil {
		r.histograms = map[string]*Histogram{}
	}
	h, ok := r.histograms[name]
	if !ok {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// Dump renders every metric in the registry as "name value" lines sorted by
// name, for debugging and golden tests.
func (r *Registry) Dump() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var lines []string
	for name, c := range r.counters {
		lines = append(lines, fmt.Sprintf("counter %s %d", name, c.Value()))
	}
	for name, g := range r.gauges {
		lines = append(lines, fmt.Sprintf("gauge %s %d", name, g.Value()))
	}
	for name, h := range r.histograms {
		lines = append(lines, fmt.Sprintf("histogram %s %s", name, h.Snapshot()))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}
