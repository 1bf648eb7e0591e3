// Package metrics provides lightweight, concurrency-safe instrumentation
// primitives (counters, gauges and timers) for the campaign service and the
// durable table store, whose registries /stats prints.
//
// The package is deliberately dependency-free and allocation-light: every
// primitive is backed by atomics or a small mutex-protected state.
package metrics

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing 64-bit counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one to the counter.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds delta to the counter. Negative deltas are ignored to preserve
// monotonicity.
func (c *Counter) Add(delta int64) {
	if delta < 0 {
		return
	}
	c.v.Add(delta)
}

// Value returns the current counter value.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a 64-bit value that may go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds delta (possibly negative).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current gauge value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram accumulates float64 observations and exposes count, sum, min, max,
// mean, and quantile estimates. Observations are retained (bounded by
// maxSamples with reservoir-style replacement) so quantiles are exact for
// small populations and approximate for large ones.
type Histogram struct {
	mu         sync.Mutex
	count      int64
	sum        float64
	min        float64
	max        float64
	samples    []float64
	maxSamples int
	// next index to overwrite once the reservoir is full; simple ring
	// replacement keeps the implementation deterministic for tests.
	next int
}

// NewHistogram returns a histogram retaining at most maxSamples observations
// for quantile estimation. maxSamples <= 0 selects a default of 1024.
func NewHistogram(maxSamples int) *Histogram {
	if maxSamples <= 0 {
		maxSamples = 1024
	}
	return &Histogram{
		min:        math.Inf(1),
		max:        math.Inf(-1),
		maxSamples: maxSamples,
		samples:    make([]float64, 0, 16),
	}
}

// Observe records a single observation.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	if len(h.samples) < h.maxSamples {
		h.samples = append(h.samples, v)
		return
	}
	h.samples[h.next] = v
	h.next = (h.next + 1) % h.maxSamples
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Mean returns the arithmetic mean of all observations, or 0 when empty.
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Min returns the smallest observation, or 0 when empty.
func (h *Histogram) Min() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest observation, or 0 when empty.
func (h *Histogram) Max() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.max
}

// Quantile returns the q-th quantile (0 <= q <= 1) over the retained samples.
// It returns 0 when the histogram is empty.
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.samples) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	sorted := make([]float64, len(h.samples))
	copy(sorted, h.samples)
	sort.Float64s(sorted)
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// Timer measures durations and feeds them into a histogram expressed in
// milliseconds.
type Timer struct {
	h *Histogram
}

// NewTimer returns a timer backed by a default-sized histogram.
func NewTimer() *Timer { return &Timer{h: NewHistogram(0)} }

// ObserveDuration records d.
func (t *Timer) ObserveDuration(d time.Duration) {
	t.h.Observe(float64(d) / float64(time.Millisecond))
}

// Snapshot is a point-in-time copy of a registry's contents, suitable for
// reporting and comparison between runs.
type Snapshot struct {
	Counters map[string]int64
	Gauges   map[string]int64
	// Histograms summarises each timer under "<name>.ms".
	Histograms map[string]HistogramSummary
}

// HistogramSummary is the exported summary of a histogram.
type HistogramSummary struct {
	Count int64
	Sum   float64
	Mean  float64
	Min   float64
	Max   float64
	P50   float64
	P95   float64
	P99   float64
}

// Registry is a named collection of metrics. The zero value is not usable;
// construct with NewRegistry.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	timers   map[string]*Timer
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		timers:   make(map[string]*Timer),
	}
}

// Counter returns the counter registered under name, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Timer returns the timer registered under name, creating it on first use.
func (r *Registry) Timer(name string) *Timer {
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.timers[name]
	if !ok {
		t = NewTimer()
		r.timers[name] = t
	}
	return t
}

// Snapshot copies the current value of every registered metric.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	snap := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistogramSummary, len(r.timers)),
	}
	for name, c := range r.counters {
		snap.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		snap.Gauges[name] = g.Value()
	}
	for name, t := range r.timers {
		snap.Histograms[name+".ms"] = summarize(t.h)
	}
	return snap
}

func summarize(h *Histogram) HistogramSummary {
	return HistogramSummary{
		Count: h.Count(),
		Sum:   h.Sum(),
		Mean:  h.Mean(),
		Min:   h.Min(),
		Max:   h.Max(),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
	}
}

// CounterValue is a convenience accessor returning the value of a named
// counter from a snapshot, or 0 when absent.
func (s Snapshot) CounterValue(name string) int64 { return s.Counters[name] }

// Diff returns a new snapshot holding counter deltas (s - prev). Gauges and
// histograms are taken from s unchanged.
func (s Snapshot) Diff(prev Snapshot) Snapshot {
	out := Snapshot{
		Counters:   make(map[string]int64, len(s.Counters)),
		Gauges:     s.Gauges,
		Histograms: s.Histograms,
	}
	for name, v := range s.Counters {
		out.Counters[name] = v - prev.Counters[name]
	}
	return out
}
