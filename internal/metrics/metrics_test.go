package metrics

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestCounterBasic(t *testing.T) {
	var c Counter
	if got := c.Value(); got != 0 {
		t.Fatalf("zero counter = %d, want 0", got)
	}
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
}

func TestCounterIgnoresNegative(t *testing.T) {
	var c Counter
	c.Add(10)
	c.Add(-3)
	if got := c.Value(); got != 10 {
		t.Fatalf("counter = %d, want 10 (negative add must be ignored)", got)
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	const goroutines = 16
	const perG = 1000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*perG {
		t.Fatalf("counter = %d, want %d", got, goroutines*perG)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
}

func TestHistogramBasicStats(t *testing.T) {
	h := NewHistogram(0)
	for _, v := range []float64{1, 2, 3, 4, 5} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Fatalf("count = %d, want 5", got)
	}
	if got := h.Sum(); got != 15 {
		t.Fatalf("sum = %v, want 15", got)
	}
	if got := h.Mean(); got != 3 {
		t.Fatalf("mean = %v, want 3", got)
	}
	if got := h.Min(); got != 1 {
		t.Fatalf("min = %v, want 1", got)
	}
	if got := h.Max(); got != 5 {
		t.Fatalf("max = %v, want 5", got)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram(0)
	if h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 || h.Quantile(0.5) != 0 {
		t.Fatalf("empty histogram must report zeros, got mean=%v min=%v max=%v p50=%v",
			h.Mean(), h.Min(), h.Max(), h.Quantile(0.5))
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram(0)
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	cases := []struct {
		q    float64
		want float64
	}{
		{0.5, 50},
		{0.95, 95},
		{0.99, 99},
		{1.0, 100},
		{0.0, 1},
	}
	for _, tc := range cases {
		if got := h.Quantile(tc.q); got != tc.want {
			t.Errorf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
}

func TestHistogramQuantileClamping(t *testing.T) {
	h := NewHistogram(0)
	h.Observe(10)
	if got := h.Quantile(-1); got != 10 {
		t.Errorf("Quantile(-1) = %v, want 10", got)
	}
	if got := h.Quantile(2); got != 10 {
		t.Errorf("Quantile(2) = %v, want 10", got)
	}
}

func TestHistogramReservoirBound(t *testing.T) {
	h := NewHistogram(8)
	for i := 0; i < 100; i++ {
		h.Observe(float64(i))
	}
	if got := h.Count(); got != 100 {
		t.Fatalf("count = %d, want 100", got)
	}
	if len(h.samples) != 8 {
		t.Fatalf("retained samples = %d, want 8", len(h.samples))
	}
	// min/max must still reflect every observation, not only retained ones.
	if h.Min() != 0 || h.Max() != 99 {
		t.Fatalf("min/max = %v/%v, want 0/99", h.Min(), h.Max())
	}
}

// Property: mean always lies within [min, max] and sum == mean*count (within
// floating point tolerance) for any non-empty observation set.
func TestHistogramPropertyMeanBounds(t *testing.T) {
	f := func(values []float64) bool {
		// Filter non-finite inputs that quick may generate.
		clean := values[:0]
		for _, v := range values {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e12 {
				clean = append(clean, v)
			}
		}
		if len(clean) == 0 {
			return true
		}
		h := NewHistogram(0)
		for _, v := range clean {
			h.Observe(v)
		}
		mean := h.Mean()
		if mean < h.Min()-1e-6 || mean > h.Max()+1e-6 {
			return false
		}
		return math.Abs(h.Sum()-mean*float64(h.Count())) < 1e-3*math.Max(1, math.Abs(h.Sum()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTimer(t *testing.T) {
	tm := NewTimer()
	tm.ObserveDuration(10 * time.Millisecond)
	tm.ObserveDuration(time.Millisecond)
	if got := tm.h.Count(); got != 2 {
		t.Fatalf("timer observations = %d, want 2", got)
	}
	if tm.h.Max() < 10 {
		t.Fatalf("max ms = %v, want >= 10", tm.h.Max())
	}
}

func TestRegistryReusesInstances(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("rows")
	c2 := r.Counter("rows")
	if c1 != c2 {
		t.Fatal("Counter must return the same instance for the same name")
	}
	if r.Gauge("g") != r.Gauge("g") {
		t.Fatal("Gauge must return the same instance for the same name")
	}
	if r.Timer("t") != r.Timer("t") {
		t.Fatal("Timer must return the same instance for the same name")
	}
}

func TestRegistrySnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("tasks").Add(3)
	r.Gauge("inflight").Set(2)
	r.Timer("stage").ObserveDuration(2 * time.Millisecond)

	snap := r.Snapshot()
	if snap.CounterValue("tasks") != 3 {
		t.Errorf("snapshot tasks = %d, want 3", snap.CounterValue("tasks"))
	}
	if snap.Gauges["inflight"] != 2 {
		t.Errorf("snapshot inflight = %d, want 2", snap.Gauges["inflight"])
	}
	if _, ok := snap.Histograms["stage.ms"]; !ok {
		t.Error("snapshot must include timer under <name>.ms")
	}
}

func TestSnapshotDiff(t *testing.T) {
	r := NewRegistry()
	r.Counter("rows").Add(10)
	before := r.Snapshot()
	r.Counter("rows").Add(5)
	after := r.Snapshot()
	d := after.Diff(before)
	if d.CounterValue("rows") != 5 {
		t.Fatalf("diff rows = %d, want 5", d.CounterValue("rows"))
	}
}

func TestRegistryConcurrentAccess(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				r.Counter("shared").Inc()
				r.Timer("h").ObserveDuration(time.Duration(j))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != 8*500 {
		t.Fatalf("shared counter = %d, want %d", got, 8*500)
	}
}
