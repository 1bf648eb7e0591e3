package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// TestClassify walks realistic error chains — bare sentinels, wrapped job
// failures, multi-layer fmt.Errorf chains — through the taxonomy.
func TestClassify(t *testing.T) {
	planErr := errors.New("dataflow: sort: unknown column")
	cases := []struct {
		name string
		err  error
		want Class
	}{
		{"nil", nil, ClassNone},
		{"bare injected", errInjected, ClassTransient},
		{"injected wrapped once", fmt.Errorf("task boom: %w", errInjected), ClassTransient},
		{"injected under ErrTaskFailed", fmt.Errorf("%w: job j: t on n: %w", ErrTaskFailed, errInjected), ClassTransient},
		{"injected deep chain", fmt.Errorf("runner: %w", fmt.Errorf("dataflow: shuffle: %w", fmt.Errorf("%w: job: %w", ErrTaskFailed, errInjected))), ClassTransient},
		{"canceled", context.Canceled, ClassCanceled},
		{"deadline", context.DeadlineExceeded, ClassCanceled},
		{"canceled wrapped", fmt.Errorf("cluster: job j cancelled: %w", context.Canceled), ClassCanceled},
		{"deadline wrapped", fmt.Errorf("runner: prepare data: %w", context.DeadlineExceeded), ClassCanceled},
		{"injected wins over canceled", fmt.Errorf("job cancelled (%w) after %w", context.Canceled, errInjected), ClassTransient},
		{"plan error", planErr, ClassPermanent},
		{"plan error wrapped", fmt.Errorf("runner: %w", planErr), ClassPermanent},
		{"task failed without injection", fmt.Errorf("%w: job j: t on n: %w", ErrTaskFailed, planErr), ClassPermanent},
		{"panic", Recovered("boom"), ClassPermanent},
		{"panic under ErrTaskFailed", fmt.Errorf("%w: job j: t on n: %w", ErrTaskFailed, Recovered("boom")), ClassPermanent},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := Classify(tc.err); got != tc.want {
				t.Errorf("Classify(%v) = %s, want %s", tc.err, got, tc.want)
			}
			if got := Transient(tc.err); got != (tc.want == ClassTransient) {
				t.Errorf("Transient(%v) = %v", tc.err, got)
			}
			if got := Permanent(tc.err); got != (tc.want == ClassPermanent) {
				t.Errorf("Permanent(%v) = %v", tc.err, got)
			}
			if got := Canceled(tc.err); got != (tc.want == ClassCanceled) {
				t.Errorf("Canceled(%v) = %v", tc.err, got)
			}
		})
	}
}

func TestClassString(t *testing.T) {
	for class, want := range map[Class]string{
		ClassNone: "none", ClassTransient: "transient",
		ClassCanceled: "canceled", ClassPermanent: "permanent", Class(99): "unknown",
	} {
		if got := class.String(); got != want {
			t.Errorf("Class(%d).String() = %q, want %q", class, got, want)
		}
	}
}

// TestBackoffDelaySchedule pins the deterministic no-jitter schedule: base,
// 2×base, 4×base … capped at Max.
func TestBackoffDelaySchedule(t *testing.T) {
	b := Backoff{Base: 10 * time.Millisecond, Max: 45 * time.Millisecond}
	want := []time.Duration{
		0:  0, // retry 0 is not a retry
		1:  10 * time.Millisecond,
		2:  20 * time.Millisecond,
		3:  40 * time.Millisecond,
		4:  45 * time.Millisecond,
		5:  45 * time.Millisecond,
		10: 45 * time.Millisecond,
	}
	for retry, d := range want {
		if retry > 0 && d == 0 {
			continue // sparse entries of the literal
		}
		if got := b.delay(retry, newTestWorkerRNG(1)); got != d {
			t.Errorf("delay(retry=%d) = %v, want %v", retry, got, d)
		}
	}
	if got := (Backoff{}).delay(3, newTestWorkerRNG(1)); got != 0 {
		t.Errorf("zero backoff must not delay, got %v", got)
	}
	// Uncapped growth doubles indefinitely.
	if got := (Backoff{Base: time.Millisecond}).delay(4, newTestWorkerRNG(1)); got != 8*time.Millisecond {
		t.Errorf("uncapped delay(4) = %v, want 8ms", got)
	}
}

// TestBackoffJitterDeterministicAndBounded draws jittered delays from two RNGs
// with the same seed (identical sequences) and checks the spread bound.
func TestBackoffJitterDeterministicAndBounded(t *testing.T) {
	b := Backoff{Base: 10 * time.Millisecond, Max: time.Second, Jitter: 0.5}
	a, c := newTestWorkerRNG(7), newTestWorkerRNG(7)
	noJitter := Backoff{Base: b.Base, Max: b.Max}
	for retry := 1; retry <= 6; retry++ {
		da, dc := b.delay(retry, a), b.delay(retry, c)
		if da != dc {
			t.Fatalf("retry %d: same seed produced %v vs %v", retry, da, dc)
		}
		nominal := noJitter.delay(retry, nil) // jitter off: RNG untouched
		lo := time.Duration(float64(nominal) * 0.5)
		hi := time.Duration(float64(nominal) * 1.5)
		if da < lo || da > hi {
			t.Errorf("retry %d: jittered delay %v outside [%v, %v]", retry, da, lo, hi)
		}
	}
	// Jitter above 1 is clamped: the delay never goes negative.
	wild := Backoff{Base: time.Millisecond, Jitter: 40}
	for i := 0; i < 32; i++ {
		if d := wild.delay(1, a); d < 0 {
			t.Fatalf("clamped jitter produced negative delay %v", d)
		}
	}
}

// TestRunJobBackoffDelaysRetries runs a job with an aggressive failure rate
// and a measurable backoff: with backoff configured the job must take at least
// the sum of the first-retry delays its retries imply, and the retried work
// must still succeed.
func TestRunJobBackoffDelaysRetries(t *testing.T) {
	mk := func(backoff Backoff) (time.Duration, int64) {
		cfg := Uniform(1, 1, 0.6) // one slot: deterministic RNG consumption
		cfg.Seed = 11
		cfg.MaxAttempts = 10
		cfg.RetryBackoff = backoff
		cl, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tasks := make([]Task, 4)
		for i := range tasks {
			tasks[i] = Task{Name: fmt.Sprintf("t%d", i)}
		}
		start := time.Now()
		if _, err := cl.RunNamedJob(context.Background(), "job", tasks); err != nil {
			t.Fatalf("job failed under backoff: %v", err)
		}
		return time.Since(start), cl.Usage().Retries
	}
	elapsed, retries := mk(Backoff{Base: 5 * time.Millisecond, Max: 20 * time.Millisecond})
	if retries == 0 {
		t.Fatal("test needs at least one retry to be meaningful")
	}
	if min := 5 * time.Millisecond; elapsed < min {
		t.Errorf("job with %d retries finished in %v; backoff should impose ≥ %v", retries, elapsed, min)
	}
	// Identical seed without backoff retries identically (same RNG draws).
	_, retriesNoDelay := mk(Backoff{})
	if retriesNoDelay != retries {
		t.Errorf("backoff changed the retry sequence: %d vs %d retries", retriesNoDelay, retries)
	}
}

// TestRunJobBackoffHonorsCancellation cancels the context during a long
// backoff pause; the job must return promptly with a cancellation, not sleep
// out the full delay.
func TestRunJobBackoffHonorsCancellation(t *testing.T) {
	cfg := Uniform(1, 1, 0.99)
	cfg.Seed = 3
	cfg.MaxAttempts = 50
	cfg.RetryBackoff = Backoff{Base: 10 * time.Second}
	cl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = cl.RunNamedJob(ctx, "job", []Task{{Name: "t"}})
	if err == nil {
		t.Fatal("expected an error from the cancelled job")
	}
	if !Canceled(err) && !Transient(err) {
		t.Errorf("cancelled job error classifies as %s: %v", Classify(err), err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancellation took %v; the backoff pause did not honor ctx", elapsed)
	}
}

// TestCancelDuringBackoffCountsOnlyRunAttempts cancels a task during the
// backoff that follows its failed first attempt: the second attempt never
// runs, so the task reports one attempt and the cluster counts no retry.
func TestCancelDuringBackoffCountsOnlyRunAttempts(t *testing.T) {
	cfg := Uniform(1, 1, 0.999)
	cfg.Seed = 3
	cfg.MaxAttempts = 5
	cfg.RetryBackoff = Backoff{Base: 10 * time.Second}
	cl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	res, err := cl.RunNamedJob(ctx, "job", []Task{{Name: "t"}})
	if !Canceled(err) {
		t.Fatalf("job error = %v, want a cancellation", err)
	}
	if len(res) != 1 || res[0].Attempts != 1 {
		t.Fatalf("results = %+v, want one task with Attempts == 1", res)
	}
	if got := cl.Usage().Retries; got != 0 {
		t.Errorf("Retries = %d, want 0", got)
	}
}

// newTestWorkerRNG builds a seeded slot RNG for backoff tests.
func newTestWorkerRNG(seed int64) *workerRNG {
	return &workerRNG{seed: seed}
}

// TestWorkerRNGSeedsOnFirstDraw pins the lazily seeded slot generators: New
// seeds none of them, and every slot's draws, failure injection and backoff
// jitter interleaved, equal those of rand.New(rand.NewSource(Seed+slot)).
func TestWorkerRNGSeedsOnFirstDraw(t *testing.T) {
	cfg := Uniform(2, 3, 0.4)
	cfg.Seed = 17
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b := Backoff{Base: 10 * time.Millisecond, Max: time.Second, Jitter: 0.5}
	for w, sl := range c.slotList {
		if sl.rng.rng != nil {
			t.Fatalf("slot %d: New seeded a generator before any draw", w)
		}
		oracle := &workerRNG{rng: rand.New(rand.NewSource(cfg.Seed + int64(w)))}
		for retry := 1; retry <= 6; retry++ {
			want := oracle.float64() < sl.node.FailureRate
			if got := sl.injectFailure(); got != want {
				t.Fatalf("slot %d draw %d: injectFailure = %v, want %v", w, retry, got, want)
			}
			if got, want := b.delay(retry, sl.rng), b.delay(retry, oracle); got != want {
				t.Fatalf("slot %d retry %d: jittered delay %v, want %v", w, retry, got, want)
			}
		}
	}
}
