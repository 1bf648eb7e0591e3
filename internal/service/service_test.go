package service

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/deployment"
	"repro/internal/model"
	"repro/internal/procedural"
	"repro/internal/runner"
	"repro/internal/sla"
)

// fakeRunner executes campaigns according to a per-campaign script; a nil
// script entry succeeds immediately. An optional gate blocks every run until
// released so tests can fill the queue deterministically.
type fakeRunner struct {
	mu     sync.Mutex
	script map[string]func(ctx context.Context, attempt int) error
	calls  map[string]int
	ran    []string // campaign names in execution order
	gate   chan struct{}
}

func newFakeRunner() *fakeRunner {
	return &fakeRunner{
		script: map[string]func(context.Context, int) error{},
		calls:  map[string]int{},
	}
}

func (f *fakeRunner) Run(ctx context.Context, c *model.Campaign, _ core.Alternative) (*runner.Report, error) {
	if f.gate != nil {
		select {
		case <-f.gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	f.mu.Lock()
	f.calls[c.Name]++
	attempt := f.calls[c.Name]
	f.ran = append(f.ran, c.Name)
	fn := f.script[c.Name]
	f.mu.Unlock()
	if fn != nil {
		if err := fn(ctx, attempt); err != nil {
			return nil, err
		}
	}
	return &runner.Report{Campaign: c.Name}, nil
}

func (f *fakeRunner) order() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.ran...)
}

// testAlt is a minimal compiled alternative that passes Submit validation.
func testAlt(estimates sla.Measurement) core.Alternative {
	return core.Alternative{
		Composition: &procedural.Composition{},
		Plan:        &deployment.Plan{Parallelism: 1},
		Estimates:   estimates,
	}
}

// campaignWithLatency builds a campaign with an at-most latency objective in
// milliseconds; target <= 0 omits the objective.
func campaignWithLatency(name string, targetMs float64) *model.Campaign {
	c := &model.Campaign{Name: name}
	if targetMs > 0 {
		c.Objectives = []model.Objective{{
			Indicator: model.IndicatorLatency, Comparison: model.AtMost, Target: targetMs,
		}}
	}
	return c
}

// transientErr harvests a real injected-failure error chain from a cluster
// with 100% failure injection, so tests exercise the exact error shape the
// service sees in production.
func transientErr(t *testing.T) error {
	t.Helper()
	cfg := cluster.Uniform(1, 1, 0.999)
	cfg.MaxAttempts = 1
	cl, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := cl.RunNamedJob(context.Background(), "job", []cluster.Task{{Name: "t"}}); err != nil {
			if !cluster.Transient(err) {
				t.Fatalf("harvested error is not transient: %v", err)
			}
			return err
		}
	}
	t.Fatal("failure injection at 0.999 never fired")
	return nil
}

func shutdownOK(t *testing.T, s *Service) {
	t.Helper()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func TestSubmitValidation(t *testing.T) {
	s, err := New(newFakeRunner(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownOK(t, s)
	if _, err := New(nil, Config{}); !errors.Is(err, ErrBadSubmit) {
		t.Errorf("nil runner err = %v", err)
	}
	if _, err := s.Submit("", campaignWithLatency("c", 0), testAlt(nil)); !errors.Is(err, ErrBadSubmit) {
		t.Errorf("empty tenant err = %v", err)
	}
	if _, err := s.Submit("t", nil, testAlt(nil)); !errors.Is(err, ErrBadSubmit) {
		t.Errorf("nil campaign err = %v", err)
	}
	if _, err := s.Submit("t", campaignWithLatency("c", 0), core.Alternative{}); !errors.Is(err, ErrBadSubmit) {
		t.Errorf("uncompiled alternative err = %v", err)
	}
}

func TestSubmitRunsCampaign(t *testing.T) {
	run := newFakeRunner()
	s, err := New(run, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	tk, err := s.Submit("acme", campaignWithLatency("churn", 0), testAlt(nil))
	if err != nil {
		t.Fatal(err)
	}
	if err := tk.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	report, rerr := tk.Result()
	if rerr != nil || report == nil || report.Campaign != "churn" {
		t.Fatalf("result = %v, %v", report, rerr)
	}
	if tk.Status() != StatusCompleted {
		t.Errorf("status = %s, want completed", tk.Status())
	}
	shutdownOK(t, s)
	snap := s.Stats()
	if snap.CounterValue("service.admitted") != 1 || snap.CounterValue("service.completed") != 1 {
		t.Errorf("counters = %v", snap.Counters)
	}
	if snap.Histograms["service.latency.ms"].Count != 1 {
		t.Errorf("latency histogram = %+v", snap.Histograms["service.latency.ms"])
	}
}

// TestSLAOrdering blocks the single worker, queues campaigns with varied
// latency objectives, and verifies tight targets run before loose ones and
// before campaigns with no latency objective at all.
func TestSLAOrdering(t *testing.T) {
	run := newFakeRunner()
	run.gate = make(chan struct{})
	s, err := New(run, Config{Workers: 1, QueueDepth: 16})
	if err != nil {
		t.Fatal(err)
	}
	// First submission occupies the worker (blocked on the gate).
	first, err := s.Submit("acme", campaignWithLatency("warmup", 0), testAlt(nil))
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, first)

	var tickets []*Ticket
	for _, sub := range []struct {
		name   string
		target float64
	}{
		{"loose", 60_000}, {"none", 0}, {"tight", 500}, {"medium", 5_000},
	} {
		tk, err := s.Submit("acme", campaignWithLatency(sub.name, sub.target), testAlt(nil))
		if err != nil {
			t.Fatalf("submit %s: %v", sub.name, err)
		}
		tickets = append(tickets, tk)
	}
	close(run.gate)
	for _, tk := range tickets {
		if err := tk.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	shutdownOK(t, s)
	got := run.order()
	want := []string{"warmup", "tight", "medium", "loose", "none"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("execution order = %v, want %v", got, want)
	}
}

// TestSLATiebreakUsesEstimates pins the sla.Compare tiebreak: equal latency
// targets order by estimated SLA standing (feasible/higher score first).
func TestSLATiebreakUsesEstimates(t *testing.T) {
	run := newFakeRunner()
	run.gate = make(chan struct{})
	s, err := New(run, Config{Workers: 1, QueueDepth: 16})
	if err != nil {
		t.Fatal(err)
	}
	first, err := s.Submit("acme", campaignWithLatency("warmup", 0), testAlt(nil))
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, first)

	// Same latency target; the infeasible estimate (accuracy below a hard
	// floor) must run after the feasible one even though submitted first.
	mk := func(name string, accuracy float64) (*model.Campaign, core.Alternative) {
		c := campaignWithLatency(name, 1000)
		c.Objectives = append(c.Objectives, model.Objective{
			Indicator: model.IndicatorAccuracy, Comparison: model.AtLeast, Target: 0.8, Hard: true,
		})
		return c, testAlt(sla.Measurement{
			model.IndicatorLatency: 100, model.IndicatorAccuracy: accuracy,
		})
	}
	cBad, aBad := mk("estimate-bad", 0.2)
	cGood, aGood := mk("estimate-good", 0.95)
	tkBad, err := s.Submit("acme", cBad, aBad)
	if err != nil {
		t.Fatal(err)
	}
	tkGood, err := s.Submit("acme", cGood, aGood)
	if err != nil {
		t.Fatal(err)
	}
	close(run.gate)
	for _, tk := range []*Ticket{tkBad, tkGood} {
		if err := tk.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	shutdownOK(t, s)
	got := run.order()
	want := []string{"warmup", "estimate-good", "estimate-bad"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("execution order = %v, want %v", got, want)
	}
}

// waitRunning polls until the ticket has been picked up by a worker.
func waitRunning(t *testing.T, tk *Ticket) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for tk.Status() != StatusRunning {
		if time.Now().After(deadline) {
			t.Fatalf("ticket never started running (status %s)", tk.Status())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAdmissionControlOverload fills the queue behind a blocked worker: the
// next equally-urgent submission must be rejected with ErrOverloaded, and
// accounting must cover every submission.
func TestAdmissionControlOverload(t *testing.T) {
	run := newFakeRunner()
	run.gate = make(chan struct{})
	s, err := New(run, Config{Workers: 1, QueueDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	first, err := s.Submit("acme", campaignWithLatency("running", 0), testAlt(nil))
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, first)
	for i := 0; i < 2; i++ {
		if _, err := s.Submit("acme", campaignWithLatency(fmt.Sprintf("q%d", i), 0), testAlt(nil)); err != nil {
			t.Fatalf("queued submit %d: %v", i, err)
		}
	}
	_, err = s.Submit("acme", campaignWithLatency("overflow", 0), testAlt(nil))
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("overflow err = %v, want ErrOverloaded", err)
	}
	close(run.gate)
	shutdownOK(t, s)
	snap := s.Stats()
	if snap.CounterValue("service.rejected.overloaded") != 1 {
		t.Errorf("rejected.overloaded = %d, want 1", snap.CounterValue("service.rejected.overloaded"))
	}
	if sub, acc := snap.CounterValue("service.submitted"),
		snap.CounterValue("service.admitted")+snap.CounterValue("service.rejected"); sub != acc {
		t.Errorf("accounting: submitted %d != admitted+rejected %d", sub, acc)
	}
}

// TestShedDisplacement fills the queue with loose-SLA work; an urgent
// submission must displace the least urgent queued ticket, which completes
// with ErrShed.
func TestShedDisplacement(t *testing.T) {
	run := newFakeRunner()
	run.gate = make(chan struct{})
	s, err := New(run, Config{Workers: 1, QueueDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	first, err := s.Submit("acme", campaignWithLatency("running", 0), testAlt(nil))
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, first)
	loose, err := s.Submit("acme", campaignWithLatency("loose", 60_000), testAlt(nil))
	if err != nil {
		t.Fatal(err)
	}
	unbounded, err := s.Submit("acme", campaignWithLatency("unbounded", 0), testAlt(nil))
	if err != nil {
		t.Fatal(err)
	}
	tight, err := s.Submit("acme", campaignWithLatency("tight", 500), testAlt(nil))
	if err != nil {
		t.Fatalf("urgent submission must displace queued work, got %v", err)
	}
	// The victim is the least urgent queued ticket: the one with no latency
	// objective.
	if err := unbounded.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if unbounded.Status() != StatusShed {
		t.Errorf("victim status = %s, want shed", unbounded.Status())
	}
	if _, serr := unbounded.Result(); !errors.Is(serr, ErrShed) {
		t.Errorf("victim err = %v, want ErrShed", serr)
	}
	close(run.gate)
	for _, tk := range []*Ticket{loose, tight} {
		if err := tk.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		if tk.Status() != StatusCompleted {
			t.Errorf("%s status = %s, want completed", tk.Campaign.Name, tk.Status())
		}
	}
	shutdownOK(t, s)
	if shed := s.Stats().CounterValue("service.shed"); shed != 1 {
		t.Errorf("service.shed = %d, want 1", shed)
	}
}

// TestTenantRateLimiting exhausts a tenant's burst and checks the typed
// rejection, refill behaviour, and isolation between tenants.
func TestTenantRateLimiting(t *testing.T) {
	run := newFakeRunner()
	run.gate = make(chan struct{})
	s, err := New(run, Config{
		Workers: 1, QueueDepth: 16,
		Tenants: map[string]TenantConfig{"capped": {Burst: 2, RefillPerSec: 1000}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var tickets []*Ticket
	for i := 0; i < 2; i++ {
		tk, err := s.Submit("capped", campaignWithLatency(fmt.Sprintf("c%d", i), 0), testAlt(nil))
		if err != nil {
			t.Fatalf("submit %d within burst: %v", i, err)
		}
		tickets = append(tickets, tk)
	}
	if _, err := s.Submit("capped", campaignWithLatency("over", 0), testAlt(nil)); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("burst-exhausted err = %v, want ErrRateLimited", err)
	}
	// Other tenants are unaffected.
	tk, err := s.Submit("other", campaignWithLatency("free", 0), testAlt(nil))
	if err != nil {
		t.Fatalf("uncapped tenant: %v", err)
	}
	tickets = append(tickets, tk)
	// The bucket refills at 1000/s; within a few ms the tenant is admitted
	// again.
	refillDeadline := time.Now().Add(5 * time.Second)
	for {
		tk, err = s.Submit("capped", campaignWithLatency("refilled", 0), testAlt(nil))
		if err == nil {
			tickets = append(tickets, tk)
			break
		}
		if !errors.Is(err, ErrRateLimited) {
			t.Fatal(err)
		}
		if time.Now().After(refillDeadline) {
			t.Fatal("bucket never refilled")
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(run.gate)
	for _, tk := range tickets {
		if err := tk.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	shutdownOK(t, s)
	if n := s.Stats().CounterValue("service.rejected.ratelimited"); n < 1 {
		t.Errorf("rejected.ratelimited = %d, want >= 1", n)
	}
}

// TestLimiterRefill covers the per-tenant token bucket deterministically by
// driving time explicitly.
func TestLimiterRefill(t *testing.T) {
	base := time.Unix(1000, 0)
	b := newBucket(TenantConfig{Burst: 2, RefillPerSec: 10}, base)
	if !b.allow(base) || !b.allow(base) {
		t.Fatal("burst of 2 must admit twice")
	}
	if b.allow(base) {
		t.Fatal("third immediate submission must be limited")
	}
	// 100ms refills one token at 10/s.
	if !b.allow(base.Add(100 * time.Millisecond)) {
		t.Fatal("refilled token must admit")
	}
	if b.allow(base.Add(100 * time.Millisecond)) {
		t.Fatal("only one token refilled")
	}
	// Refill caps at the burst.
	if !b.allow(base.Add(time.Hour)) || !b.allow(base.Add(time.Hour)) {
		t.Fatal("bucket must cap at burst, not accumulate an hour of tokens")
	}
	if b.allow(base.Add(time.Hour)) {
		t.Fatal("burst cap exceeded")
	}
	vip := newBucket(TenantConfig{}, base) // unlimited
	for i := 0; i < 100; i++ {
		if !vip.allow(base) {
			t.Fatal("unlimited tenant must always be admitted")
		}
	}
}

// TestDeadlinePropagation checks that the campaign's latency objective
// becomes a context deadline threaded into the runner, and that a run
// overshooting it fails with a canceled-class error.
func TestDeadlinePropagation(t *testing.T) {
	run := newFakeRunner()
	sawDeadline := make(chan time.Duration, 1)
	run.script["deadlined"] = func(ctx context.Context, _ int) error {
		dl, ok := ctx.Deadline()
		if !ok {
			sawDeadline <- -1
		} else {
			sawDeadline <- time.Until(dl)
		}
		<-ctx.Done() // overshoot the budget
		return ctx.Err()
	}
	run.script["unbounded"] = func(ctx context.Context, _ int) error {
		if _, ok := ctx.Deadline(); ok {
			return errors.New("campaign without latency objective must not get a deadline")
		}
		return nil
	}
	s, err := New(run, Config{Workers: 1, MaxRetries: 0, DeadlineSlack: 2, MinDeadline: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	// 40ms target × slack 2 = 80ms deadline.
	tk, err := s.Submit("acme", campaignWithLatency("deadlined", 40), testAlt(nil))
	if err != nil {
		t.Fatal(err)
	}
	if err := tk.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if tk.Status() != StatusFailed {
		t.Fatalf("status = %s, want failed", tk.Status())
	}
	if _, rerr := tk.Result(); !cluster.Canceled(rerr) {
		t.Errorf("deadline overshoot err class = %s (%v), want canceled", cluster.Classify(rerr), rerr)
	}
	if d := <-sawDeadline; d <= 0 || d > 80*time.Millisecond {
		t.Errorf("runner saw deadline %v, want (0, 80ms]", d)
	}
	tk2, err := s.Submit("acme", campaignWithLatency("unbounded", 0), testAlt(nil))
	if err != nil {
		t.Fatal(err)
	}
	if err := tk2.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if tk2.Status() != StatusCompleted {
		rep, rerr := tk2.Result()
		t.Errorf("unbounded campaign = %s (%v %v), want completed", tk2.Status(), rep, rerr)
	}
	shutdownOK(t, s)
}

// TestRetryTransientThenSucceed scripts two transient failures before
// success: the ticket completes, attempts reads 3, and the retry counter
// matches.
func TestRetryTransientThenSucceed(t *testing.T) {
	terr := transientErr(t)
	run := newFakeRunner()
	run.script["flaky"] = func(_ context.Context, attempt int) error {
		if attempt <= 2 {
			return terr
		}
		return nil
	}
	s, err := New(run, Config{Workers: 1, MaxRetries: 3,
		RetryBackoff: cluster.Backoff{Base: time.Millisecond, Max: 4 * time.Millisecond, Jitter: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	tk, err := s.Submit("acme", campaignWithLatency("flaky", 0), testAlt(nil))
	if err != nil {
		t.Fatal(err)
	}
	if err := tk.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if tk.Status() != StatusCompleted {
		_, rerr := tk.Result()
		t.Fatalf("status = %s (%v), want completed", tk.Status(), rerr)
	}
	if tk.Attempts() != 3 {
		t.Errorf("attempts = %d, want 3", tk.Attempts())
	}
	shutdownOK(t, s)
	if n := s.Stats().CounterValue("service.retries"); n != 2 {
		t.Errorf("service.retries = %d, want 2", n)
	}
}

// TestRetryExhaustion keeps failing transiently: the ticket fails after
// 1 + MaxRetries attempts with the transient error surfaced.
func TestRetryExhaustion(t *testing.T) {
	terr := transientErr(t)
	run := newFakeRunner()
	run.script["doomed"] = func(_ context.Context, _ int) error { return terr }
	s, err := New(run, Config{Workers: 1, MaxRetries: 2,
		RetryBackoff: cluster.Backoff{Base: time.Microsecond}})
	if err != nil {
		t.Fatal(err)
	}
	tk, err := s.Submit("acme", campaignWithLatency("doomed", 0), testAlt(nil))
	if err != nil {
		t.Fatal(err)
	}
	if err := tk.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if tk.Status() != StatusFailed || tk.Attempts() != 3 {
		t.Errorf("status = %s attempts = %d, want failed after 3", tk.Status(), tk.Attempts())
	}
	if _, rerr := tk.Result(); !cluster.Transient(rerr) {
		t.Errorf("surfaced err = %v, want the transient chain", rerr)
	}
	shutdownOK(t, s)
	snap := s.Stats()
	if n := snap.CounterValue("service.failed.transient"); n != 1 {
		t.Errorf("service.failed.transient = %d, want 1", n)
	}
}

// TestPermanentErrorFailsFast: plan errors must not burn the retry budget.
func TestPermanentErrorFailsFast(t *testing.T) {
	perm := fmt.Errorf("wrap: %w", runner.ErrBadRun)
	run := newFakeRunner()
	run.script["broken"] = func(_ context.Context, _ int) error { return perm }
	s, err := New(run, Config{Workers: 1, MaxRetries: 5})
	if err != nil {
		t.Fatal(err)
	}
	tk, err := s.Submit("acme", campaignWithLatency("broken", 0), testAlt(nil))
	if err != nil {
		t.Fatal(err)
	}
	if err := tk.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if tk.Status() != StatusFailed || tk.Attempts() != 1 {
		t.Errorf("status = %s attempts = %d, want fail-fast after 1", tk.Status(), tk.Attempts())
	}
	if _, rerr := tk.Result(); !errors.Is(rerr, runner.ErrBadRun) {
		t.Errorf("surfaced err = %v, want the permanent chain", rerr)
	}
	shutdownOK(t, s)
	if n := s.Stats().CounterValue("service.retries"); n != 0 {
		t.Errorf("service.retries = %d, want 0 for a permanent error", n)
	}
}

// TestRunPanicFailsOneTicket checks that a runner panic fails its ticket
// with a permanent ErrTaskPanicked error and no retry, that the next ticket on
// the same service completes, and that no goroutine outlives Shutdown.
func TestRunPanicFailsOneTicket(t *testing.T) {
	base := runtime.NumGoroutine()
	run := newFakeRunner()
	run.script["panics"] = func(context.Context, int) error { panic("analytics defect") }
	s, err := New(run, Config{Workers: 1, MaxRetries: 5})
	if err != nil {
		t.Fatal(err)
	}
	bad, err := s.Submit("acme", campaignWithLatency("panics", 0), testAlt(nil))
	if err != nil {
		t.Fatal(err)
	}
	if err := bad.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	_, rerr := bad.Result()
	if bad.Status() != StatusFailed || bad.Attempts() != 1 {
		t.Errorf("status = %s attempts = %d, want failed after 1", bad.Status(), bad.Attempts())
	}
	if !errors.Is(rerr, cluster.ErrTaskPanicked) || !strings.Contains(rerr.Error(), "analytics defect") {
		t.Errorf("surfaced err = %v, want ErrTaskPanicked with the panic value", rerr)
	}

	good, err := s.Submit("acme", campaignWithLatency("fine", 0), testAlt(nil))
	if err != nil {
		t.Fatal(err)
	}
	if err := good.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if rep, err := good.Result(); good.Status() != StatusCompleted || err != nil || rep.Campaign != "fine" {
		t.Errorf("next ticket: status = %s report = %+v err = %v, want completed", good.Status(), rep, err)
	}
	shutdownOK(t, s)
	snap := s.Stats()
	if n := snap.CounterValue("service.failed.permanent"); n != 1 {
		t.Errorf("service.failed.permanent = %d, want 1", n)
	}
	if n := snap.CounterValue("service.retries"); n != 0 {
		t.Errorf("service.retries = %d, want 0 for a panic", n)
	}

	// Shutdown waits for the workers, so the count is back at the baseline
	// once it returns; the loop only absorbs runtime goroutines that a
	// loaded machine schedules late.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("goroutines = %d after Shutdown, baseline %d", n, base)
	}
}

// TestShutdownDrains: queued work completes during drain, later submissions
// are rejected with ErrDraining then ErrClosed, and Shutdown is idempotent.
func TestShutdownDrains(t *testing.T) {
	run := newFakeRunner()
	run.gate = make(chan struct{})
	s, err := New(run, Config{Workers: 1, QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	var tickets []*Ticket
	for i := 0; i < 3; i++ {
		tk, err := s.Submit("acme", campaignWithLatency(fmt.Sprintf("c%d", i), 0), testAlt(nil))
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	shutdownErr := make(chan error, 1)
	go func() { shutdownErr <- s.Shutdown(context.Background()) }()

	// Wait for the drain state to become observable, then check rejection.
	// Submissions racing ahead of the Shutdown goroutine's state flip may
	// still be admitted; they simply join the drained queue.
	deadline := time.Now().Add(5 * time.Second)
	for {
		tk, err := s.Submit("acme", campaignWithLatency("late", 0), testAlt(nil))
		if errors.Is(err, ErrDraining) || errors.Is(err, ErrClosed) {
			break
		}
		if err == nil {
			tickets = append(tickets, tk)
		}
		if time.Now().After(deadline) {
			t.Fatalf("drain never became observable: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	close(run.gate)
	if err := <-shutdownErr; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	for _, tk := range tickets {
		if tk.Status() != StatusCompleted {
			t.Errorf("%s = %s, want completed (drain must finish queued work)", tk.Campaign.Name, tk.Status())
		}
	}
	if _, err := s.Submit("acme", campaignWithLatency("postclose", 0), testAlt(nil)); !errors.Is(err, ErrClosed) {
		t.Errorf("post-close err = %v, want ErrClosed", err)
	}
	shutdownOK(t, s) // idempotent
}

// TestShutdownExpiredContextSheds: when the drain context expires, queued
// tickets are shed and in-flight runs are cancelled; every ticket still
// reaches a terminal state.
func TestShutdownExpiredContextSheds(t *testing.T) {
	run := newFakeRunner()
	run.script["stuck"] = func(ctx context.Context, _ int) error {
		<-ctx.Done()
		return ctx.Err()
	}
	s, err := New(run, Config{Workers: 1, QueueDepth: 8, MaxRetries: 0})
	if err != nil {
		t.Fatal(err)
	}
	stuck, err := s.Submit("acme", campaignWithLatency("stuck", 0), testAlt(nil))
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, stuck)
	queued, err := s.Submit("acme", campaignWithLatency("queued", 0), testAlt(nil))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired drain err = %v, want DeadlineExceeded", err)
	}
	if queued.Status() != StatusShed {
		t.Errorf("queued ticket = %s, want shed", queued.Status())
	}
	if stuck.Status() != StatusFailed {
		t.Errorf("in-flight ticket = %s, want failed (cancelled)", stuck.Status())
	}
	if _, rerr := stuck.Result(); !cluster.Canceled(rerr) {
		t.Errorf("in-flight err = %v, want canceled class", rerr)
	}
}

func TestLatencyTargetExtraction(t *testing.T) {
	c := campaignWithLatency("c", 0)
	if got := latencyTargetMs(c); !math.IsInf(got, 1) {
		t.Errorf("no objective target = %v, want +Inf", got)
	}
	c.Objectives = []model.Objective{
		{Indicator: model.IndicatorLatency, Comparison: model.AtMost, Target: 9000},
		{Indicator: model.IndicatorLatency, Comparison: model.AtMost, Target: 4000},
		{Indicator: model.IndicatorLatency, Comparison: model.AtLeast, Target: 1}, // not an upper bound
		{Indicator: model.IndicatorAccuracy, Comparison: model.AtMost, Target: 2}, // wrong indicator
	}
	if got := latencyTargetMs(c); got != 4000 {
		t.Errorf("target = %v, want the tightest at-most bound 4000", got)
	}
}
