// Package service is the multi-tenant analytics service runtime: the piece
// that turns the one-shot campaign runner into Big Data Analytics-as-a-
// Service. Named tenants submit compiled campaigns concurrently; the service
// applies admission control (bounded queue, typed ErrOverloaded), per-tenant
// token-bucket rate limiting, SLA-aware scheduling (latency-tight campaigns
// first), per-request deadlines derived from the campaign's latency
// objective, campaign-level retry with capped exponential backoff for
// transient cluster faults, and graceful degradation — under pressure the
// lowest-SLA-standing queued work is shed with ErrShed, and shutdown drains
// in-flight work before releasing resources.
package service

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/runner"
	"repro/internal/sla"
)

// Typed admission and lifecycle errors.
var (
	// ErrOverloaded rejects a submission because the queue is full and the
	// submission is not urgent enough to displace queued work.
	ErrOverloaded = errors.New("service: overloaded: submission queue full")
	// ErrRateLimited rejects a submission because the tenant's token bucket
	// is empty.
	ErrRateLimited = errors.New("service: tenant rate limited")
	// ErrShed completes a queued ticket that was evicted to make room for
	// more urgent work, or abandoned by an expiring drain.
	ErrShed = errors.New("service: shed under pressure")
	// ErrDraining rejects submissions arriving after Shutdown began.
	ErrDraining = errors.New("service: draining: not admitting")
	// ErrClosed rejects submissions to a fully shut-down service.
	ErrClosed = errors.New("service: closed")
	// ErrBadSubmit rejects malformed submissions.
	ErrBadSubmit = errors.New("service: bad submission")
)

// Status is the terminal state of an admitted submission.
type Status int

const (
	// StatusQueued: admitted, waiting for a worker.
	StatusQueued Status = iota
	// StatusRunning: picked up by a worker.
	StatusRunning
	// StatusCompleted: the campaign ran and produced a report.
	StatusCompleted
	// StatusShed: evicted under pressure or by an expiring drain (ErrShed).
	StatusShed
	// StatusFailed: the campaign failed permanently, exhausted its retry
	// budget, or blew its deadline.
	StatusFailed
)

// String names the status.
func (s Status) String() string {
	switch s {
	case StatusQueued:
		return "queued"
	case StatusRunning:
		return "running"
	case StatusCompleted:
		return "completed"
	case StatusShed:
		return "shed"
	case StatusFailed:
		return "failed"
	default:
		return "unknown"
	}
}

// Runner abstracts runner.Runner so tests can substitute fakes. The real
// runner satisfies it.
type Runner interface {
	Run(ctx context.Context, campaign *model.Campaign, alt core.Alternative) (*runner.Report, error)
}

// Config tunes the service runtime. Zero values select the documented
// defaults.
type Config struct {
	// QueueDepth bounds the submission queue; a full queue rejects with
	// ErrOverloaded (or sheds less urgent queued work). Default 16.
	QueueDepth int
	// Workers is the number of concurrent campaign executions. Default 2.
	Workers int
	// DefaultTenant is the rate-limit config for tenants absent from
	// Tenants. The zero value disables limiting.
	DefaultTenant TenantConfig
	// Tenants overrides the rate-limit config per tenant name.
	Tenants map[string]TenantConfig
	// DeadlineSlack scales a campaign's SLA latency target into its
	// execution deadline (a run is allowed Slack × target before it is cut
	// off). Default 2.
	DeadlineSlack float64
	// MinDeadline floors the derived deadline so tight targets are not
	// impossible to meet on a cold start. Default 50ms.
	MinDeadline time.Duration
	// DefaultDeadline bounds campaigns with no latency objective; <= 0
	// leaves them unbounded.
	DefaultDeadline time.Duration
	// MaxRetries is the campaign-level retry budget for transient failures.
	// Default 2.
	MaxRetries int
	// RetryBackoff shapes the pause between campaign-level retries. A zero
	// value retries after 1ms doubling up to 50ms.
	RetryBackoff cluster.Backoff
	// Seed drives the retry jitter; fixed seeds make schedules
	// reproducible. Default 1.
	Seed int64
}

func (cfg Config) withDefaults() Config {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 16
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.DeadlineSlack <= 0 {
		cfg.DeadlineSlack = 2
	}
	if cfg.MinDeadline <= 0 {
		cfg.MinDeadline = 50 * time.Millisecond
	}
	if cfg.MaxRetries < 0 {
		cfg.MaxRetries = 0
	}
	if cfg.RetryBackoff.Base <= 0 {
		cfg.RetryBackoff = cluster.Backoff{Base: time.Millisecond, Max: 50 * time.Millisecond}
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	return cfg
}

// Ticket tracks one admitted submission from queue to terminal state.
type Ticket struct {
	// Tenant and Campaign identify the submission.
	Tenant   string
	Campaign *model.Campaign
	Alt      core.Alternative

	seq           uint64
	pos           int // heap index; -1 when not queued
	latencyTarget float64
	estimate      sla.Evaluation
	submittedAt   time.Time

	mu       sync.Mutex
	status   Status
	report   *runner.Report
	err      error
	attempts int
	done     chan struct{}
}

// Wait blocks until the ticket reaches a terminal state or ctx expires.
func (t *Ticket) Wait(ctx context.Context) error {
	select {
	case <-t.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Done exposes the completion channel for select-based callers.
func (t *Ticket) Done() <-chan struct{} { return t.done }

// Status returns the ticket's current state.
func (t *Ticket) Status() Status {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.status
}

// Result returns the report and error of a terminal ticket. Before the
// ticket completes it returns (nil, nil) with the status still in flight.
func (t *Ticket) Result() (*runner.Report, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.report, t.err
}

// Attempts returns how many times the campaign was executed.
func (t *Ticket) Attempts() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.attempts
}

func (t *Ticket) setRunning() {
	t.mu.Lock()
	t.status = StatusRunning
	t.mu.Unlock()
}

// finish moves the ticket to a terminal state exactly once.
func (t *Ticket) finish(status Status, report *runner.Report, err error) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.status == StatusCompleted || t.status == StatusShed || t.status == StatusFailed {
		return false
	}
	t.status = status
	t.report = report
	t.err = err
	close(t.done)
	return true
}

// service lifecycle states.
const (
	stateRunning = iota
	stateDraining
	stateClosed
)

// Service is the long-running multi-tenant analytics service.
type Service struct {
	cfg Config
	run Runner
	reg *metrics.Registry

	mu       sync.Mutex
	cond     *sync.Cond
	queue    ticketQueue
	buckets  map[string]*bucket
	seq      uint64
	state    int
	inflight int
	rng      *rand.Rand

	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup
}

// New starts a service executing campaigns on run with cfg.Workers workers.
func New(run Runner, cfg Config) (*Service, error) {
	if run == nil {
		return nil, fmt.Errorf("%w: nil runner", ErrBadSubmit)
	}
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Service{
		cfg:        cfg,
		run:        run,
		reg:        metrics.NewRegistry(),
		buckets:    map[string]*bucket{},
		rng:        rand.New(rand.NewSource(cfg.Seed)),
		baseCtx:    ctx,
		baseCancel: cancel,
	}
	s.cond = sync.NewCond(&s.mu)
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s, nil
}

// Stats snapshots the service counters, gauges and latency histograms.
func (s *Service) Stats() metrics.Snapshot { return s.reg.Snapshot() }

// Submit offers a compiled campaign for execution on behalf of tenant. It
// returns synchronously: either an admission error (ErrOverloaded,
// ErrRateLimited, ErrDraining, ErrClosed) or a Ticket that is guaranteed to
// reach exactly one terminal state (completed, shed, or failed).
func (s *Service) Submit(tenant string, campaign *model.Campaign, alt core.Alternative) (*Ticket, error) {
	if tenant == "" || campaign == nil || alt.Composition == nil || alt.Plan == nil {
		return nil, fmt.Errorf("%w: tenant, campaign and compiled alternative are required", ErrBadSubmit)
	}
	now := time.Now()

	s.mu.Lock()
	defer s.mu.Unlock()
	s.reg.Counter("service.submitted").Inc()
	switch s.state {
	case stateDraining:
		s.reg.Counter("service.rejected").Inc()
		return nil, ErrDraining
	case stateClosed:
		s.reg.Counter("service.rejected").Inc()
		return nil, ErrClosed
	}
	if !s.tenantBucket(tenant, now).allow(now) {
		s.reg.Counter("service.rejected").Inc()
		s.reg.Counter("service.rejected.ratelimited").Inc()
		return nil, fmt.Errorf("%w: tenant %q", ErrRateLimited, tenant)
	}

	s.seq++
	t := &Ticket{
		Tenant:        tenant,
		Campaign:      campaign,
		Alt:           alt,
		seq:           s.seq,
		pos:           -1,
		latencyTarget: latencyTargetMs(campaign),
		estimate:      sla.Evaluate(campaign.Objectives, alt.Estimates),
		submittedAt:   now,
		done:          make(chan struct{}),
	}

	if len(s.queue) >= s.cfg.QueueDepth {
		// Graceful degradation: a more urgent submission displaces the least
		// urgent queued ticket, which is shed with ErrShed; otherwise the
		// newcomer is rejected with ErrOverloaded.
		victim := s.queue.leastUrgent()
		if victim == nil || !moreUrgent(t, victim) {
			s.reg.Counter("service.rejected").Inc()
			s.reg.Counter("service.rejected.overloaded").Inc()
			return nil, fmt.Errorf("%w: depth %d", ErrOverloaded, s.cfg.QueueDepth)
		}
		s.queue.remove(victim)
		s.shedLocked(victim)
	}
	s.queue.push(t)
	s.reg.Counter("service.admitted").Inc()
	s.reg.Gauge("service.queue_depth").Set(int64(len(s.queue)))
	s.cond.Signal()
	return t, nil
}

// tenantBucket returns the tenant's bucket, building it on first contact.
// Callers hold s.mu.
func (s *Service) tenantBucket(tenant string, now time.Time) *bucket {
	b, ok := s.buckets[tenant]
	if !ok {
		cfg, ok := s.cfg.Tenants[tenant]
		if !ok {
			cfg = s.cfg.DefaultTenant
		}
		b = newBucket(cfg, now)
		s.buckets[tenant] = b
	}
	return b
}

// shedLocked completes a ticket with ErrShed. Callers hold s.mu.
func (s *Service) shedLocked(t *Ticket) {
	if t.finish(StatusShed, nil, fmt.Errorf("%w: tenant %q campaign %q", ErrShed, t.Tenant, t.Campaign.Name)) {
		s.reg.Counter("service.shed").Inc()
	}
}

// worker pulls the most urgent ticket and executes it with deadline + retry.
func (s *Service) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && s.state == stateRunning {
			s.cond.Wait()
		}
		t := s.queue.popUrgent()
		if t == nil {
			// Empty queue and the service is draining or closed: exit.
			s.mu.Unlock()
			return
		}
		s.inflight++
		s.reg.Gauge("service.queue_depth").Set(int64(len(s.queue)))
		s.reg.Gauge("service.inflight").Set(int64(s.inflight))
		s.mu.Unlock()

		s.execute(t)

		s.mu.Lock()
		s.inflight--
		s.reg.Gauge("service.inflight").Set(int64(s.inflight))
		if s.state != stateRunning && s.inflight == 0 && len(s.queue) == 0 {
			s.cond.Broadcast()
		}
		s.mu.Unlock()
	}
}

// deadlineFor derives the per-request execution deadline from the campaign's
// tightest latency objective; 0 means unbounded.
func (s *Service) deadlineFor(t *Ticket) time.Duration {
	if math.IsInf(t.latencyTarget, 1) {
		return s.cfg.DefaultDeadline
	}
	d := time.Duration(t.latencyTarget * s.cfg.DeadlineSlack * float64(time.Millisecond))
	if d < s.cfg.MinDeadline {
		d = s.cfg.MinDeadline
	}
	return d
}

// retryDelay is the capped exponential backoff with jitter between campaign
// attempts, deterministic under Config.Seed.
func (s *Service) retryDelay(retry int) time.Duration {
	b := s.cfg.RetryBackoff
	if b.Base <= 0 || retry < 1 {
		return 0
	}
	d := b.Base
	for i := 1; i < retry; i++ {
		d *= 2
		if b.Max > 0 && d >= b.Max {
			d = b.Max
			break
		}
	}
	if b.Max > 0 && d > b.Max {
		d = b.Max
	}
	if j := b.Jitter; j > 0 {
		if j > 1 {
			j = 1
		}
		s.mu.Lock()
		f := s.rng.Float64()
		s.mu.Unlock()
		d = time.Duration(float64(d) * (1 - j + 2*j*f))
	}
	return d
}

// execute runs the ticket's campaign under its deadline, retrying transient
// faults with backoff and failing fast on permanent errors.
func (s *Service) execute(t *Ticket) {
	t.setRunning()
	s.reg.Timer("service.queue_wait").ObserveDuration(time.Since(t.submittedAt))
	deadline := s.deadlineFor(t)

	var lastErr error
	for attempt := 1; attempt <= 1+s.cfg.MaxRetries; attempt++ {
		ctx := s.baseCtx
		cancel := context.CancelFunc(func() {})
		if deadline > 0 {
			ctx, cancel = context.WithTimeout(s.baseCtx, deadline)
		}
		start := time.Now()
		report, err := s.runOnce(ctx, t)
		cancel()
		t.mu.Lock()
		t.attempts = attempt
		t.mu.Unlock()
		s.reg.Timer("service.run").ObserveDuration(time.Since(start))

		if err == nil {
			s.reg.Counter("service.completed").Inc()
			s.reg.Timer("service.latency").ObserveDuration(time.Since(t.submittedAt))
			t.finish(StatusCompleted, report, nil)
			return
		}
		lastErr = err
		if s.baseCtx.Err() != nil {
			// The service is being torn down: stop retrying immediately.
			break
		}
		if !cluster.Transient(err) || attempt > s.cfg.MaxRetries {
			break
		}
		s.reg.Counter("service.retries").Inc()
		if d := s.retryDelay(attempt); d > 0 {
			select {
			case <-time.After(d):
			case <-s.baseCtx.Done():
			}
		}
	}
	s.reg.Counter("service.failed").Inc()
	s.reg.Counter("service.failed." + cluster.Classify(lastErr).String()).Inc()
	s.reg.Timer("service.latency").ObserveDuration(time.Since(t.submittedAt))
	t.finish(StatusFailed, nil, lastErr)
}

// runOnce makes one attempt at the ticket's campaign. A panic in the runner is
// recovered into a permanent ErrTaskPanicked error, so it fails this ticket
// and not the service.
func (s *Service) runOnce(ctx context.Context, t *Ticket) (report *runner.Report, err error) {
	defer func() {
		if r := recover(); r != nil {
			report, err = nil, cluster.Recovered(r)
		}
	}()
	return s.run.Run(ctx, t.Campaign, t.Alt)
}

// Shutdown stops admitting, drains queued and in-flight campaigns, and
// releases the workers. If ctx expires first the remaining queued tickets are
// shed and in-flight runs are cancelled (their spill stores are released by
// the engine's error paths); Shutdown still waits for the workers to return.
func (s *Service) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.state == stateClosed {
		s.mu.Unlock()
		return nil
	}
	s.state = stateDraining
	s.cond.Broadcast()
	s.mu.Unlock()

	// Wake the waiters if the drain deadline expires.
	drainDone := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			s.mu.Lock()
			for {
				t := s.queue.popUrgent()
				if t == nil {
					break
				}
				s.shedLocked(t)
			}
			s.reg.Gauge("service.queue_depth").Set(0)
			s.mu.Unlock()
			s.baseCancel() // abort in-flight runs
		case <-drainDone:
		}
	}()

	s.mu.Lock()
	for len(s.queue) > 0 || s.inflight > 0 {
		s.cond.Wait()
	}
	s.state = stateClosed
	s.cond.Broadcast()
	s.mu.Unlock()
	close(drainDone)

	s.wg.Wait()
	s.baseCancel()
	return ctx.Err()
}
