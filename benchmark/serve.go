package main

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"time"

	toreador "repro"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/runner"
	"repro/internal/service"
	"repro/internal/workload"
)

// serveConfig is `toreadorctl serve` at its defaults.
var serveConfig = toreador.ServiceConfig{QueueDepth: 16, Workers: 2, MaxRetries: 2}

// serveClosed does in process what the /submit handler does: decode the
// campaign JSON, compile, submit under admission control, wait for the ticket.
// nproc tenants each rotate through the five builtin challenges and wait for
// every reply before sending the next.
type serveClosed struct {
	env
	platform *toreador.Platform
	service  *toreador.Service
	bodies   [][]byte // the five campaigns as a client would post them
	base     metrics.Snapshot

	log   campaignLog
	mu    sync.Mutex
	waits []time.Duration // per op: submit→reply minus the run's own wall time
}

func setUpServeClosed(ctx context.Context, e env) (*instance, error) {
	p, err := toreador.New(toreador.Config{Seed: fixedSeed})
	if err != nil {
		return nil, err
	}
	sizing := workload.DefaultSizing()
	if e.toy {
		sizing = campaignSizing(e)
	}
	hasher := newCorpusHasher()
	if _, err := registerScenarios(p, sizing, e.seed, hasher); err != nil {
		return nil, err
	}
	svc, err := p.NewService(serveConfig)
	if err != nil {
		return nil, err
	}
	w := &serveClosed{env: e, platform: p, service: svc}
	for _, ch := range toreador.BuiltinChallenges() {
		var buf bytes.Buffer
		if err := ch.Campaign.EncodeJSON(&buf); err != nil {
			return nil, err
		}
		w.bodies = append(w.bodies, buf.Bytes())
	}
	// Warm-up: every challenge once; op itself checks the ticket.
	for i := range w.bodies {
		if _, err := w.op(ctx, 0, i, nil); err != nil {
			return nil, fmt.Errorf("warm-up op: %w", err)
		}
	}
	w.log, w.waits = campaignLog{}, nil
	w.base = svc.Stats()
	return &instance{
		clients:    e.nproc,
		op:         w.op,
		verifyLast: w.verifyLast,
		layers:     w.layers,
		close: func() error {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			return svc.Shutdown(ctx)
		},
		corpusHash: hasher.sum(),
		sizing:     sizingMap(sizing),
	}, nil
}

func (w *serveClosed) op(ctx context.Context, client, i int, tr *opTrace) (opCount, error) {
	kind := (client + i) % len(w.bodies)
	body := w.bodies[kind]
	end := tr.call("model.decode_us")
	c, err := model.DecodeCampaign(bytes.NewReader(body))
	end()
	if err != nil {
		return opCount{}, err
	}
	end = tr.call("core.compile_ms")
	compiled, err := w.platform.Compile(c)
	end()
	if err != nil {
		return opCount{}, err
	}
	end = tr.call("service.submit_wait")
	start := time.Now()
	ticket, err := w.service.Submit(fmt.Sprintf("tenant-%d", client), c, compiled.Chosen)
	if err == nil {
		err = ticket.Wait(ctx)
	}
	reply := time.Since(start)
	end()
	if err != nil {
		return opCount{}, fmt.Errorf("campaign %s: %w", c.Name, err)
	}
	report, runErr := ticket.Result()
	if ticket.Status() != toreador.StatusCompleted || runErr != nil || report == nil {
		return opCount{}, fmt.Errorf("campaign %s: ticket ended %s: %v", c.Name, ticket.Status(), runErr)
	}
	if w.traced {
		w.log.add(c.Name, compiled, report)
		w.mu.Lock()
		w.waits = append(w.waits, reply-report.WallTime)
		w.mu.Unlock()
	}
	return opCount{rows: int64(report.RowsProcessed), campaigns: 1, kind: kind}, nil
}

// verifyLast is ticket accounting over the whole window: the service must
// have admitted and completed every submission, shed and failed none.
func (w *serveClosed) verifyLast() error {
	d := w.service.Stats().Diff(w.base)
	submitted, completed := d.CounterValue("service.submitted"), d.CounterValue("service.completed")
	if submitted == 0 || completed != submitted {
		return fmt.Errorf("service completed %d of %d submissions (rejected %d, shed %d, failed %d)", completed, submitted,
			d.CounterValue("service.rejected"), d.CounterValue("service.shed"), d.CounterValue("service.failed"))
	}
	return nil
}

// instantRunner answers every run at once, so a Submit→Wait against it costs
// what the service itself costs: queue, ticket, worker hand-off.
type instantRunner struct{}

func (instantRunner) Run(context.Context, *model.Campaign, core.Alternative) (*runner.Report, error) {
	return &runner.Report{}, nil
}

func (w *serveClosed) layers(ctx context.Context, lc *layerCtx) error {
	w.log.layerMetrics(lc)
	lc.out["model.decode_us"] = us(lc.medianOf("model.decode_us"))
	// The compile span (what the caller waits) replaces the compiler's own
	// phase total here; the phases still come from CompileResult.Timings.
	lc.out["core.compile_ms"] = ms(lc.medianOf("core.compile_ms"))
	lc.out["service.wait_ms"] = ms(median(w.waits))
	lc.out["service.latency_p95_ms"] = ms(percentile(lc.ops, 95))
	lc.out["service.latency_p99_ms"] = ms(percentile(lc.ops, 99))
	d := w.service.Stats().Diff(w.base)
	lc.out["service.rejected"] = float64(d.CounterValue("service.rejected"))
	lc.out["service.shed"] = float64(d.CounterValue("service.shed"))
	lc.out["service.retries"] = float64(d.CounterValue("service.retries"))

	c := toreador.BuiltinChallenges()[0].Campaign
	compiled, err := w.platform.Compile(c)
	if err != nil {
		return err
	}
	stub, err := service.New(instantRunner{}, serveConfig)
	if err != nil {
		return err
	}
	overhead, err := lc.timeProbe("service.overhead_us", 1000, func() error {
		ticket, err := stub.Submit("probe", c, compiled.Chosen)
		if err != nil {
			return err
		}
		return ticket.Wait(ctx)
	})
	lc.out["service.overhead_us"] = us(overhead)
	shutdownCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if serr := stub.Shutdown(shutdownCtx); err == nil {
		err = serr
	}
	return err
}
