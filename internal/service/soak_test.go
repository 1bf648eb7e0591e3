package service

// soak_test.go is the fault-injection soak: N tenants submit M mixed
// campaigns each against the real runner with injected cluster failures, a
// tight memory budget (every wide operator spills), a small queue, and
// per-campaign deadlines. The invariants under test are the service's core
// accounting guarantees: every submission ends in exactly one of
// completed / rejected / shed / failed, the metric counters agree with the
// observed outcomes, no goroutine outlives the drain, and no spill temp file
// survives.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/runner"
	"repro/internal/storage"
	"repro/internal/workload"
)

// soakWorkload compiles the three campaign shapes the soak mixes: telco
// classification (tight latency SLA), retail reporting (loose SLA), and
// energy forecasting (no latency objective).
func soakWorkload(t *testing.T) (*runner.Runner, []struct {
	campaign *model.Campaign
	alt      core.Alternative
}) {
	t.Helper()
	data := storage.NewCatalog()
	gen := workload.NewGenerator(17)
	for _, v := range []workload.Vertical{workload.VerticalTelco, workload.VerticalRetail, workload.VerticalEnergy} {
		sc, err := gen.Generate(v, workload.Sizing{Customers: 200, Meters: 4, Days: 3, Users: 40})
		if err != nil {
			t.Fatal(err)
		}
		if err := sc.Register(data); err != nil {
			t.Fatal(err)
		}
	}
	compiler, err := core.NewCompiler(data)
	if err != nil {
		t.Fatal(err)
	}
	// The one-byte budget forces every wide operator through the compressed
	// spill codec under the race detector.
	run, err := runner.New(data, runner.WithSeed(7),
		runner.WithFailureInjection(0.05), runner.WithMemoryBudget(1))
	if err != nil {
		t.Fatal(err)
	}
	campaigns := []*model.Campaign{
		{
			Name: "churn", Vertical: "telco",
			Goal: model.Goal{
				Task: model.TaskClassification, TargetTable: "telco_customers",
				LabelColumn:    "churned",
				FeatureColumns: []string{"tenure_months", "support_calls", "monthly_charge"},
			},
			Sources: []model.DataSource{{Table: "telco_customers", ContainsPersonalData: true, Region: "eu"}},
			Objectives: []model.Objective{
				{Indicator: model.IndicatorAccuracy, Comparison: model.AtLeast, Target: 0.6, Hard: true},
				{Indicator: model.IndicatorLatency, Comparison: model.AtMost, Target: 30_000},
			},
			Regime: model.RegimePseudonymize,
		},
		{
			Name: "revenue", Vertical: "retail",
			Goal: model.Goal{
				Task: model.TaskReporting, TargetTable: "retail_baskets",
				ValueColumn: "unit_price", GroupColumns: []string{"category"},
			},
			Sources: []model.DataSource{{Table: "retail_baskets"}},
			Objectives: []model.Objective{
				{Indicator: model.IndicatorLatency, Comparison: model.AtMost, Target: 60_000},
			},
			Regime: model.RegimeNone,
		},
		{
			Name: "load-forecast", Vertical: "energy",
			Goal: model.Goal{
				Task: model.TaskForecasting, TargetTable: "meter_readings",
				ValueColumn: "kwh", TimeColumn: "read_at",
			},
			Sources: []model.DataSource{{Table: "meter_readings", ContainsPersonalData: true, Region: "eu"}},
			Regime:  model.RegimePseudonymize,
		},
	}
	var out []struct {
		campaign *model.Campaign
		alt      core.Alternative
	}
	for _, c := range campaigns {
		res, err := compiler.Compile(c)
		if err != nil {
			t.Fatalf("compile %s: %v", c.Name, err)
		}
		out = append(out, struct {
			campaign *model.Campaign
			alt      core.Alternative
		}{c, res.Chosen})
	}
	return run, out
}

func TestSoakFaultInjection(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	baseGoroutines := runtime.NumGoroutine()

	run, shapes := soakWorkload(t)
	s, err := New(run, Config{
		QueueDepth: 6,
		Workers:    3,
		Tenants: map[string]TenantConfig{
			// One tenant is throttled hard so rate-limit rejections occur.
			"tenant-3": {Burst: 3, RefillPerSec: 20},
		},
		MaxRetries:   2,
		RetryBackoff: cluster.Backoff{Base: time.Millisecond, Max: 8 * time.Millisecond, Jitter: 0.5},
		Seed:         7,
	})
	if err != nil {
		t.Fatal(err)
	}

	const tenants = 4
	const perTenant = 8
	type outcome struct {
		ticket *Ticket
		err    error // synchronous rejection
	}
	outcomes := make([][]outcome, tenants)
	var wg sync.WaitGroup
	for ti := 0; ti < tenants; ti++ {
		wg.Add(1)
		go func(ti int) {
			defer wg.Done()
			tenant := fmt.Sprintf("tenant-%d", ti)
			for m := 0; m < perTenant; m++ {
				shape := shapes[(ti+m)%len(shapes)]
				tk, err := s.Submit(tenant, shape.campaign, shape.alt)
				outcomes[ti] = append(outcomes[ti], outcome{ticket: tk, err: err})
				// A small stagger keeps sustained pressure without the whole
				// burst landing in one scheduling quantum.
				time.Sleep(time.Duration(ti+1) * time.Millisecond)
			}
		}(ti)
	}
	wg.Wait()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}

	// Every submission ends in exactly one of the four terminal outcomes.
	var completed, rejected, shed, failed int
	for ti := range outcomes {
		for _, o := range outcomes[ti] {
			switch {
			case o.err != nil:
				if !errors.Is(o.err, ErrOverloaded) && !errors.Is(o.err, ErrRateLimited) {
					t.Errorf("tenant-%d: unexpected rejection class: %v", ti, o.err)
				}
				rejected++
			case o.ticket == nil:
				t.Errorf("tenant-%d: no ticket and no error", ti)
			default:
				select {
				case <-o.ticket.Done():
				default:
					t.Errorf("tenant-%d: ticket %s not terminal after drain", ti, o.ticket.Campaign.Name)
					continue
				}
				switch o.ticket.Status() {
				case StatusCompleted:
					completed++
				case StatusShed:
					shed++
				case StatusFailed:
					failed++
					if _, rerr := o.ticket.Result(); cluster.Permanent(rerr) {
						t.Errorf("permanent failure in soak (all plans are valid): %v", rerr)
					}
				default:
					t.Errorf("tenant-%d: non-terminal status %s", ti, o.ticket.Status())
				}
			}
		}
	}
	total := tenants * perTenant
	if completed+rejected+shed+failed != total {
		t.Errorf("accounting: %d completed + %d rejected + %d shed + %d failed != %d submitted",
			completed, rejected, shed, failed, total)
	}
	if completed == 0 {
		t.Error("soak completed nothing; the service made no progress")
	}
	t.Logf("soak: %d completed, %d rejected, %d shed, %d failed (of %d)",
		completed, rejected, shed, failed, total)

	// The metric counters must tell the same story.
	snap := s.Stats()
	if got := snap.CounterValue("service.submitted"); got != int64(total) {
		t.Errorf("service.submitted = %d, want %d", got, total)
	}
	if got := snap.CounterValue("service.rejected"); got != int64(rejected) {
		t.Errorf("service.rejected = %d, want %d", got, rejected)
	}
	if got := snap.CounterValue("service.completed"); got != int64(completed) {
		t.Errorf("service.completed = %d, want %d", got, completed)
	}
	if got := snap.CounterValue("service.shed"); got != int64(shed) {
		t.Errorf("service.shed = %d, want %d", got, shed)
	}
	if adm := snap.CounterValue("service.admitted"); adm != int64(completed+shed+failed) {
		t.Errorf("service.admitted = %d, want completed+shed+failed = %d", adm, completed+shed+failed)
	}
	if lat := snap.Histograms["service.latency.ms"]; lat.Count != int64(completed+failed) {
		t.Errorf("latency histogram count = %d, want %d", lat.Count, completed+failed)
	}

	// No goroutine may outlive the drain and no spill file may survive.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseGoroutines && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseGoroutines {
		buf := make([]byte, 1<<16)
		t.Errorf("goroutine leak: %d > baseline %d\n%s", n, baseGoroutines,
			buf[:runtime.Stack(buf, true)])
	}
	entries, err := os.ReadDir(tmp)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "toreador-") {
			t.Errorf("leaked spill file after soak: %s", e.Name())
		}
	}
}
