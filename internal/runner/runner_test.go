package runner

import (
	"context"
	"errors"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/sla"
	"repro/internal/storage"
	"repro/internal/workload"
)

// environment bundles the data catalog and compiler shared by runner tests.
type environment struct {
	data     *storage.Catalog
	compiler *core.Compiler
	runner   *Runner
}

func newEnvironment(t *testing.T, verticals ...workload.Vertical) *environment {
	t.Helper()
	data := storage.NewCatalog()
	gen := workload.NewGenerator(17)
	sz := workload.Sizing{Customers: 400, Meters: 3, Days: 3, Users: 60}
	for _, v := range verticals {
		sc, err := gen.Generate(v, sz)
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
	r, err := New(data)
	if err != nil {
		t.Fatal(err)
	}
	return &environment{data: data, compiler: compiler, runner: r}
}

func (e *environment) compileAndRun(t *testing.T, campaign *model.Campaign) *Report {
	t.Helper()
	result, err := e.compiler.Compile(campaign)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	report, err := e.runner.Run(context.Background(), campaign, result.Chosen)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return report
}

func churnCampaign() *model.Campaign {
	return &model.Campaign{
		Name:     "churn",
		Vertical: "telco",
		Goal: model.Goal{
			Task:           model.TaskClassification,
			TargetTable:    "telco_customers",
			LabelColumn:    "churned",
			FeatureColumns: []string{"tenure_months", "support_calls", "dropped_calls", "monthly_charge"},
		},
		Sources: []model.DataSource{{Table: "telco_customers", ContainsPersonalData: true, Region: "eu"}},
		Objectives: []model.Objective{
			{Indicator: model.IndicatorAccuracy, Comparison: model.AtLeast, Target: 0.6, Hard: true},
		},
		Regime: model.RegimePseudonymize,
	}
}

func TestNewRequiresCatalog(t *testing.T) {
	if _, err := New(nil); !errors.Is(err, ErrBadRun) {
		t.Errorf("err = %v, want ErrBadRun", err)
	}
}

func TestRunValidation(t *testing.T) {
	env := newEnvironment(t, workload.VerticalTelco)
	if _, err := env.runner.Run(context.Background(), nil, core.Alternative{}); !errors.Is(err, ErrBadRun) {
		t.Errorf("err = %v, want ErrBadRun", err)
	}
}

func TestRunClassificationCampaign(t *testing.T) {
	env := newEnvironment(t, workload.VerticalTelco)
	report := env.compileAndRun(t, churnCampaign())

	acc, ok := report.Measured.Get(model.IndicatorAccuracy)
	if !ok || acc < 0.6 {
		t.Errorf("measured accuracy = %v, want a trained classifier beating 0.6", acc)
	}
	if cost, ok := report.Measured.Get(model.IndicatorCost); !ok || cost <= 0 {
		t.Errorf("measured cost = %v, want > 0", cost)
	}
	if lat, ok := report.Measured.Get(model.IndicatorLatency); !ok || lat < 0 {
		t.Errorf("measured latency = %v", lat)
	}
	if thr, ok := report.Measured.Get(model.IndicatorThroughput); !ok || thr <= 0 {
		t.Errorf("measured throughput = %v, want > 0", thr)
	}
	if !report.Evaluation.Feasible {
		t.Errorf("hard accuracy objective not met:\n%s", report.Evaluation.Summary())
	}
	if !report.Compliant {
		t.Error("chosen alternative must be compliant")
	}
	if report.RowsProcessed == 0 || report.EngineStats.RowsRead == 0 {
		t.Error("engine stats must reflect processed rows")
	}
	if report.Details["classification.model"] == "" || report.Details["preparation.privacy"] == "" {
		t.Errorf("details missing: %v", report.Details)
	}
	if report.ClusterUsage.TasksRun == 0 {
		t.Error("cluster usage must record executed tasks")
	}
}

func TestRunAnomalyCampaignOnPayments(t *testing.T) {
	env := newEnvironment(t, workload.VerticalFinance)
	campaign := &model.Campaign{
		Name:     "fraud",
		Vertical: "finance",
		Goal: model.Goal{
			Task:        model.TaskAnomaly,
			TargetTable: "payments",
			ValueColumn: "amount",
			LabelColumn: "fraud",
		},
		Sources: []model.DataSource{{Table: "payments", ContainsPersonalData: true, Region: "eu"}},
		Regime:  model.RegimePseudonymize,
	}
	report := env.compileAndRun(t, campaign)
	f1, _ := report.Measured.Get(model.IndicatorAccuracy)
	if f1 <= 0.1 {
		t.Errorf("fraud detection F1 = %v, expected meaningful signal on skewed amounts", f1)
	}
	if report.Details["anomaly.detector"] == "" {
		t.Errorf("details = %v", report.Details)
	}
}

func TestRunReportingCampaign(t *testing.T) {
	env := newEnvironment(t, workload.VerticalRetail)
	campaign := &model.Campaign{
		Name:     "revenue-report",
		Vertical: "retail",
		Goal: model.Goal{
			Task:         model.TaskReporting,
			TargetTable:  "retail_baskets",
			ValueColumn:  "unit_price",
			GroupColumns: []string{"category"},
		},
		Sources: []model.DataSource{{Table: "retail_baskets"}},
		Regime:  model.RegimeNone,
	}
	report := env.compileAndRun(t, campaign)
	if acc, _ := report.Measured.Get(model.IndicatorAccuracy); acc != 1.0 {
		t.Errorf("reporting quality = %v, want 1.0 (exact aggregation)", acc)
	}
	if report.Details["reporting.groups"] == "0" || report.Details["reporting.groups"] == "" {
		t.Errorf("reporting groups = %q", report.Details["reporting.groups"])
	}
}

func TestRunAssociationCampaign(t *testing.T) {
	env := newEnvironment(t, workload.VerticalRetail)
	campaign := &model.Campaign{
		Name:     "basket-analysis",
		Vertical: "retail",
		Goal: model.Goal{
			Task:              model.TaskAssociation,
			TargetTable:       "retail_baskets",
			ItemColumn:        "product",
			TransactionColumn: "basket_id",
		},
		Sources: []model.DataSource{{Table: "retail_baskets"}},
		Regime:  model.RegimeNone,
	}
	report := env.compileAndRun(t, campaign)
	if conf, _ := report.Measured.Get(model.IndicatorAccuracy); conf <= 0.3 {
		t.Errorf("rule confidence = %v, expected the affinity structure to surface", conf)
	}
	if report.Details["association.rules"] == "" || report.Details["association.rules"] == "0" {
		t.Errorf("association details = %v", report.Details)
	}
	table, err := env.data.Lookup("retail_baskets")
	if err != nil {
		t.Fatal(err)
	}
	baskets := map[string]bool{}
	col := table.Schema().IndexOf("basket_id")
	table.Scan(func(row storage.Row) bool {
		baskets[storage.AsString(row[col])] = true
		return true
	})
	if got, want := report.Details["association.baskets"], strconv.Itoa(len(baskets)); got != want {
		t.Errorf("association.baskets = %s, want %s distinct basket_ids", got, want)
	}
	// Baskets are grouped and mined in-process, so explain shows the
	// preparation stage only.
	result, err := env.compiler.Compile(campaign)
	if err != nil {
		t.Fatal(err)
	}
	out, err := env.runner.ExplainPlan(campaign, result.Chosen)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "analytics stage") {
		t.Errorf("association runs off-engine; explain must not render an analytics stage:\n%s", out)
	}
}

func TestRunForecastingCampaign(t *testing.T) {
	env := newEnvironment(t, workload.VerticalEnergy)
	campaign := &model.Campaign{
		Name:     "load-forecast",
		Vertical: "energy",
		Goal: model.Goal{
			Task:        model.TaskForecasting,
			TargetTable: "meter_readings",
			ValueColumn: "kwh",
			TimeColumn:  "read_at",
		},
		Sources: []model.DataSource{{Table: "meter_readings", ContainsPersonalData: true, Region: "eu"}},
		Regime:  model.RegimePseudonymize,
	}
	report := env.compileAndRun(t, campaign)
	if acc, _ := report.Measured.Get(model.IndicatorAccuracy); acc <= 0 || acc > 1 {
		t.Errorf("forecast accuracy indicator = %v, want (0,1]", acc)
	}
	if report.Details["forecast.model"] == "" || report.Details["forecast.rmse"] == "" {
		t.Errorf("forecast details = %v", report.Details)
	}
}

func TestRunSessionizationCampaign(t *testing.T) {
	env := newEnvironment(t, workload.VerticalWeb)
	campaign := &model.Campaign{
		Name:     "funnel",
		Vertical: "web",
		Goal: model.Goal{
			Task:        model.TaskSessionization,
			TargetTable: "clickstream",
			TimeColumn:  "occurred_at",
			LabelColumn: "converted",
		},
		Sources: []model.DataSource{{Table: "clickstream", ContainsPersonalData: true, Region: "eu"}},
		Regime:  model.RegimePseudonymize,
	}
	report := env.compileAndRun(t, campaign)
	if report.Details["sessionization.sessions"] == "" || report.Details["sessionization.sessions"] == "0" {
		t.Errorf("sessionization details = %v", report.Details)
	}
	if acc, _ := report.Measured.Get(model.IndicatorAccuracy); acc <= 0 {
		t.Errorf("sessionization quality = %v, want > 0", acc)
	}
}

func TestRunClusteringCampaign(t *testing.T) {
	env := newEnvironment(t, workload.VerticalTelco)
	campaign := &model.Campaign{
		Name:     "segments",
		Vertical: "telco",
		Goal: model.Goal{
			Task:           model.TaskClustering,
			TargetTable:    "telco_customers",
			FeatureColumns: []string{"monthly_charge", "data_usage_gb", "tenure_months"},
		},
		Sources: []model.DataSource{{Table: "telco_customers", ContainsPersonalData: true, Region: "eu"}},
		Regime:  model.RegimePseudonymize,
	}
	report := env.compileAndRun(t, campaign)
	if q, _ := report.Measured.Get(model.IndicatorAccuracy); q <= 0 || q > 1 {
		t.Errorf("clustering quality = %v, want (0,1]", q)
	}
	if report.Details["clustering.k"] != "3" {
		t.Errorf("clustering k = %q, want default 3", report.Details["clustering.k"])
	}
	if n, err := strconv.Atoi(report.Details["clustering.iterations"]); err != nil || n < 2 {
		t.Errorf("clustering iterations = %q, want at least the seeding and confirming passes",
			report.Details["clustering.iterations"])
	}
	if report.Details["clustering.converged"] != "true" {
		t.Errorf("clustering converged = %q, want true", report.Details["clustering.converged"])
	}
}

func TestBetterClassifierBeatsBaselineWhenRun(t *testing.T) {
	// The Labs' core comparison (Table 2): among enumerated alternatives, the
	// measured accuracy of the logistic-regression pipeline must beat the
	// majority baseline on the same data.
	env := newEnvironment(t, workload.VerticalTelco)
	campaign := churnCampaign()
	alternatives, _, err := env.compiler.EnumerateAlternatives(campaign)
	if err != nil {
		t.Fatal(err)
	}
	measuredByService := map[string]float64{}
	for _, alt := range alternatives {
		if !alt.Compliant() {
			continue
		}
		step, _ := alt.Composition.AnalyticsStep()
		if _, done := measuredByService[step.Service.ID]; done {
			continue
		}
		rep, err := env.runner.Run(context.Background(), campaign, alt)
		if err != nil {
			t.Fatalf("run %s: %v", alt.Fingerprint(), err)
		}
		acc, _ := rep.Measured.Get(model.IndicatorAccuracy)
		measuredByService[step.Service.ID] = acc
	}
	logreg, okL := measuredByService["classify-logreg"]
	baseline, okB := measuredByService["classify-majority"]
	if !okL || !okB {
		t.Fatalf("measured services = %v, want both logreg and majority", measuredByService)
	}
	if logreg <= baseline {
		t.Errorf("logistic regression accuracy %.3f must beat the majority baseline %.3f", logreg, baseline)
	}
}

func TestRunWithFailureInjectionStillSucceeds(t *testing.T) {
	env := newEnvironment(t, workload.VerticalTelco)
	r, err := New(env.data, WithSeed(3), WithFailureInjection(0.15))
	if err != nil {
		t.Fatal(err)
	}
	campaign := churnCampaign()
	result, err := env.compiler.Compile(campaign)
	if err != nil {
		t.Fatal(err)
	}
	report, err := r.Run(context.Background(), campaign, result.Chosen)
	if err != nil {
		t.Fatalf("run with failure injection: %v", err)
	}
	if report.ClusterUsage.Retries == 0 {
		t.Log("no retries happened despite injection; acceptable but unusual")
	}
	if acc, _ := report.Measured.Get(model.IndicatorAccuracy); acc < 0.6 {
		t.Errorf("accuracy with retries = %v, results must not degrade", acc)
	}
}

func TestEvaluationUsesMeasuredValues(t *testing.T) {
	env := newEnvironment(t, workload.VerticalTelco)
	campaign := churnCampaign()
	campaign.Objectives = append(campaign.Objectives, model.Objective{
		Indicator: model.IndicatorLatency, Comparison: model.AtMost, Target: 60_000,
	})
	report := env.compileAndRun(t, campaign)
	var latencyResult *sla.ObjectiveResult
	for i := range report.Evaluation.Results {
		if report.Evaluation.Results[i].Objective.Indicator == model.IndicatorLatency {
			latencyResult = &report.Evaluation.Results[i]
		}
	}
	if latencyResult == nil || latencyResult.Missing {
		t.Fatal("latency objective must be evaluated from the measured run")
	}
}
