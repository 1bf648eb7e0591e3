package core

import (
	"errors"
	"sort"
	"strings"
	"testing"

	"repro/internal/deployment"
	"repro/internal/model"
	"repro/internal/storage"
	"repro/internal/workload"
)

// testEnv registers a small telco scenario and returns the compiler plus the
// standard churn campaign.
func testEnv(t *testing.T) (*Compiler, *model.Campaign) {
	t.Helper()
	data := storage.NewCatalog()
	sc, err := workload.NewGenerator(11).Generate(workload.VerticalTelco, workload.Sizing{Customers: 300, Meters: 1, Days: 1, Users: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.Register(data); err != nil {
		t.Fatal(err)
	}
	compiler, err := NewCompiler(data)
	if err != nil {
		t.Fatal(err)
	}
	campaign := &model.Campaign{
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
			{Indicator: model.IndicatorAccuracy, Comparison: model.AtLeast, Target: 0.7, Hard: true},
			{Indicator: model.IndicatorCost, Comparison: model.AtMost, Target: 10},
		},
		Regime: model.RegimePseudonymize,
	}
	return compiler, campaign
}

func TestNewCompilerRequiresData(t *testing.T) {
	if _, err := NewCompiler(nil); err == nil {
		t.Error("nil data catalog must be rejected")
	}
}

func TestEnumerateAlternatives(t *testing.T) {
	compiler, campaign := testEnv(t)
	alternatives, timings, err := compiler.EnumerateAlternatives(campaign)
	if err != nil {
		t.Fatal(err)
	}
	if len(alternatives) < 10 {
		t.Fatalf("alternatives = %d, want a rich design space (>= 10)", len(alternatives))
	}
	if timings.Total() <= 0 {
		t.Error("phase timings must be recorded")
	}
	if timings.Bind <= 0 || timings.Comply <= 0 {
		t.Errorf("bind %v and comply %v must each be timed", timings.Bind, timings.Comply)
	}
	// Every alternative must be internally consistent.
	fingerprints := map[string]bool{}
	for _, alt := range alternatives {
		if err := alt.Composition.Validate(); err != nil {
			t.Errorf("alternative %d invalid: %v", alt.Index, err)
		}
		if alt.Plan == nil || !alt.Plan.Platform.Valid() {
			t.Errorf("alternative %d has no valid plan", alt.Index)
		}
		if _, ok := alt.Estimates.Get(model.IndicatorCost); !ok {
			t.Errorf("alternative %d missing cost estimate", alt.Index)
		}
		if fingerprints[alt.Fingerprint()] {
			t.Errorf("duplicate alternative %s", alt.Fingerprint())
		}
		fingerprints[alt.Fingerprint()] = true
	}
	// The design space must contain genuinely different analytics services
	// and both compliant and non-compliant options under pseudonymize regime.
	analytics := map[string]bool{}
	compliant, nonCompliant := 0, 0
	for _, alt := range alternatives {
		if step, ok := alt.Composition.AnalyticsStep(); ok {
			analytics[step.Service.ID] = true
		}
		if alt.Compliant() {
			compliant++
		} else {
			nonCompliant++
		}
	}
	if len(analytics) < 3 {
		t.Errorf("analytics diversity = %d services, want >= 3", len(analytics))
	}
	if compliant == 0 || nonCompliant == 0 {
		t.Errorf("want both compliant (%d) and non-compliant (%d) options under pseudonymize", compliant, nonCompliant)
	}
}

func TestCompileSelectsCompliantFeasibleBest(t *testing.T) {
	compiler, campaign := testEnv(t)
	result, err := compiler.Compile(campaign)
	if err != nil {
		t.Fatal(err)
	}
	chosen := result.Chosen
	if !chosen.Compliant() {
		t.Fatalf("chosen alternative is non-compliant: %+v", chosen.Compliance.Violations)
	}
	if !chosen.Composition.HasAnonymization() {
		t.Error("under pseudonymize regime the chosen pipeline must anonymize")
	}
	if !chosen.Evaluation.Feasible {
		t.Errorf("chosen alternative infeasible: %s", chosen.Evaluation.Summary())
	}
	// No other compliant, within-budget alternative may strictly dominate the
	// chosen one on the evaluation ordering.
	for _, alt := range result.CompliantAlternatives() {
		if alt.Evaluation.Feasible && alt.Evaluation.Score > chosen.Evaluation.Score+1e-9 {
			t.Errorf("alternative %s (score %.3f) beats chosen %s (score %.3f)",
				alt.Fingerprint(), alt.Evaluation.Score, chosen.Fingerprint(), chosen.Evaluation.Score)
		}
	}
	if result.SourceRows != 300 {
		t.Errorf("source rows = %d, want 300", result.SourceRows)
	}
}

func TestCompileRespectsBudget(t *testing.T) {
	compiler, campaign := testEnv(t)
	unrestricted, err := compiler.Compile(campaign)
	if err != nil {
		t.Fatal(err)
	}
	chosenCost, _ := unrestricted.Chosen.Estimates.Get(model.IndicatorCost)

	tight := campaign.Clone()
	tight.Preferences.MaxBudget = chosenCost * 0.5
	restricted, err := compiler.Compile(tight)
	if err != nil {
		// Acceptable only if genuinely no alternative fits the budget.
		if !errors.Is(err, ErrNoCompliantAlternative) {
			t.Fatal(err)
		}
		return
	}
	restrictedCost, _ := restricted.Chosen.Estimates.Get(model.IndicatorCost)
	if restrictedCost > tight.Preferences.MaxBudget+1e-9 {
		t.Errorf("chosen cost %.4f exceeds budget %.4f", restrictedCost, tight.Preferences.MaxBudget)
	}
}

func TestCompileUnknownSource(t *testing.T) {
	compiler, campaign := testEnv(t)
	broken := campaign.Clone()
	broken.Sources = []model.DataSource{{Table: "ghost"}}
	broken.Goal.TargetTable = "ghost"
	if _, err := compiler.Compile(broken); !errors.Is(err, ErrUnknownSource) {
		t.Errorf("err = %v, want ErrUnknownSource", err)
	}
}

func TestCompileInvalidCampaign(t *testing.T) {
	compiler, campaign := testEnv(t)
	bad := campaign.Clone()
	bad.Name = ""
	if _, err := compiler.Compile(bad); !errors.Is(err, model.ErrInvalidCampaign) {
		t.Errorf("err = %v, want ErrInvalidCampaign", err)
	}
}

func TestCompileStreamingPreference(t *testing.T) {
	compiler, campaign := testEnv(t)
	// Anomaly detection over payments supports streaming end to end.
	data := storage.NewCatalog()
	sc, err := workload.NewGenerator(3).Generate(workload.VerticalFinance, workload.Sizing{Customers: 200})
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.Register(data); err != nil {
		t.Fatal(err)
	}
	streamingCompiler, err := NewCompiler(data)
	if err != nil {
		t.Fatal(err)
	}
	fraud := &model.Campaign{
		Name:     "fraud",
		Vertical: "finance",
		Goal: model.Goal{
			Task:        model.TaskAnomaly,
			TargetTable: "payments",
			ValueColumn: "amount",
			LabelColumn: "fraud",
		},
		Sources:     []model.DataSource{{Table: "payments", ContainsPersonalData: true, Region: "eu"}},
		Regime:      model.RegimePseudonymize,
		Preferences: model.Preferences{Streaming: true},
	}
	result, err := streamingCompiler.Compile(fraud)
	if err != nil {
		t.Fatal(err)
	}
	if result.Chosen.Plan.Platform != deployment.PlatformStreaming {
		t.Errorf("platform = %s, want streaming when preferred and supported", result.Chosen.Plan.Platform)
	}
	_ = compiler
	_ = campaign
}

func TestSelectBestPrefersFeasibleThenScoreThenCost(t *testing.T) {
	compiler, campaign := testEnv(t)
	alternatives, _, err := compiler.EnumerateAlternatives(campaign)
	if err != nil {
		t.Fatal(err)
	}
	best, err := SelectBest(campaign, alternatives)
	if err != nil {
		t.Fatal(err)
	}
	// Build the expected winner by brute force over compliant alternatives.
	type ranked struct {
		score float64
		cost  float64
		idx   int
	}
	var compliant []ranked
	for _, a := range alternatives {
		if !a.Compliant() || !a.Evaluation.Feasible {
			continue
		}
		cost, _ := a.Estimates.Get(model.IndicatorCost)
		compliant = append(compliant, ranked{score: a.Evaluation.Score, cost: cost, idx: a.Index})
	}
	if len(compliant) == 0 {
		t.Skip("no feasible compliant alternatives in this configuration")
	}
	sort.Slice(compliant, func(i, j int) bool {
		if compliant[i].score != compliant[j].score {
			return compliant[i].score > compliant[j].score
		}
		if compliant[i].cost != compliant[j].cost {
			return compliant[i].cost < compliant[j].cost
		}
		return compliant[i].idx < compliant[j].idx
	})
	if best.Index != compliant[0].idx {
		t.Errorf("SelectBest picked %d, brute force picked %d", best.Index, compliant[0].idx)
	}
}

func TestSelectBestNoCompliant(t *testing.T) {
	_, campaign := testEnv(t)
	if _, err := SelectBest(campaign, nil); !errors.Is(err, ErrNoCompliantAlternative) {
		t.Errorf("err = %v, want ErrNoCompliantAlternative", err)
	}
}

func TestInterferenceMonotoneAcrossRegimes(t *testing.T) {
	compiler, campaign := testEnv(t)
	points, err := compiler.Interference(campaign)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(model.Regimes()) {
		t.Fatalf("points = %d, want %d", len(points), len(model.Regimes()))
	}
	for i := 1; i < len(points); i++ {
		if points[i].CompliantAlternatives > points[i-1].CompliantAlternatives {
			t.Errorf("regime %s admits more compliant alternatives (%d) than weaker regime %s (%d)",
				points[i].Regime, points[i].CompliantAlternatives, points[i-1].Regime, points[i-1].CompliantAlternatives)
		}
	}
	// Under no regulation every enumerated option that passes clearance is
	// compliant and several preparation options survive; under strict, the
	// surviving preparation options must shrink to the strict anonymizer.
	first, last := points[0], points[len(points)-1]
	if first.CompliantAlternatives == 0 {
		t.Error("regime none must admit compliant alternatives")
	}
	if last.PreparationOptions >= first.PreparationOptions {
		t.Errorf("strict regime must shrink preparation options: none=%d strict=%d",
			first.PreparationOptions, last.PreparationOptions)
	}
	if last.CompliantAlternatives == 0 {
		t.Error("strict regime must still admit at least one compliant alternative (the strict anonymizer path)")
	}
	// The original campaign must not have been mutated by the sweep.
	if campaign.Regime != model.RegimePseudonymize {
		t.Error("Interference must not mutate the campaign")
	}
}

func TestWhatIf(t *testing.T) {
	compiler, campaign := testEnv(t)
	variant := campaign.Clone()
	variant.Name = "churn-strict"
	variant.Regime = model.RegimeStrict
	report, err := compiler.WhatIf(campaign, variant)
	if err != nil {
		t.Fatal(err)
	}
	if report.Base == nil || report.Variant == nil {
		t.Fatal("report must carry both compile results")
	}
	// Moving to the strict regime must not decrease the privacy estimate.
	if report.Deltas[model.IndicatorPrivacy] < 0 {
		t.Errorf("privacy delta = %v, want >= 0 when tightening the regime", report.Deltas[model.IndicatorPrivacy])
	}
	// The service chains must differ (strict anonymizer swapped in).
	if len(report.ChangedServices) == 0 {
		t.Error("tightening the regime must change the chosen services")
	}
	joined := strings.Join(report.ChangedServices, " ")
	if !strings.Contains(joined, "mask-strict") {
		t.Errorf("changed services = %v, want the strict anonymizer to appear", report.ChangedServices)
	}
}

func TestWhatIfErrors(t *testing.T) {
	compiler, campaign := testEnv(t)
	bad := campaign.Clone()
	bad.Name = ""
	if _, err := compiler.WhatIf(bad, campaign); err == nil {
		t.Error("invalid base must fail")
	}
	if _, err := compiler.WhatIf(campaign, bad); err == nil {
		t.Error("invalid variant must fail")
	}
}

func TestPhaseTimingsTotal(t *testing.T) {
	p := PhaseTimings{Validate: 1, Match: 2, Compose: 3, Comply: 4, Bind: 5}
	if p.Total() != 15 {
		t.Errorf("total = %v", p.Total())
	}
}
