package planner

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/storage"
	"repro/internal/workload"
)

func plannerEnv(t *testing.T) (*Planner, *model.Campaign, []core.Alternative) {
	t.Helper()
	data := storage.NewCatalog()
	sc, err := workload.NewGenerator(23).Generate(workload.VerticalTelco, workload.Sizing{Customers: 250, Meters: 1, Days: 1, Users: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.Register(data); err != nil {
		t.Fatal(err)
	}
	compiler, err := core.NewCompiler(data)
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
			FeatureColumns: []string{"tenure_months", "support_calls"},
		},
		Sources: []model.DataSource{{Table: "telco_customers", ContainsPersonalData: true, Region: "eu"}},
		Objectives: []model.Objective{
			{Indicator: model.IndicatorAccuracy, Comparison: model.AtLeast, Target: 0.7, Hard: true},
			{Indicator: model.IndicatorCost, Comparison: model.AtMost, Target: 5},
			{Indicator: model.IndicatorLatency, Comparison: model.AtMost, Target: 30_000},
		},
		Regime: model.RegimePseudonymize,
	}
	alternatives, _, err := compiler.EnumerateAlternatives(campaign)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(compiler)
	if err != nil {
		t.Fatal(err)
	}
	return p, campaign, alternatives
}

func TestNewRequiresCompiler(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("nil compiler must be rejected")
	}
}

func TestStrategyValidity(t *testing.T) {
	for _, s := range Strategies() {
		if !s.Valid() {
			t.Errorf("strategy %s must be valid", s)
		}
	}
	if Strategy("oracle").Valid() {
		t.Error("unknown strategy must be invalid")
	}
}

func TestPlanExhaustiveMatchesCompilerSelection(t *testing.T) {
	p, campaign, alternatives := plannerEnv(t)
	decision, err := p.PlanOver(campaign, alternatives, StrategyExhaustive)
	if err != nil {
		t.Fatal(err)
	}
	best, err := core.SelectBest(campaign, alternatives)
	if err != nil {
		t.Fatal(err)
	}
	if decision.Chosen.Index != best.Index {
		t.Errorf("exhaustive planner picked %d, compiler selection picked %d", decision.Chosen.Index, best.Index)
	}
	if decision.Explored != len(alternatives) || decision.TotalAlternatives != len(alternatives) {
		t.Errorf("explored = %d / total = %d, want both %d", decision.Explored, decision.TotalAlternatives, len(alternatives))
	}
	if !decision.Feasible {
		t.Error("exhaustive decision on this campaign must be feasible")
	}
}

func TestPlanViaCompileEntryPoint(t *testing.T) {
	p, campaign, _ := plannerEnv(t)
	decision, err := p.Plan(campaign, StrategyExhaustive)
	if err != nil {
		t.Fatal(err)
	}
	if decision.Chosen.Composition == nil {
		t.Error("decision must carry a composition")
	}
	if _, err := p.Plan(campaign, Strategy("oracle")); !errors.Is(err, ErrBadStrategy) {
		t.Error("unknown strategy must fail")
	}
	bad := campaign.Clone()
	bad.Name = ""
	if _, err := p.Plan(bad, StrategyExhaustive); err == nil {
		t.Error("invalid campaign must fail")
	}
}

func TestStrategyOrdering(t *testing.T) {
	// The model-driven (exhaustive) planner must never lose to the manual
	// random baseline on the effective score, and the greedy heuristic must
	// explore fewer options than exhaustive (Table 3's qualitative shape).
	p, campaign, alternatives := plannerEnv(t)
	exhaustive, err := p.PlanOver(campaign, alternatives, StrategyExhaustive)
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := p.PlanOver(campaign, alternatives, StrategyGreedy)
	if err != nil {
		t.Fatal(err)
	}
	random, err := p.PlanOver(campaign, alternatives, StrategyRandom)
	if err != nil {
		t.Fatal(err)
	}
	if !exhaustive.Compliant || !greedy.Compliant {
		t.Error("platform-driven strategies must return compliant choices")
	}
	if exhaustive.EffectiveScore+1e-9 < greedy.EffectiveScore || exhaustive.EffectiveScore+1e-9 < random.EffectiveScore {
		t.Errorf("exhaustive effective score %.3f must be >= greedy %.3f and random %.3f",
			exhaustive.EffectiveScore, greedy.EffectiveScore, random.EffectiveScore)
	}
	if greedy.Explored >= exhaustive.Explored {
		t.Errorf("greedy explored %d, must be fewer than exhaustive %d", greedy.Explored, exhaustive.Explored)
	}
	if random.Explored != p.RandomSamples {
		t.Errorf("random explored %d, want %d samples", random.Explored, p.RandomSamples)
	}
	if Regret(exhaustive, exhaustive) != 0 {
		t.Error("optimal decision must have zero regret")
	}
	if Regret(random, exhaustive) < 0 {
		t.Error("regret must be non-negative")
	}
}

func TestPlanGreedyPicksTopQualityService(t *testing.T) {
	p, campaign, alternatives := plannerEnv(t)
	greedy, err := p.PlanOver(campaign, alternatives, StrategyGreedy)
	if err != nil {
		t.Fatal(err)
	}
	step, ok := greedy.Chosen.Composition.AnalyticsStep()
	if !ok {
		t.Fatal("greedy choice has no analytics step")
	}
	if step.Service.ID != "classify-logreg" {
		t.Errorf("greedy analytics service = %s, want the highest-quality classifier", step.Service.ID)
	}
	if !greedy.Chosen.Compliant() {
		t.Error("greedy choice must be compliant")
	}
}

func TestPlanRandomDeterministicPerSeed(t *testing.T) {
	p, campaign, alternatives := plannerEnv(t)
	p.Seed = 42
	a, err := p.PlanOver(campaign, alternatives, StrategyRandom)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.PlanOver(campaign, alternatives, StrategyRandom)
	if err != nil {
		t.Fatal(err)
	}
	if a.Chosen.Index != b.Chosen.Index {
		t.Error("same seed must give the same random decision")
	}
}

func TestPlanOverDegenerateDesignSpaces(t *testing.T) {
	p, campaign, alternatives := plannerEnv(t)
	// Keep only non-compliant alternatives: the platform-driven strategies
	// refuse to choose, while the blind manual baseline happily picks a
	// non-compliant pipeline and pays for it in effective score.
	var nonCompliant []core.Alternative
	for _, a := range alternatives {
		if !a.Compliant() {
			nonCompliant = append(nonCompliant, a)
		}
	}
	if len(nonCompliant) == 0 {
		t.Skip("no non-compliant alternatives in this design space")
	}
	if _, err := p.PlanOver(campaign, nonCompliant, StrategyExhaustive); !errors.Is(err, ErrNoDecision) {
		t.Errorf("exhaustive err = %v, want ErrNoDecision", err)
	}
	if _, err := p.PlanOver(campaign, nonCompliant, StrategyGreedy); !errors.Is(err, ErrNoDecision) {
		t.Errorf("greedy err = %v, want ErrNoDecision", err)
	}
	random, err := p.PlanOver(campaign, nonCompliant, StrategyRandom)
	if err != nil {
		t.Fatalf("random baseline should still decide: %v", err)
	}
	if random.Compliant {
		t.Error("the only available choices are non-compliant")
	}
	if random.EffectiveScore >= random.Score {
		t.Errorf("non-compliant choice must be discounted: effective %.3f vs raw %.3f",
			random.EffectiveScore, random.Score)
	}
	if _, err := p.PlanOver(campaign, nil, StrategyRandom); !errors.Is(err, ErrNoDecision) {
		t.Errorf("empty space err = %v, want ErrNoDecision", err)
	}
}
