package experiments

import (
	"context"
	"strings"
	"testing"

	"repro/internal/labs"
	"repro/internal/model"
	"repro/internal/planner"
	"repro/internal/workload"
)

// smallEnv keeps experiment data tiny so the full suite stays fast.
func smallEnv(t *testing.T) *Env {
	t.Helper()
	e, err := NewEnv(5, workload.Sizing{Customers: 250, Meters: 2, Days: 3, Users: 50})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewEnvDefaults(t *testing.T) {
	e, err := NewEnv(0, workload.Sizing{})
	if err != nil {
		t.Fatal(err)
	}
	if e.Seed != 1 || e.Sizing.Customers == 0 || e.lab == nil {
		t.Errorf("env defaults = %+v", e)
	}
}

func TestTable1ChallengeCatalog(t *testing.T) {
	e := smallEnv(t)
	table, err := RunTable1(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 5 {
		t.Fatalf("rows = %d, want 5 challenges", len(table.Rows))
	}
	for _, r := range table.Rows {
		if r.Alternatives < 4 {
			t.Errorf("%s has only %d alternatives", r.Challenge, r.Alternatives)
		}
		if r.CompliantAlternatives == 0 || r.CompliantAlternatives > r.Alternatives {
			t.Errorf("%s compliant count %d out of range", r.Challenge, r.CompliantAlternatives)
		}
		if r.CompileTime <= 0 {
			t.Errorf("%s enumeration time missing", r.Challenge)
		}
	}
	if !strings.Contains(table.String(), "Table 1") {
		t.Error("rendering must carry the table title")
	}
}

func TestTable2AlternativeComparison(t *testing.T) {
	e := smallEnv(t)
	table, err := RunTable2(context.Background(), e)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) < 4 {
		t.Fatalf("rows = %d, want at least the four classifiers", len(table.Rows))
	}
	byService := map[string]Table2Row{}
	nonCompliant := 0
	for _, r := range table.Rows {
		if r.Compliant {
			byService[r.Service] = r
		} else {
			nonCompliant++
		}
	}
	logreg, okL := byService["classify-logreg"]
	majority, okM := byService["classify-majority"]
	if !okL || !okM {
		t.Fatalf("services measured = %v", byService)
	}
	// Headline qualitative shape: the trained model beats the baseline on
	// accuracy but costs more.
	if logreg.Accuracy <= majority.Accuracy {
		t.Errorf("logreg accuracy %.3f must beat majority %.3f", logreg.Accuracy, majority.Accuracy)
	}
	if logreg.Cost <= majority.Cost {
		t.Errorf("logreg cost %.4f must exceed majority %.4f", logreg.Cost, majority.Cost)
	}
	if nonCompliant == 0 {
		t.Error("the comparison must include a non-compliant row for contrast")
	}
	// Rows are sorted by score.
	for i := 1; i < len(table.Rows); i++ {
		if table.Rows[i].Score > table.Rows[i-1].Score {
			t.Error("rows must be sorted by descending score")
		}
	}
	if !strings.Contains(table.String(), "Table 2") {
		t.Error("rendering must carry the table title")
	}
}

func TestFigure1Interference(t *testing.T) {
	e := smallEnv(t)
	fig, err := RunFigure1(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Challenges) != 2 {
		t.Fatalf("challenges = %v", fig.Challenges)
	}
	for _, ch := range fig.Challenges {
		points := fig.Points[ch]
		if len(points) != len(model.Regimes()) {
			t.Fatalf("%s points = %d", ch, len(points))
		}
		for i := 1; i < len(points); i++ {
			if points[i].CompliantAlternatives > points[i-1].CompliantAlternatives {
				t.Errorf("%s: compliant options must shrink as the regime tightens", ch)
			}
		}
		if points[len(points)-1].PreparationOptions >= points[0].PreparationOptions {
			t.Errorf("%s: strict regime must reduce preparation options", ch)
		}
	}
	if !strings.Contains(fig.String(), "Figure 1") {
		t.Error("rendering must carry the figure title")
	}
}

func TestTable3PlannerBaseline(t *testing.T) {
	e := smallEnv(t)
	table, err := RunTable3(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 5*len(planner.Strategies()) {
		t.Fatalf("rows = %d, want %d", len(table.Rows), 5*len(planner.Strategies()))
	}
	byChallenge := map[string]map[planner.Strategy]Table3Row{}
	for _, r := range table.Rows {
		if byChallenge[r.Challenge] == nil {
			byChallenge[r.Challenge] = map[planner.Strategy]Table3Row{}
		}
		byChallenge[r.Challenge][r.Strategy] = r
	}
	for ch, rows := range byChallenge {
		exhaustive := rows[planner.StrategyExhaustive]
		random := rows[planner.StrategyRandom]
		if exhaustive.Regret > 1e-9 {
			t.Errorf("%s: exhaustive regret = %v, want 0", ch, exhaustive.Regret)
		}
		if exhaustive.CompliantRate != 1 {
			t.Errorf("%s: the model-driven planner must always choose compliant pipelines", ch)
		}
		if random.EffectiveScore > exhaustive.EffectiveScore+1e-9 {
			t.Errorf("%s: random baseline (%.3f) must not beat the model-driven planner (%.3f)",
				ch, random.EffectiveScore, exhaustive.EffectiveScore)
		}
	}
	if !strings.Contains(table.String(), "Table 3") {
		t.Error("rendering must carry the table title")
	}
}

func TestFigure3DeploymentCrossover(t *testing.T) {
	e := smallEnv(t)
	fig, err := RunFigure3(e, []int{1000, 100_000, 2_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Points) != 3 {
		t.Fatalf("points = %d", len(fig.Points))
	}
	last := fig.Points[len(fig.Points)-1]
	if !last.StreamMeetsSLA {
		t.Error("streaming must meet the freshness SLA at high volume")
	}
	if last.BatchMeetsSLA {
		t.Error("batch must miss the freshness SLA at high volume (the crossover)")
	}
	if last.StreamCost <= last.BatchCost {
		t.Error("streaming must cost more than batch for the same volume")
	}
	// Batch freshness must degrade with volume while streaming stays flat-ish.
	if fig.Points[0].BatchFreshnessS >= last.BatchFreshnessS {
		t.Error("batch freshness must degrade as volume grows")
	}
	if !strings.Contains(fig.String(), "Figure 3") {
		t.Error("rendering must carry the figure title")
	}
}

func TestFigure4TrialAndError(t *testing.T) {
	e := smallEnv(t)
	fig, err := RunFigure4(context.Background(), e, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Curves) != len(labs.TraineeStrategies()) {
		t.Fatalf("curves = %d", len(fig.Curves))
	}
	for strategy, curve := range fig.Curves {
		if len(curve) != 3 {
			t.Errorf("%s curve length = %d", strategy, len(curve))
		}
		for i := 1; i < len(curve); i++ {
			if curve[i] < curve[i-1] {
				t.Errorf("%s curve must be monotone non-decreasing", strategy)
			}
		}
	}
	guided := fig.Curves[labs.TraineeGuided]
	random := fig.Curves[labs.TraineeRandom]
	if guided[len(guided)-1]+1e-9 < random[len(random)-1] {
		t.Error("guided trainees must end at least as high as random trainees")
	}
	if !strings.Contains(fig.String(), "Figure 4") {
		t.Error("rendering must carry the figure title")
	}
}
