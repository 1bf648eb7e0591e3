package labs

import (
	"context"
	"errors"
	"testing"

	"repro/internal/model"
	"repro/internal/runner"
	"repro/internal/sla"
	"repro/internal/workload"
)

// smallLab builds a lab with reduced data sizes so tests stay fast.
func smallLab(t *testing.T) *Lab {
	t.Helper()
	lab, err := NewLab(Config{
		Seed:   7,
		Sizing: workload.Sizing{Customers: 250, Meters: 2, Days: 3, Users: 50},
	})
	if err != nil {
		t.Fatal(err)
	}
	return lab
}

func TestBuiltinChallengesAreValid(t *testing.T) {
	challenges := BuiltinChallenges()
	if len(challenges) != 5 {
		t.Fatalf("challenges = %d, want 5 (one per vertical)", len(challenges))
	}
	verticals := map[workload.Vertical]bool{}
	for _, ch := range challenges {
		if err := ch.Campaign.Validate(); err != nil {
			t.Errorf("challenge %s campaign invalid: %v", ch.ID, err)
		}
		if ch.Narrative == "" || ch.Title == "" || len(ch.DegreesOfFreedom) == 0 {
			t.Errorf("challenge %s is missing trainee-facing documentation", ch.ID)
		}
		if len(ch.Campaign.Objectives) < 2 {
			t.Errorf("challenge %s needs multiple objectives for meaningful trade-offs", ch.ID)
		}
		verticals[ch.Vertical] = true
	}
	if len(verticals) != 5 {
		t.Errorf("challenges cover %d verticals, want all 5", len(verticals))
	}
}

func TestNewLabAndChallengeLookup(t *testing.T) {
	lab := smallLab(t)
	if got := len(lab.Challenges()); got != 5 {
		t.Fatalf("lab challenges = %d, want 5", got)
	}
	ch, err := lab.Challenge("telco-churn")
	if err != nil || ch.Vertical != workload.VerticalTelco {
		t.Errorf("Challenge lookup = %+v, %v", ch, err)
	}
	if _, err := lab.Challenge("ghost"); !errors.Is(err, ErrUnknownChallenge) {
		t.Errorf("unknown challenge err = %v", err)
	}
	if lab.Data() == nil || lab.Compiler() == nil || lab.Planner() == nil {
		t.Error("lab accessors must be populated")
	}
	// Every challenge's data must be resolvable from the lab catalog.
	for _, ch := range lab.Challenges() {
		for _, src := range ch.Campaign.Sources {
			if _, err := lab.Data().Lookup(src.Table); err != nil {
				t.Errorf("challenge %s source %s not registered: %v", ch.ID, src.Table, err)
			}
		}
	}
}

func TestAlternativesPerChallenge(t *testing.T) {
	lab := smallLab(t)
	for _, ch := range lab.Challenges() {
		alternatives, err := lab.Alternatives(ch.ID)
		if err != nil {
			t.Errorf("alternatives for %s: %v", ch.ID, err)
			continue
		}
		if len(alternatives) < 4 {
			t.Errorf("challenge %s has only %d alternatives; trial-and-error needs options", ch.ID, len(alternatives))
		}
		compliant := 0
		for _, a := range alternatives {
			if a.Compliant() {
				compliant++
			}
		}
		if compliant == 0 {
			t.Errorf("challenge %s has no compliant alternative", ch.ID)
		}
	}
	if _, err := lab.Alternatives("ghost"); !errors.Is(err, ErrUnknownChallenge) {
		t.Error("unknown challenge must fail")
	}
}

func TestAttemptAndScoring(t *testing.T) {
	lab := smallLab(t)
	alternatives, err := lab.Alternatives("telco-churn")
	if err != nil {
		t.Fatal(err)
	}
	// Find one compliant and one non-compliant alternative with the same
	// analytics service family to compare scoring.
	compliantIdx, nonCompliantIdx := -1, -1
	for i, a := range alternatives {
		if a.Compliant() && compliantIdx < 0 {
			compliantIdx = i
		}
		if !a.Compliant() && nonCompliantIdx < 0 {
			nonCompliantIdx = i
		}
	}
	if compliantIdx < 0 || nonCompliantIdx < 0 {
		t.Fatal("need both compliant and non-compliant alternatives")
	}
	ctx := context.Background()
	good, err := lab.Attempt(ctx, "alice", "telco-churn", compliantIdx)
	if err != nil {
		t.Fatal(err)
	}
	if good.Score <= 0 || good.Score > 1 {
		t.Errorf("score = %v, want (0,1]", good.Score)
	}
	if good.Report == nil || good.Fingerprint == "" {
		t.Error("attempt must carry the run report and fingerprint")
	}
	bad, err := lab.Attempt(ctx, "alice", "telco-churn", nonCompliantIdx)
	if err != nil {
		t.Fatal(err)
	}
	if bad.Score >= good.Score {
		t.Errorf("non-compliant attempt score %.3f must be below compliant %.3f", bad.Score, good.Score)
	}
	if _, err := lab.Attempt(ctx, "alice", "telco-churn", len(alternatives)+5); !errors.Is(err, ErrUnknownAlternative) {
		t.Error("out-of-range alternative must fail")
	}
}

func TestScoreClampsAndPenalises(t *testing.T) {
	rep := &runner.Report{Compliant: true, Evaluation: sla.Evaluation{Score: 0.9, Feasible: true}}
	if got := score(rep); got != 0.9 {
		t.Errorf("score = %v", got)
	}
	rep.Compliant = false
	if got := score(rep); got >= 0.9*0.31 || got <= 0 {
		t.Errorf("non-compliant score = %v, want 0.27-ish", got)
	}
	if got := score(&runner.Report{Compliant: true, Evaluation: sla.Evaluation{Score: 1.4}}); got != 1 {
		t.Errorf("score must clamp to 1, got %v", got)
	}
}

func TestSessionCompareAndLeaderboard(t *testing.T) {
	lab := smallLab(t)
	session := NewSession(lab)
	ctx := context.Background()
	alternatives, err := lab.Alternatives("retail-baskets")
	if err != nil {
		t.Fatal(err)
	}
	// Two trainees, two attempts each on the same challenge.
	indices := []int{0, 1}
	if len(alternatives) < 2 {
		t.Fatal("need at least two alternatives")
	}
	for _, trainee := range []string{"alice", "bob"} {
		for _, idx := range indices {
			if _, err := session.Submit(ctx, trainee, "retail-baskets", idx); err != nil {
				t.Fatal(err)
			}
		}
	}
	attempts := session.Attempts()
	if len(attempts) != 4 {
		t.Fatalf("attempts = %d, want 4", len(attempts))
	}
	if attempts[1].Number != 2 {
		t.Errorf("second attempt of alice numbered %d, want 2", attempts[1].Number)
	}
	rows := Compare(attempts)
	if len(rows) != 4 {
		t.Fatalf("comparison rows = %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Score > rows[i-1].Score {
			t.Error("comparison must be sorted by descending score")
		}
	}
	board := session.Leaderboard()
	if len(board) != 2 {
		t.Fatalf("leaderboard entries = %d, want 2", len(board))
	}
	if board[0].BestTotal < board[1].BestTotal {
		t.Error("leaderboard must be sorted by descending best total")
	}
	for _, e := range board {
		if e.Attempts != 2 || e.Challenges != 1 {
			t.Errorf("leaderboard entry = %+v", e)
		}
	}
	// Compare must skip nil attempts defensively.
	if got := Compare([]*Attempt{nil}); len(got) != 0 {
		t.Error("nil attempts must be skipped")
	}
}

func TestSimulateTraineeGuidedBeatsRandom(t *testing.T) {
	lab := smallLab(t)
	ctx := context.Background()
	const attempts = 4
	guided, err := lab.SimulateTrainee(ctx, "telco-churn", TraineeGuided, attempts, 3)
	if err != nil {
		t.Fatal(err)
	}
	random, err := lab.SimulateTrainee(ctx, "telco-churn", TraineeRandom, attempts, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(guided) != attempts || len(random) != attempts {
		t.Fatalf("curve lengths = %d, %d", len(guided), len(random))
	}
	// Curves must be monotone non-decreasing (best-so-far).
	for i := 1; i < attempts; i++ {
		if guided[i] < guided[i-1] || random[i] < random[i-1] {
			t.Error("learning curves must be monotone non-decreasing")
		}
	}
	// The guided trainee must reach at least the random trainee's final score
	// already at the first attempt (the platform recommends a strong option
	// immediately).
	if guided[0]+1e-9 < random[0] {
		t.Errorf("guided first attempt %.3f should not trail random first attempt %.3f", guided[0], random[0])
	}
	if guided[attempts-1]+1e-9 < random[attempts-1] {
		t.Errorf("guided final %.3f must be >= random final %.3f", guided[attempts-1], random[attempts-1])
	}
}

func TestSimulateTraineeValidation(t *testing.T) {
	lab := smallLab(t)
	ctx := context.Background()
	if _, err := lab.SimulateTrainee(ctx, "telco-churn", TraineeGuided, 0, 1); err == nil {
		t.Error("zero attempts must fail")
	}
	if _, err := lab.SimulateTrainee(ctx, "ghost", TraineeGuided, 1, 1); !errors.Is(err, ErrUnknownChallenge) {
		t.Error("unknown challenge must fail")
	}
	if _, err := lab.SimulateTrainee(ctx, "telco-churn", TraineeStrategy("psychic"), 1, 1); err == nil {
		t.Error("unknown strategy must fail")
	}
	// Requesting more attempts than alternatives clamps rather than failing.
	curve, err := lab.SimulateTrainee(ctx, "web-funnel", TraineeGreedy, 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	alts, _ := lab.Alternatives("web-funnel")
	if len(curve) != len(alts) {
		t.Errorf("curve length %d, want clamp to %d alternatives", len(curve), len(alts))
	}
	if len(TraineeStrategies()) != 3 {
		t.Error("expected 3 trainee strategies")
	}
}

func TestChallengeObjectivesDriveScores(t *testing.T) {
	// The churn challenge weights accuracy and privacy as hard objectives;
	// the chosen best alternative by the platform must be feasible on
	// estimates for the challenge to be solvable.
	lab := smallLab(t)
	ch, _ := lab.Challenge("telco-churn")
	result, err := lab.Compiler().Compile(ch.Campaign)
	if err != nil {
		t.Fatal(err)
	}
	if !result.Chosen.Evaluation.Feasible {
		t.Errorf("built-in churn challenge is unsolvable on estimates:\n%s", result.Chosen.Evaluation.Summary())
	}
	if _, ok := ch.Campaign.ObjectiveFor(model.IndicatorPrivacy); !ok {
		t.Error("churn challenge must include a privacy objective")
	}
}
