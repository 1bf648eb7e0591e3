// Package labs implements TOREADOR Labs: the training environment the paper
// demonstrates. It offers a set of challenges built on simplified vertical
// scenarios; trainees pick design alternatives for a challenge, execute them
// ("trial and error"), compare the consequences of their choices across runs,
// and are scored against the challenge's business objectives.
package labs

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/planner"
	"repro/internal/runner"
	"repro/internal/sla"
	"repro/internal/storage"
	"repro/internal/workload"
)

// Errors returned by the lab.
var (
	ErrUnknownChallenge   = errors.New("labs: unknown challenge")
	ErrUnknownAlternative = errors.New("labs: unknown alternative")
)

// Challenge is one Labs exercise: a vertical scenario plus a declarative
// campaign skeleton with business objectives, and the design dimensions the
// trainee is expected to explore.
type Challenge struct {
	// ID identifies the challenge.
	ID string
	// Title is the short display name.
	Title string
	// Vertical names the scenario the challenge runs on.
	Vertical workload.Vertical
	// Narrative is the business-perspective description shown to trainees.
	Narrative string
	// Campaign is the declarative skeleton (goal, sources, objectives,
	// regime) the trainee's alternatives are compiled from.
	Campaign *model.Campaign
	// DegreesOfFreedom documents the design choices left to the trainee.
	DegreesOfFreedom []string
}

// BuiltinChallenges returns the five standard Labs challenges, one per
// vertical scenario.
func BuiltinChallenges() []Challenge {
	return []Challenge{
		{
			ID:       "telco-churn",
			Title:    "Reduce churn at a telco operator",
			Vertical: workload.VerticalTelco,
			Narrative: "The operator loses a quarter of its subscribers every year. Build a campaign that " +
				"predicts which subscribers are about to churn, while respecting the subscribers' privacy.",
			Campaign: &model.Campaign{
				Name:     "telco-churn",
				Vertical: string(workload.VerticalTelco),
				Goal: model.Goal{
					Task:           model.TaskClassification,
					Description:    "predict churned subscribers from usage and support history",
					TargetTable:    "telco_customers",
					LabelColumn:    "churned",
					FeatureColumns: []string{"tenure_months", "monthly_charge", "support_calls", "dropped_calls", "data_usage_gb"},
				},
				Sources: []model.DataSource{{Table: "telco_customers", ContainsPersonalData: true, Region: "eu"}},
				Objectives: []model.Objective{
					// The accuracy bar sits above what the majority-class
					// baseline reaches on this scenario, so only genuinely
					// trained classifiers satisfy the hard objective.
					{Indicator: model.IndicatorAccuracy, Comparison: model.AtLeast, Target: 0.78, Hard: true, Weight: 3},
					{Indicator: model.IndicatorCost, Comparison: model.AtMost, Target: 2.0, Weight: 2},
					{Indicator: model.IndicatorLatency, Comparison: model.AtMost, Target: 30_000},
					{Indicator: model.IndicatorPrivacy, Comparison: model.AtLeast, Target: 0.8, Hard: true},
				},
				Regime: model.RegimePseudonymize,
			},
			DegreesOfFreedom: []string{"classifier choice", "anonymisation strength", "normalisation", "display style"},
		},
		{
			ID:       "payment-fraud",
			Title:    "Spot fraudulent card payments",
			Vertical: workload.VerticalFinance,
			Narrative: "A payment processor needs near-real-time detection of fraudulent transactions " +
				"without exporting raw card data to analysts.",
			Campaign: &model.Campaign{
				Name:     "payment-fraud",
				Vertical: string(workload.VerticalFinance),
				Goal: model.Goal{
					Task:        model.TaskAnomaly,
					Description: "flag anomalous transactions for manual review",
					TargetTable: "payments",
					ValueColumn: "amount",
					LabelColumn: "fraud",
				},
				Sources: []model.DataSource{{Table: "payments", ContainsPersonalData: true, Region: "eu"}},
				Objectives: []model.Objective{
					{Indicator: model.IndicatorAccuracy, Comparison: model.AtLeast, Target: 0.3, Hard: true, Weight: 3},
					{Indicator: model.IndicatorFreshness, Comparison: model.AtMost, Target: 5, Weight: 2},
					{Indicator: model.IndicatorCost, Comparison: model.AtMost, Target: 3.0},
					{Indicator: model.IndicatorPrivacy, Comparison: model.AtLeast, Target: 0.8, Hard: true},
				},
				Regime:      model.RegimePseudonymize,
				Preferences: model.Preferences{Streaming: true},
			},
			DegreesOfFreedom: []string{"detector choice", "batch vs streaming deployment", "anonymisation strength"},
		},
		{
			ID:       "energy-forecast",
			Title:    "Forecast household energy demand",
			Vertical: workload.VerticalEnergy,
			Narrative: "A utility wants day-ahead consumption forecasts from smart-meter data; household " +
				"identities are personal data under a strict national regulation.",
			Campaign: &model.Campaign{
				Name:     "energy-forecast",
				Vertical: string(workload.VerticalEnergy),
				Goal: model.Goal{
					Task:        model.TaskForecasting,
					Description: "forecast hourly consumption",
					TargetTable: "meter_readings",
					ValueColumn: "kwh",
					TimeColumn:  "read_at",
				},
				Sources: []model.DataSource{{Table: "meter_readings", ContainsPersonalData: true, Region: "eu"}},
				Objectives: []model.Objective{
					{Indicator: model.IndicatorAccuracy, Comparison: model.AtLeast, Target: 0.5, Hard: true, Weight: 3},
					{Indicator: model.IndicatorCost, Comparison: model.AtMost, Target: 2.0},
					{Indicator: model.IndicatorPrivacy, Comparison: model.AtLeast, Target: 0.9, Hard: true},
				},
				Regime: model.RegimeStrict,
			},
			DegreesOfFreedom: []string{"forecasting model", "anonymisation strength", "display style"},
		},
		{
			ID:       "retail-baskets",
			Title:    "Find cross-selling opportunities in baskets",
			Vertical: workload.VerticalRetail,
			Narrative: "A grocery chain wants association rules between products to drive shelf placement; " +
				"basket data carries no personal information.",
			Campaign: &model.Campaign{
				Name:     "retail-baskets",
				Vertical: string(workload.VerticalRetail),
				Goal: model.Goal{
					Task:              model.TaskAssociation,
					Description:       "mine product association rules",
					TargetTable:       "retail_baskets",
					ItemColumn:        "product",
					TransactionColumn: "basket_id",
				},
				Sources: []model.DataSource{{Table: "retail_baskets", Region: "eu"}},
				Objectives: []model.Objective{
					{Indicator: model.IndicatorAccuracy, Comparison: model.AtLeast, Target: 0.5, Hard: true, Weight: 2},
					{Indicator: model.IndicatorCost, Comparison: model.AtMost, Target: 2.0},
					{Indicator: model.IndicatorLatency, Comparison: model.AtMost, Target: 30_000},
				},
				Regime: model.RegimeNone,
			},
			DegreesOfFreedom: []string{"support/confidence thresholds", "display style", "deployment"},
		},
		{
			ID:       "web-funnel",
			Title:    "Understand the purchase funnel",
			Vertical: workload.VerticalWeb,
			Narrative: "An e-commerce site wants session-level conversion analysis over its clickstream; " +
				"IP addresses are personal data.",
			Campaign: &model.Campaign{
				Name:     "web-funnel",
				Vertical: string(workload.VerticalWeb),
				Goal: model.Goal{
					Task:        model.TaskSessionization,
					Description: "group events into sessions and measure conversion",
					TargetTable: "clickstream",
					TimeColumn:  "occurred_at",
					LabelColumn: "converted",
				},
				Sources: []model.DataSource{{Table: "clickstream", ContainsPersonalData: true, Region: "eu"}},
				Objectives: []model.Objective{
					{Indicator: model.IndicatorAccuracy, Comparison: model.AtLeast, Target: 0.5, Hard: true},
					{Indicator: model.IndicatorCost, Comparison: model.AtMost, Target: 1.0, Weight: 2},
					{Indicator: model.IndicatorPrivacy, Comparison: model.AtLeast, Target: 0.8, Hard: true},
				},
				Regime: model.RegimePseudonymize,
			},
			DegreesOfFreedom: []string{"session timeout", "anonymisation strength", "deployment"},
		},
	}
}

// Config controls lab construction.
type Config struct {
	// Seed drives scenario generation and simulated trainees.
	Seed int64
	// Sizing controls how much data each scenario gets (zero = defaults).
	Sizing workload.Sizing
}

// Lab is a running TOREADOR Labs instance: generated scenario data, the
// model-driven compiler, the pipeline runner and the registered challenges.
type Lab struct {
	data       *storage.Catalog
	compiler   *core.Compiler
	runner     *runner.Runner
	planner    *planner.Planner
	challenges map[string]Challenge
	order      []string
	seed       int64
}

// NewLab generates every vertical scenario and registers the built-in
// challenges.
func NewLab(cfg Config) (*Lab, error) {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	data := storage.NewCatalog()
	gen := workload.NewGenerator(cfg.Seed)
	for _, v := range workload.Verticals() {
		sc, err := gen.Generate(v, cfg.Sizing)
		if err != nil {
			return nil, fmt.Errorf("labs: generate %s scenario: %w", v, err)
		}
		if err := sc.Register(data); err != nil {
			return nil, err
		}
	}
	compiler, err := core.NewCompiler(data)
	if err != nil {
		return nil, err
	}
	run, err := runner.New(data, runner.WithSeed(cfg.Seed))
	if err != nil {
		return nil, err
	}
	plan, err := planner.New(compiler)
	if err != nil {
		return nil, err
	}
	lab := &Lab{
		data:       data,
		compiler:   compiler,
		runner:     run,
		planner:    plan,
		challenges: map[string]Challenge{},
		seed:       cfg.Seed,
	}
	for _, ch := range BuiltinChallenges() {
		if err := ch.Campaign.Validate(); err != nil {
			return nil, fmt.Errorf("labs: built-in challenge %s: %w", ch.ID, err)
		}
		lab.challenges[ch.ID] = ch
		lab.order = append(lab.order, ch.ID)
	}
	return lab, nil
}

// Data exposes the lab's data catalog (read-only use).
func (l *Lab) Data() *storage.Catalog { return l.data }

// Compiler exposes the lab's compiler.
func (l *Lab) Compiler() *core.Compiler { return l.compiler }

// Planner exposes the lab's planner.
func (l *Lab) Planner() *planner.Planner { return l.planner }

// Challenges returns the registered challenges in registration order.
func (l *Lab) Challenges() []Challenge {
	out := make([]Challenge, 0, len(l.order))
	for _, id := range l.order {
		out = append(out, l.challenges[id])
	}
	return out
}

// Challenge returns the challenge with the given id.
func (l *Lab) Challenge(id string) (Challenge, error) {
	ch, ok := l.challenges[id]
	if !ok {
		return Challenge{}, fmt.Errorf("%w: %q", ErrUnknownChallenge, id)
	}
	return ch, nil
}

// Alternatives enumerates the design space of a challenge.
func (l *Lab) Alternatives(challengeID string) ([]core.Alternative, error) {
	ch, err := l.Challenge(challengeID)
	if err != nil {
		return nil, err
	}
	alternatives, _, err := l.compiler.EnumerateAlternatives(ch.Campaign)
	if err != nil {
		return nil, fmt.Errorf("labs: enumerate %s: %w", challengeID, err)
	}
	return alternatives, nil
}

// Attempt is one executed trainee choice.
type Attempt struct {
	// Trainee who submitted the attempt.
	Trainee string
	// ChallengeID the attempt belongs to.
	ChallengeID string
	// AlternativeIndex identifies the chosen alternative within the
	// challenge's enumerated design space.
	AlternativeIndex int
	// Fingerprint of the chosen alternative.
	Fingerprint string
	// Report is the measured execution report.
	Report *runner.Report
	// Score is the Labs score of the attempt in [0,1].
	Score float64
	// Number is the attempt's 1-based sequence number for this trainee and
	// challenge.
	Number int
	// Elapsed is the run wall time.
	Elapsed time.Duration
}

// score converts a measured run into the Labs score: the SLA score of the
// measured indicators, sharply discounted for non-compliant pipelines.
func score(report *runner.Report) float64 {
	s := report.Evaluation.Score
	if !report.Compliant {
		s *= 0.3
	}
	if s < 0 {
		s = 0
	}
	if s > 1 {
		s = 1
	}
	return s
}

// Attempt executes the alternative with the given index from the challenge's
// design space on behalf of trainee and records the attempt.
func (l *Lab) Attempt(ctx context.Context, trainee, challengeID string, alternativeIndex int) (*Attempt, error) {
	ch, err := l.Challenge(challengeID)
	if err != nil {
		return nil, err
	}
	alternatives, err := l.Alternatives(challengeID)
	if err != nil {
		return nil, err
	}
	if alternativeIndex < 0 || alternativeIndex >= len(alternatives) {
		return nil, fmt.Errorf("%w: index %d of %d", ErrUnknownAlternative, alternativeIndex, len(alternatives))
	}
	alt := alternatives[alternativeIndex]
	start := time.Now()
	report, err := l.runner.Run(ctx, ch.Campaign, alt)
	if err != nil {
		return nil, fmt.Errorf("labs: run attempt: %w", err)
	}
	attempt := &Attempt{
		Trainee:          trainee,
		ChallengeID:      challengeID,
		AlternativeIndex: alternativeIndex,
		Fingerprint:      alt.Fingerprint(),
		Report:           report,
		Score:            score(report),
		Elapsed:          time.Since(start),
	}
	return attempt, nil
}

// ComparisonRow is one line of the side-by-side comparison of attempts, the
// capability the paper highlights as missing from professional platforms
// ("compare different runs of a composite BDA").
type ComparisonRow struct {
	Fingerprint string
	Trainee     string
	Score       float64
	Compliant   bool
	Feasible    bool
	Measured    sla.Measurement
}

// Compare lays attempts side by side, sorted by descending score.
func Compare(attempts []*Attempt) []ComparisonRow {
	rows := make([]ComparisonRow, 0, len(attempts))
	for _, a := range attempts {
		if a == nil || a.Report == nil {
			continue
		}
		rows = append(rows, ComparisonRow{
			Fingerprint: a.Fingerprint,
			Trainee:     a.Trainee,
			Score:       a.Score,
			Compliant:   a.Report.Compliant,
			Feasible:    a.Report.Evaluation.Feasible,
			Measured:    a.Report.Measured,
		})
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].Score > rows[j].Score })
	return rows
}

// Session records a trainee's attempts across challenges and produces the
// leaderboard.
type Session struct {
	lab      *Lab
	attempts []*Attempt
}

// NewSession returns an empty session on the lab.
func NewSession(lab *Lab) *Session { return &Session{lab: lab} }

// Submit runs and records an attempt.
func (s *Session) Submit(ctx context.Context, trainee, challengeID string, alternativeIndex int) (*Attempt, error) {
	attempt, err := s.lab.Attempt(ctx, trainee, challengeID, alternativeIndex)
	if err != nil {
		return nil, err
	}
	attempt.Number = s.countFor(trainee, challengeID) + 1
	s.attempts = append(s.attempts, attempt)
	return attempt, nil
}

func (s *Session) countFor(trainee, challengeID string) int {
	n := 0
	for _, a := range s.attempts {
		if a.Trainee == trainee && a.ChallengeID == challengeID {
			n++
		}
	}
	return n
}

// Attempts returns every recorded attempt in submission order.
func (s *Session) Attempts() []*Attempt {
	return append([]*Attempt(nil), s.attempts...)
}

// LeaderboardEntry is one row of the session leaderboard.
type LeaderboardEntry struct {
	Trainee    string
	Challenges int
	Attempts   int
	// BestTotal is the sum over challenges of the trainee's best score.
	BestTotal float64
}

// Leaderboard ranks trainees by the sum of their best per-challenge scores.
func (s *Session) Leaderboard() []LeaderboardEntry {
	type key struct{ trainee, challenge string }
	best := map[key]float64{}
	attempts := map[string]int{}
	for _, a := range s.attempts {
		k := key{a.Trainee, a.ChallengeID}
		if a.Score > best[k] {
			best[k] = a.Score
		}
		attempts[a.Trainee]++
	}
	perTrainee := map[string]*LeaderboardEntry{}
	for k, score := range best {
		e, ok := perTrainee[k.trainee]
		if !ok {
			e = &LeaderboardEntry{Trainee: k.trainee}
			perTrainee[k.trainee] = e
		}
		e.Challenges++
		e.BestTotal += score
	}
	var out []LeaderboardEntry
	for trainee, e := range perTrainee {
		e.Attempts = attempts[trainee]
		out = append(out, *e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].BestTotal != out[j].BestTotal {
			return out[i].BestTotal > out[j].BestTotal
		}
		return out[i].Trainee < out[j].Trainee
	})
	return out
}

// TraineeStrategy models how a simulated trainee picks the next alternative.
type TraineeStrategy string

// Supported simulated-trainee strategies.
const (
	// TraineeRandom tries alternatives in random order.
	TraineeRandom TraineeStrategy = "random"
	// TraineeGreedy tries compliant alternatives in descending estimated
	// score order but only looks at the static estimates (no platform
	// guidance about measured results).
	TraineeGreedy TraineeStrategy = "greedy"
	// TraineeGuided follows the platform's recommendation order (compliant,
	// feasible, best estimated evaluation first) — the behaviour TOREADOR
	// Labs is designed to teach.
	TraineeGuided TraineeStrategy = "guided"
)

// TraineeStrategies returns every simulated strategy.
func TraineeStrategies() []TraineeStrategy {
	return []TraineeStrategy{TraineeRandom, TraineeGreedy, TraineeGuided}
}

// SimulateTrainee runs maxAttempts attempts on the challenge using the given
// strategy and returns the best score seen after each attempt (a learning
// curve, reproduced as Figure 4).
func (l *Lab) SimulateTrainee(ctx context.Context, challengeID string, strategy TraineeStrategy, maxAttempts int, seed int64) ([]float64, error) {
	if maxAttempts < 1 {
		return nil, fmt.Errorf("labs: maxAttempts must be positive")
	}
	ch, err := l.Challenge(challengeID)
	if err != nil {
		return nil, err
	}
	alternatives, err := l.Alternatives(challengeID)
	if err != nil {
		return nil, err
	}
	order, err := attemptOrder(ch, alternatives, strategy, seed)
	if err != nil {
		return nil, err
	}
	if maxAttempts > len(order) {
		maxAttempts = len(order)
	}
	curve := make([]float64, 0, maxAttempts)
	best := 0.0
	for i := 0; i < maxAttempts; i++ {
		alt := alternatives[order[i]]
		report, err := l.runner.Run(ctx, ch.Campaign, alt)
		if err != nil {
			return nil, fmt.Errorf("labs: simulate attempt %d: %w", i+1, err)
		}
		if s := score(report); s > best {
			best = s
		}
		curve = append(curve, best)
	}
	return curve, nil
}

// attemptOrder decides the order in which a simulated trainee explores the
// design space.
func attemptOrder(ch Challenge, alternatives []core.Alternative, strategy TraineeStrategy, seed int64) ([]int, error) {
	indices := make([]int, len(alternatives))
	for i := range indices {
		indices[i] = i
	}
	switch strategy {
	case TraineeRandom:
		rng := rand.New(rand.NewSource(seed))
		rng.Shuffle(len(indices), func(i, j int) { indices[i], indices[j] = indices[j], indices[i] })
		return indices, nil
	case TraineeGreedy:
		// Estimated score order, ignoring compliance (the unguided trainee
		// does not know the regulatory consequences yet).
		sort.SliceStable(indices, func(a, b int) bool {
			return alternatives[indices[a]].Evaluation.Score > alternatives[indices[b]].Evaluation.Score
		})
		return indices, nil
	case TraineeGuided:
		sort.SliceStable(indices, func(a, b int) bool {
			ia, ib := alternatives[indices[a]], alternatives[indices[b]]
			if ia.Compliant() != ib.Compliant() {
				return ia.Compliant()
			}
			if cmp := sla.Compare(ia.Evaluation, ib.Evaluation); cmp != 0 {
				return cmp > 0
			}
			ca, _ := ia.Estimates.Get(model.IndicatorCost)
			cb, _ := ib.Estimates.Get(model.IndicatorCost)
			return ca < cb
		})
		return indices, nil
	default:
		return nil, fmt.Errorf("labs: unknown trainee strategy %q", strategy)
	}
}
