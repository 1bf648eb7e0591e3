// Package planner implements campaign planning strategies over the design
// space enumerated by the core compiler: the exhaustive model-driven search
// the platform performs for its users, a cheaper greedy heuristic, and a
// random-sampling baseline that models the "manual trial and error" of a user
// without the platform.
package planner

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/sla"
)

// Strategy selects how the planner explores the design space.
type Strategy string

// Supported strategies.
const (
	// StrategyExhaustive scores every alternative (the platform default).
	StrategyExhaustive Strategy = "exhaustive"
	// StrategyGreedy fixes one design dimension at a time, exploring only a
	// fraction of the space.
	StrategyGreedy Strategy = "greedy"
	// StrategyRandom samples K alternatives uniformly at random — the
	// "manual" baseline of a user poking at the platform without guidance.
	StrategyRandom Strategy = "random"
)

// Strategies returns every supported strategy.
func Strategies() []Strategy {
	return []Strategy{StrategyExhaustive, StrategyGreedy, StrategyRandom}
}

// Valid reports whether s is a known strategy.
func (s Strategy) Valid() bool {
	for _, known := range Strategies() {
		if s == known {
			return true
		}
	}
	return false
}

// Errors returned by the planner.
var (
	ErrBadStrategy = errors.New("planner: unknown strategy")
	ErrNoDecision  = errors.New("planner: strategy found no acceptable alternative")
)

// Decision is the outcome of planning one campaign.
type Decision struct {
	// Strategy that produced the decision.
	Strategy Strategy
	// Chosen alternative.
	Chosen core.Alternative
	// Score is the chosen alternative's estimated objective score.
	Score float64
	// Compliant reports whether the chosen alternative passes the compliance
	// rules. The random "manual" baseline has no compliance engine, so it can
	// end up choosing a non-compliant pipeline.
	Compliant bool
	// EffectiveScore is the score after the Labs' non-compliance discount;
	// it is what the strategies are compared on.
	EffectiveScore float64
	// Feasible reports whether the chosen alternative meets every hard
	// objective (on estimates).
	Feasible bool
	// Explored is the number of alternatives the strategy evaluated.
	Explored int
	// TotalAlternatives is the size of the full design space.
	TotalAlternatives int
	// Elapsed is the planning wall-clock time (excluding enumeration).
	Elapsed time.Duration
}

// Planner plans campaigns using a compiler's design-space enumeration.
type Planner struct {
	compiler *core.Compiler
	// RandomSamples is the number of alternatives the random baseline may
	// examine (default 3, emulating a handful of manual attempts).
	RandomSamples int
	// Seed drives the random baseline.
	Seed int64
}

// New returns a planner over the given compiler.
func New(compiler *core.Compiler) (*Planner, error) {
	if compiler == nil {
		return nil, fmt.Errorf("planner: nil compiler")
	}
	return &Planner{compiler: compiler, RandomSamples: 3, Seed: 1}, nil
}

// Plan enumerates the campaign's design space and applies the strategy.
func (p *Planner) Plan(campaign *model.Campaign, strategy Strategy) (Decision, error) {
	if !strategy.Valid() {
		return Decision{}, fmt.Errorf("%w: %q", ErrBadStrategy, strategy)
	}
	alternatives, _, err := p.compiler.EnumerateAlternatives(campaign)
	if err != nil {
		return Decision{}, err
	}
	return p.PlanOver(campaign, alternatives, strategy)
}

// PlanOver applies the strategy to an already enumerated design space; used
// by the Labs and the benchmarks to compare strategies on identical inputs.
func (p *Planner) PlanOver(campaign *model.Campaign, alternatives []core.Alternative, strategy Strategy) (Decision, error) {
	start := time.Now()
	var chosen core.Alternative
	var explored int
	var err error
	switch strategy {
	case StrategyExhaustive:
		chosen, explored, err = p.planExhaustive(campaign, alternatives)
	case StrategyGreedy:
		chosen, explored, err = p.planGreedy(campaign, alternatives)
	case StrategyRandom:
		chosen, explored, err = p.planRandom(campaign, alternatives)
	default:
		return Decision{}, fmt.Errorf("%w: %q", ErrBadStrategy, strategy)
	}
	if err != nil {
		return Decision{}, err
	}
	effective := chosen.Evaluation.Score
	if !chosen.Compliant() {
		// Mirror the Labs scoring: non-compliant pipelines are sharply
		// discounted when strategies are compared.
		effective *= 0.3
	}
	return Decision{
		Strategy:          strategy,
		Chosen:            chosen,
		Score:             chosen.Evaluation.Score,
		Compliant:         chosen.Compliant(),
		EffectiveScore:    effective,
		Feasible:          chosen.Evaluation.Feasible,
		Explored:          explored,
		TotalAlternatives: len(alternatives),
		Elapsed:           time.Since(start),
	}, nil
}

func (p *Planner) planExhaustive(campaign *model.Campaign, alternatives []core.Alternative) (core.Alternative, int, error) {
	best, err := core.SelectBest(campaign, alternatives)
	if err != nil {
		return core.Alternative{}, len(alternatives), fmt.Errorf("%w: %v", ErrNoDecision, err)
	}
	return best, len(alternatives), nil
}

// planGreedy fixes the analytics service first (highest catalog quality among
// compliant alternatives), then the cheapest compliant alternative using that
// service. It explores far fewer options than the exhaustive strategy and can
// therefore miss globally better trade-offs.
func (p *Planner) planGreedy(campaign *model.Campaign, alternatives []core.Alternative) (core.Alternative, int, error) {
	compliant := make([]core.Alternative, 0, len(alternatives))
	for _, a := range alternatives {
		if a.Compliant() && withinBudget(campaign, a) {
			compliant = append(compliant, a)
		}
	}
	if len(compliant) == 0 {
		return core.Alternative{}, len(alternatives), fmt.Errorf("%w: no compliant alternative", ErrNoDecision)
	}
	// Step 1: the analytics service with the highest catalog quality.
	bestQuality := -1.0
	bestService := ""
	explored := 0
	for _, a := range compliant {
		explored++
		step, ok := a.Composition.AnalyticsStep()
		if !ok {
			continue
		}
		if step.Service.Quality > bestQuality {
			bestQuality = step.Service.Quality
			bestService = step.Service.ID
		}
	}
	// Step 2: among alternatives with that service, pick the cheapest.
	var candidates []core.Alternative
	for _, a := range compliant {
		if step, ok := a.Composition.AnalyticsStep(); ok && step.Service.ID == bestService {
			candidates = append(candidates, a)
		}
	}
	sort.SliceStable(candidates, func(i, j int) bool {
		ci, _ := candidates[i].Estimates.Get(model.IndicatorCost)
		cj, _ := candidates[j].Estimates.Get(model.IndicatorCost)
		if ci != cj {
			return ci < cj
		}
		return candidates[i].Index < candidates[j].Index
	})
	return candidates[0], explored, nil
}

// planRandom models a user manually trying a handful of configurations
// without the platform's guidance: it samples RandomSamples alternatives
// uniformly and keeps the best by estimated objective score. Crucially, the
// manual baseline has no compliance engine, so the choice it returns may be
// non-compliant — that is exactly the "regulatory barrier" risk the paper
// argues the platform removes.
func (p *Planner) planRandom(campaign *model.Campaign, alternatives []core.Alternative) (core.Alternative, int, error) {
	if len(alternatives) == 0 {
		return core.Alternative{}, 0, fmt.Errorf("%w: empty design space", ErrNoDecision)
	}
	samples := p.RandomSamples
	if samples < 1 {
		samples = 1
	}
	if samples > len(alternatives) {
		samples = len(alternatives)
	}
	rng := rand.New(rand.NewSource(p.Seed))
	perm := rng.Perm(len(alternatives))
	var best *core.Alternative
	for _, idx := range perm[:samples] {
		a := alternatives[idx]
		if !withinBudget(campaign, a) {
			continue
		}
		if best == nil || sla.Compare(a.Evaluation, best.Evaluation) > 0 {
			copyA := a
			best = &copyA
		}
	}
	if best == nil {
		return core.Alternative{}, samples, fmt.Errorf("%w: none of the %d sampled alternatives fits the budget", ErrNoDecision, samples)
	}
	return *best, samples, nil
}

func withinBudget(campaign *model.Campaign, a core.Alternative) bool {
	if campaign.Preferences.MaxBudget <= 0 {
		return true
	}
	cost, ok := a.Estimates.Get(model.IndicatorCost)
	return !ok || cost <= campaign.Preferences.MaxBudget
}

// Regret is the effective-score gap between a decision and the best
// achievable decision on the same design space (0 = optimal). Effective
// scores include the non-compliance discount, so a manual baseline that
// unknowingly picks a non-compliant pipeline shows a large regret.
func Regret(decision Decision, optimal Decision) float64 {
	r := optimal.EffectiveScore - decision.EffectiveScore
	if r < 0 {
		return 0
	}
	return r
}
