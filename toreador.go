// Package toreador is the public entry point of the TOREADOR reproduction: a
// model-driven Big Data Analytics-as-a-Service platform plus the TOREADOR
// Labs training environment described in "Scouting Big Data Campaigns using
// TOREADOR Labs" (EDBT 2017 workshops).
//
// The BDAaaS function of the paper — declarative goals in, ready-to-be-
// executed pipeline out — is exposed through the Platform type:
//
//	platform, _ := toreador.New(toreador.Config{Seed: 1})
//	platform.RegisterScenario(toreador.VerticalTelco, toreador.Sizing{})
//	campaign := &toreador.Campaign{ ... }          // declarative model
//	result, _ := platform.Compile(campaign)        // procedural + deployment model
//	report, _ := platform.Run(ctx, campaign, result.Chosen) // measured pipeline run
//
// The Labs environment (challenges, attempts, scoring, comparisons) is
// exposed through OpenLab. Everything is implemented on an in-process
// simulated Big Data substrate; see DESIGN.md for the substitutions made with
// respect to the paper's Spark-based deployment.
package toreador

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/labs"
	"repro/internal/model"
	"repro/internal/planner"
	"repro/internal/repo"
	"repro/internal/runner"
	"repro/internal/service"
	"repro/internal/storage"
	"repro/internal/store"
	"repro/internal/workload"
)

// Re-exported declarative-model types: users of the library describe
// campaigns entirely in terms of these.
type (
	// Campaign is the declarative model of a Big Data campaign.
	Campaign = model.Campaign
	// Goal describes what the campaign must achieve.
	Goal = model.Goal
	// Objective is a target on a standard indicator.
	Objective = model.Objective
	// DataSource references a registered dataset.
	DataSource = model.DataSource
	// Preferences carries the user's non-functional choices.
	Preferences = model.Preferences
	// Indicator names a measurable property of a campaign.
	Indicator = model.Indicator
	// AnalyticsTask enumerates the supported analytics goals.
	AnalyticsTask = model.AnalyticsTask
	// PrivacyRegime classifies the regulatory constraints on the data.
	PrivacyRegime = model.PrivacyRegime
	// Comparison is the relational operator of an objective.
	Comparison = model.Comparison
)

// Re-exported execution and planning types.
type (
	// CompileResult is the outcome of compiling a campaign.
	CompileResult = core.CompileResult
	// Alternative is one fully elaborated design option.
	Alternative = core.Alternative
	// InterferencePoint reports surviving options per privacy regime.
	InterferencePoint = core.InterferencePoint
	// WhatIfReport compares two campaign variants.
	WhatIfReport = core.WhatIfReport
	// Report is the measured outcome of running an alternative.
	Report = runner.Report
	// Decision is the outcome of planning a campaign.
	Decision = planner.Decision
	// Strategy selects a planning strategy.
	Strategy = planner.Strategy
	// RunRecord is a persisted run summary.
	RunRecord = repo.RunRecord
	// Scenario bundles the generated tables of a vertical.
	Scenario = workload.Scenario
	// Sizing controls generated data volumes.
	Sizing = workload.Sizing
	// Vertical identifies an application domain.
	Vertical = workload.Vertical
	// Table is an in-memory dataset registered with the platform.
	Table = storage.Table
	// Lab is a running TOREADOR Labs instance.
	Lab = labs.Lab
	// Challenge is one Labs exercise.
	Challenge = labs.Challenge
	// Attempt is one executed trainee choice.
	Attempt = labs.Attempt
	// LabSession records attempts and builds leaderboards.
	LabSession = labs.Session
	// TraineeStrategy models a simulated trainee.
	TraineeStrategy = labs.TraineeStrategy
)

// Re-exported service-runtime types: the long-running multi-tenant analytics
// service that wraps the pipeline runner with admission control, SLA-aware
// scheduling, deadlines, retries and graceful degradation.
type (
	// Service is the multi-tenant analytics service runtime.
	Service = service.Service
	// ServiceConfig sizes the service's queue, worker pool and retry policy.
	ServiceConfig = service.Config
	// TenantConfig is a tenant's token-bucket admission budget.
	TenantConfig = service.TenantConfig
	// Ticket tracks one admitted campaign submission to completion.
	Ticket = service.Ticket
	// TicketStatus is a submission's lifecycle state.
	TicketStatus = service.Status
)

// Re-exported service admission errors.
var (
	ErrOverloaded  = service.ErrOverloaded
	ErrRateLimited = service.ErrRateLimited
	ErrShed        = service.ErrShed
	ErrDraining    = service.ErrDraining
)

// Re-exported ticket statuses.
const (
	StatusQueued    = service.StatusQueued
	StatusRunning   = service.StatusRunning
	StatusCompleted = service.StatusCompleted
	StatusShed      = service.StatusShed
	StatusFailed    = service.StatusFailed
)

// Re-exported analytics task constants.
const (
	TaskClassification = model.TaskClassification
	TaskClustering     = model.TaskClustering
	TaskAssociation    = model.TaskAssociation
	TaskAnomaly        = model.TaskAnomaly
	TaskForecasting    = model.TaskForecasting
	TaskSessionization = model.TaskSessionization
	TaskReporting      = model.TaskReporting
)

// Re-exported indicator constants.
const (
	IndicatorAccuracy   = model.IndicatorAccuracy
	IndicatorLatency    = model.IndicatorLatency
	IndicatorCost       = model.IndicatorCost
	IndicatorThroughput = model.IndicatorThroughput
	IndicatorPrivacy    = model.IndicatorPrivacy
	IndicatorFreshness  = model.IndicatorFreshness
)

// Re-exported comparison and regime constants.
const (
	AtLeast = model.AtLeast
	AtMost  = model.AtMost

	RegimeNone         = model.RegimeNone
	RegimeInternal     = model.RegimeInternal
	RegimePseudonymize = model.RegimePseudonymize
	RegimeStrict       = model.RegimeStrict
)

// Re-exported vertical constants.
const (
	VerticalTelco   = workload.VerticalTelco
	VerticalRetail  = workload.VerticalRetail
	VerticalEnergy  = workload.VerticalEnergy
	VerticalWeb     = workload.VerticalWeb
	VerticalFinance = workload.VerticalFinance
)

// Re-exported planning strategies.
const (
	StrategyExhaustive = planner.StrategyExhaustive
	StrategyGreedy     = planner.StrategyGreedy
	StrategyRandom     = planner.StrategyRandom
)

// Re-exported trainee strategies.
const (
	TraineeRandom = labs.TraineeRandom
	TraineeGreedy = labs.TraineeGreedy
	TraineeGuided = labs.TraineeGuided
)

// Config controls platform construction.
type Config struct {
	// Seed drives synthetic data generation, train/test splits and failure
	// injection; fixed seeds make runs reproducible (default 1).
	Seed int64
	// RepositoryDir, when non-empty, enables persistence of campaigns and run
	// records under that directory.
	RepositoryDir string
	// FailureRate enables transient task-failure injection on the simulated
	// cluster (0 disables it).
	FailureRate float64
	// MemoryBudget bounds the bytes of columnar batch data the dataflow
	// engine keeps resident per shuffle, sort or join accumulation; batches
	// past the budget spill to temp files and are restored transparently on
	// read. A group-by's partials and merge state stay resident, outside the
	// budget. <= 0 (the default) disables spilling.
	MemoryBudget int64
	// StoreDir, when non-empty, opens the durable segment store under that
	// directory: every campaign run saves its prepared dataset as a named
	// table (crash-safe via the manifest WAL), and later campaigns may use
	// those tables as sources — they are scanned back with zone-map filter
	// pushdown instead of being recomputed.
	StoreDir string
	// SpillDir, when non-empty, places the dataflow engine's spill temp files
	// under that directory instead of the system temp directory. The
	// directory must exist.
	SpillDir string
}

// Platform is the BDAaaS entry point: it owns the data catalog, the service
// catalog, the model-driven compiler, the planner and the pipeline runner.
type Platform struct {
	cfg      Config
	data     *storage.Catalog
	store    *store.Store
	compiler *core.Compiler
	runner   *runner.Runner
	planner  *planner.Planner
	repo     *repo.Repository
}

// New builds a platform.
func New(cfg Config) (*Platform, error) {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	data := storage.NewCatalog()
	var st *store.Store
	var compilerOpts []core.Option
	runnerOpts := []runner.Option{
		runner.WithSeed(cfg.Seed), runner.WithFailureInjection(cfg.FailureRate),
		runner.WithMemoryBudget(cfg.MemoryBudget),
		runner.WithSpillDir(cfg.SpillDir),
	}
	if cfg.StoreDir != "" {
		var err error
		if st, err = store.Open(cfg.StoreDir); err != nil {
			return nil, fmt.Errorf("toreador: open store: %w", err)
		}
		compilerOpts = append(compilerOpts, core.WithDurableStore(st))
		runnerOpts = append(runnerOpts, runner.WithResultStore(st))
	}
	compiler, err := core.NewCompiler(data, compilerOpts...)
	if err != nil {
		return nil, err
	}
	run, err := runner.New(data, runnerOpts...)
	if err != nil {
		return nil, err
	}
	plan, err := planner.New(compiler)
	if err != nil {
		return nil, err
	}
	p := &Platform{cfg: cfg, data: data, store: st, compiler: compiler, runner: run, planner: plan}
	if cfg.RepositoryDir != "" {
		r, err := repo.Open(cfg.RepositoryDir)
		if err != nil {
			return nil, err
		}
		p.repo = r
	}
	return p, nil
}

// RegisterTable registers an existing dataset with the platform.
func (p *Platform) RegisterTable(t *Table) error {
	return p.data.Register(t)
}

// RegisterScenario generates the synthetic datasets of a vertical scenario
// and registers them.
func (p *Platform) RegisterScenario(v Vertical, sizing Sizing) (*Scenario, error) {
	sc, err := workload.NewGenerator(p.cfg.Seed).Generate(v, sizing)
	if err != nil {
		return nil, err
	}
	if err := sc.Register(p.data); err != nil {
		return nil, err
	}
	return sc, nil
}

// Tables lists the registered dataset names.
func (p *Platform) Tables() []string { return p.data.Names() }

// Store returns the durable segment store, or nil when the platform was built
// without a StoreDir.
func (p *Platform) Store() *store.Store { return p.store }

// Compile runs the model-driven transformation: declarative campaign in,
// chosen alternative plus the full design space out.
func (p *Platform) Compile(c *Campaign) (*CompileResult, error) {
	result, err := p.compiler.Compile(c)
	if err != nil {
		return nil, err
	}
	if p.repo != nil {
		if _, err := p.repo.SaveCampaign(c); err != nil {
			return nil, fmt.Errorf("toreador: persist campaign: %w", err)
		}
	}
	return result, nil
}

// Alternatives enumerates the campaign's full design space without choosing.
func (p *Platform) Alternatives(c *Campaign) ([]Alternative, error) {
	alternatives, _, err := p.compiler.EnumerateAlternatives(c)
	return alternatives, err
}

// Run executes one alternative and measures the standard indicators.
func (p *Platform) Run(ctx context.Context, c *Campaign, alt Alternative) (*Report, error) {
	report, err := p.runner.Run(ctx, c, alt)
	if err != nil {
		return nil, err
	}
	if p.repo != nil {
		rec := RunRecord{
			Campaign:  c.Name,
			Label:     alt.Fingerprint(),
			Compliant: report.Compliant,
			Feasible:  report.Evaluation.Feasible,
			Score:     report.Evaluation.Score,
			Indicators: func() map[string]float64 {
				out := map[string]float64{}
				for k, v := range report.Measured {
					out[string(k)] = v
				}
				return out
			}(),
			Details: report.Details,
		}
		if _, err := p.repo.SaveRun(rec); err != nil {
			return nil, fmt.Errorf("toreador: persist run: %w", err)
		}
	}
	return report, nil
}

// Execute is the full BDAaaS function: it compiles the campaign, runs the
// chosen alternative and returns both the compile result and the measured
// report.
func (p *Platform) Execute(ctx context.Context, c *Campaign) (*CompileResult, *Report, error) {
	result, err := p.Compile(c)
	if err != nil {
		return nil, nil, err
	}
	report, err := p.Run(ctx, c, result.Chosen)
	if err != nil {
		return result, nil, err
	}
	return result, report, nil
}

// Plan applies a planning strategy to the campaign's design space.
func (p *Platform) Plan(c *Campaign, strategy Strategy) (Decision, error) {
	return p.planner.Plan(c, strategy)
}

// ExplainPipeline renders the physical dataflow plan (fused stages, shuffle
// boundaries, map-side combine decisions) that executing the alternative's
// preparation pipeline would run, without running it.
func (p *Platform) ExplainPipeline(c *Campaign, alt Alternative) (string, error) {
	return p.runner.ExplainPlan(c, alt)
}

// Interference sweeps the campaign across privacy regimes and reports the
// surviving design options per stage.
func (p *Platform) Interference(c *Campaign) ([]InterferencePoint, error) {
	return p.compiler.Interference(c)
}

// WhatIf compiles two campaign variants and reports how the chosen pipeline
// and its estimated indicators change.
func (p *Platform) WhatIf(base, variant *Campaign) (*WhatIfReport, error) {
	return p.compiler.WhatIf(base, variant)
}

// Runs returns the persisted run records of a campaign; it requires a
// repository-backed platform.
func (p *Platform) Runs(campaign string) ([]RunRecord, error) {
	if p.repo == nil {
		return nil, errors.New("toreador: platform has no repository configured")
	}
	return p.repo.ListRuns(campaign)
}

// NewService starts the long-running multi-tenant service runtime on top of
// the platform's runner: submissions are admission-controlled per tenant,
// scheduled by SLA urgency, executed under per-campaign deadlines with
// transient-fault retries, and drained gracefully on Shutdown.
func (p *Platform) NewService(cfg ServiceConfig) (*Service, error) {
	return service.New(p.runner, cfg)
}

// OpenLab builds a TOREADOR Labs instance with freshly generated scenario
// data for every vertical.
func OpenLab(seed int64, sizing Sizing) (*Lab, error) {
	return labs.NewLab(labs.Config{Seed: seed, Sizing: sizing})
}

// NewLabSession starts an empty Labs session for recording attempts.
func NewLabSession(lab *Lab) *LabSession { return labs.NewSession(lab) }

// CompareAttempts lays Labs attempts side by side, best score first.
func CompareAttempts(attempts []*Attempt) []labs.ComparisonRow { return labs.Compare(attempts) }

// BuiltinChallenges returns the standard Labs challenges.
func BuiltinChallenges() []Challenge { return labs.BuiltinChallenges() }
