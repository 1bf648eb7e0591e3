// Package core implements the primary contribution of the reproduced paper:
// the model-driven BDAaaS compiler that turns a declarative Big Data campaign
// (goals, indicators, objectives, privacy regime, preferences) into a
// ready-to-be-executed pipeline — a procedural service composition bound to a
// deployment plan — and that enumerates and compares the alternative designs a
// TOREADOR Labs trainee is asked to explore.
//
// Compilation proceeds through the phases the TOREADOR methodology
// prescribes:
//
//  1. validate the declarative model and resolve data sources;
//  2. match catalog services able to satisfy the goal in each design area;
//  3. compose candidate procedural models (service DAGs);
//  4. check each candidate against the compliance rules;
//  5. bind candidates to deployment platforms and estimate cost/latency.
//
// The same machinery exposes EnumerateAlternatives (the full design space,
// used by the planner and the Labs) and Interference (how a choice in one
// design stage — typically the privacy regime — restricts the options left in
// the other stages), which reproduces the paper's central training claim.
package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/catalog"
	"repro/internal/compliance"
	"repro/internal/deployment"
	"repro/internal/model"
	"repro/internal/procedural"
	"repro/internal/sla"
	"repro/internal/storage"
	"repro/internal/store"
)

// Errors returned by the compiler.
var (
	ErrUnknownSource          = errors.New("core: campaign references an unregistered data source")
	ErrNoCandidateService     = errors.New("core: no catalog service implements the campaign goal")
	ErrNoCompliantAlternative = errors.New("core: no compliant alternative satisfies the campaign")
)

// Compiler is the model-driven transformation engine.
type Compiler struct {
	catalog    *catalog.Registry
	compliance *compliance.Engine
	binder     *deployment.Binder
	data       *storage.Catalog
	store      *store.Store
}

// Option configures compiler construction.
type Option func(*Compiler)

// WithDurableStore lets source resolution fall back to tables persisted in
// the durable segment store when a campaign references a table that is not in
// the in-memory catalog — typically a prior campaign's saved result.
func WithDurableStore(st *store.Store) Option {
	return func(c *Compiler) { c.store = st }
}

// NewCompiler returns a compiler that resolves data sources against the given
// storage catalog.
func NewCompiler(data *storage.Catalog, opts ...Option) (*Compiler, error) {
	if data == nil {
		return nil, fmt.Errorf("core: compiler requires a data catalog")
	}
	c := &Compiler{
		catalog:    catalog.DefaultRegistry(),
		compliance: compliance.NewEngine(),
		binder:     deployment.NewBinder(),
		data:       data,
	}
	for _, opt := range opts {
		opt(c)
	}
	return c, nil
}

// Alternative is one fully elaborated design option: a service composition,
// its deployment plan, its compliance report and its estimated indicators.
type Alternative struct {
	// Index is the position of the alternative in enumeration order.
	Index int
	// Composition is the procedural model.
	Composition *procedural.Composition
	// Plan is the bound deployment.
	Plan *deployment.Plan
	// Compliance is the rule-engine report for this composition/deployment.
	Compliance compliance.Report
	// Estimates are the statically estimated indicator values (measured
	// values come from actually running the pipeline).
	Estimates sla.Measurement
	// Evaluation scores the estimates against the campaign objectives.
	Evaluation sla.Evaluation
}

// Compliant reports whether the alternative passed the compliance check.
func (a Alternative) Compliant() bool { return a.Compliance.Compliant() }

// Fingerprint identifies the alternative by its service chain and platform.
func (a Alternative) Fingerprint() string {
	return a.Composition.Fingerprint() + " @ " + string(a.Plan.Platform)
}

// PhaseTimings records the wall-clock spent in each compilation phase
// (reported by benchmark/ as core.phase_us.*). Bind and Comply are summed
// over the alternatives: Bind is choosing the platform and binding the
// deployment; Comply is the compliance check, the indicator estimates and
// the objective evaluation.
type PhaseTimings struct {
	Validate time.Duration
	Match    time.Duration
	Compose  time.Duration
	Comply   time.Duration
	Bind     time.Duration
}

// Total returns the end-to-end compilation time.
func (p PhaseTimings) Total() time.Duration {
	return p.Validate + p.Match + p.Compose + p.Comply + p.Bind
}

// CompileResult is the output of Compile.
type CompileResult struct {
	// Campaign is the validated declarative model.
	Campaign *model.Campaign
	// Chosen is the selected best alternative.
	Chosen Alternative
	// Alternatives is the full enumerated design space, in enumeration order.
	Alternatives []Alternative
	// SourceRows is the resolved size of the campaign's target table.
	SourceRows int
	// Timings records per-phase compilation cost.
	Timings PhaseTimings
}

// CompliantAlternatives returns only the compliant alternatives.
func (r *CompileResult) CompliantAlternatives() []Alternative {
	var out []Alternative
	for _, a := range r.Alternatives {
		if a.Compliant() {
			out = append(out, a)
		}
	}
	return out
}

// sourceInfo is the resolved information about the campaign's data.
type sourceInfo struct {
	rows        int
	sensitivity storage.Sensitivity
}

// resolveSources validates that every declared source exists and returns the
// row count of the target table and the maximum sensitivity across sources.
func (c *Compiler) resolveSources(campaign *model.Campaign) (sourceInfo, error) {
	info := sourceInfo{sensitivity: storage.Public}
	for _, src := range campaign.Sources {
		schema, rows, err := c.resolveSource(src.Table)
		if err != nil {
			return info, err
		}
		if s := schema.MaxSensitivity(); s > info.sensitivity {
			info.sensitivity = s
		}
		if src.ContainsPersonalData && info.sensitivity < storage.Personal {
			info.sensitivity = storage.Personal
		}
		if src.Table == campaign.Goal.TargetTable {
			info.rows = rows
		}
	}
	return info, nil
}

// resolveSource finds a source table's schema and row count: the in-memory
// catalog first, then (when configured) the durable store, so a campaign can
// declare a prior campaign's persisted result as its source.
func (c *Compiler) resolveSource(name string) (*storage.Schema, int, error) {
	if tbl, err := c.data.Lookup(name); err == nil {
		return tbl.Schema(), tbl.NumRows(), nil
	}
	if c.store != nil {
		if schema, err := c.store.Schema(name); err == nil {
			ti, err := c.store.Info(name)
			if err != nil {
				return nil, 0, fmt.Errorf("%w: %q", ErrUnknownSource, name)
			}
			return schema, ti.Rows, nil
		}
	}
	return nil, 0, fmt.Errorf("%w: %q", ErrUnknownSource, name)
}

// matchResult is the per-area candidate sets found by the matching phase.
type matchResult struct {
	analytics   []catalog.Descriptor
	privacyPrep []catalog.Descriptor // optional anonymisation services (plus a "none" slot)
	basePrep    []catalog.Descriptor // always-applied preparation (cleaning)
	normalize   []catalog.Descriptor // optional normalisation for feature-based tasks
	ingestion   map[deployment.Platform]catalog.Descriptor
	processing  map[deployment.Platform]catalog.Descriptor
	display     []catalog.Descriptor
}

// match finds the candidate services for the campaign in each design area.
func (c *Compiler) match(campaign *model.Campaign) (matchResult, error) {
	var m matchResult
	m.analytics = c.catalog.CandidatesForTask(campaign.Goal.Task)
	if len(m.analytics) == 0 {
		return m, fmt.Errorf("%w: task %q", ErrNoCandidateService, campaign.Goal.Task)
	}
	m.basePrep = c.catalog.ByCapability("clean_missing")
	m.normalize = c.catalog.ByCapability("normalize_features")
	m.privacyPrep = append(c.catalog.ByCapability("pseudonymize"), c.catalog.ByCapability("anonymize_strict")...)
	m.ingestion = map[deployment.Platform]catalog.Descriptor{}
	for _, d := range c.catalog.ByCapability("ingest_batch") {
		m.ingestion[deployment.PlatformBatch] = d
		m.ingestion[deployment.PlatformSingleNode] = d
	}
	for _, d := range c.catalog.ByCapability("ingest_stream") {
		m.ingestion[deployment.PlatformStreaming] = d
	}
	m.processing = map[deployment.Platform]catalog.Descriptor{}
	for _, d := range c.catalog.ByCapability("process_batch") {
		m.processing[deployment.PlatformBatch] = d
		m.processing[deployment.PlatformSingleNode] = d
	}
	for _, d := range c.catalog.ByCapability("process_stream") {
		m.processing[deployment.PlatformStreaming] = d
	}
	m.display = c.catalog.ByArea(model.AreaDisplay)
	if len(m.basePrep) == 0 || len(m.ingestion) == 0 || len(m.processing) == 0 || len(m.display) == 0 {
		return m, fmt.Errorf("%w: the catalog is missing mandatory areas", ErrNoCandidateService)
	}
	return m, nil
}

// featureBasedTask reports whether the task consumes numeric feature vectors
// (and therefore benefits from normalisation).
func featureBasedTask(t model.AnalyticsTask) bool {
	switch t {
	case model.TaskClassification, model.TaskClustering:
		return true
	default:
		return false
	}
}

// compose builds every candidate composition (before compliance filtering).
func (c *Compiler) compose(campaign *model.Campaign, m matchResult) []*procedural.Composition {
	// Privacy preparation options: none + every anonymiser in the catalog.
	privacyOptions := make([]*catalog.Descriptor, 0, len(m.privacyPrep)+1)
	privacyOptions = append(privacyOptions, nil)
	for i := range m.privacyPrep {
		privacyOptions = append(privacyOptions, &m.privacyPrep[i])
	}
	normalizeOptions := []bool{false}
	if featureBasedTask(campaign.Goal.Task) && len(m.normalize) > 0 {
		normalizeOptions = append(normalizeOptions, true)
	}
	platforms := []deployment.Platform{deployment.PlatformBatch, deployment.PlatformStreaming}
	// Every composition of one compile shares its step parameters; the
	// runner only reads them.
	ingestParams := map[string]string{"table": campaign.Goal.TargetTable}
	analyzeParams := analyticsParams(campaign)

	var out []*procedural.Composition
	seen := map[string]bool{}
	for _, privacy := range privacyOptions {
		for _, normalize := range normalizeOptions {
			for _, analytics := range m.analytics {
				for _, platform := range platforms {
					ingest, okIngest := m.ingestion[platform]
					process, okProcess := m.processing[platform]
					if !okIngest || !okProcess {
						continue
					}
					for _, display := range m.display {
						steps := compositionSteps(ingestParams, analyzeParams,
							ingest, m.basePrep[0], privacy, normalize, m.normalize, analytics, process, display)
						// Only keep compositions whose every step supports the
						// intended processing style; check before validating.
						candidate := procedural.Composition{Steps: steps}
						if platform == deployment.PlatformStreaming && !candidate.SupportsStreaming() {
							continue
						}
						if platform != deployment.PlatformStreaming && !candidate.SupportsBatch() {
							continue
						}
						comp, err := procedural.New(campaign.Name, steps)
						if err != nil || seen[comp.Fingerprint()] {
							continue
						}
						seen[comp.Fingerprint()] = true
						out = append(out, comp)
					}
				}
			}
		}
	}
	return out
}

// compositionSteps assembles the steps of one linear composition.
func compositionSteps(ingestParams, analyzeParams map[string]string,
	ingest, basePrep catalog.Descriptor, privacy *catalog.Descriptor,
	normalize bool, normalizeServices []catalog.Descriptor,
	analytics, process, display catalog.Descriptor) []procedural.Step {

	steps := make([]procedural.Step, 0, 7)
	add := func(id string, d catalog.Descriptor, params map[string]string) {
		step := procedural.Step{ID: id, Service: d, Params: params}
		if len(steps) > 0 {
			step.DependsOn = []string{steps[len(steps)-1].ID}
		}
		steps = append(steps, step)
	}
	add("ingest", ingest, ingestParams)
	add("clean", basePrep, nil)
	if privacy != nil {
		add("privacy", *privacy, nil)
	}
	if normalize && len(normalizeServices) > 0 {
		add("normalize", normalizeServices[0], nil)
	}
	add("analyze", analytics, analyzeParams)
	add("process", process, nil)
	add("display", display, nil)
	return steps
}

// analyticsParams maps the campaign goal onto the analytics step parameters
// the runner consumes.
func analyticsParams(campaign *model.Campaign) map[string]string {
	p := map[string]string{
		"table": campaign.Goal.TargetTable,
	}
	if campaign.Goal.LabelColumn != "" {
		p["label"] = campaign.Goal.LabelColumn
	}
	if len(campaign.Goal.FeatureColumns) > 0 {
		p["features"] = strings.Join(campaign.Goal.FeatureColumns, ",")
	}
	if campaign.Goal.ValueColumn != "" {
		p["value"] = campaign.Goal.ValueColumn
	}
	if campaign.Goal.TimeColumn != "" {
		p["time"] = campaign.Goal.TimeColumn
	}
	if campaign.Goal.ItemColumn != "" {
		p["item"] = campaign.Goal.ItemColumn
	}
	if campaign.Goal.TransactionColumn != "" {
		p["transaction"] = campaign.Goal.TransactionColumn
	}
	if len(campaign.Goal.GroupColumns) > 0 {
		p["group"] = strings.Join(campaign.Goal.GroupColumns, ",")
	}
	return p
}

// elaborate turns a composition into a full alternative: deployment binding,
// compliance check, indicator estimation and objective evaluation. It adds
// the time it spends binding and complying to timings.
func (c *Compiler) elaborate(campaign *model.Campaign, comp *procedural.Composition,
	info sourceInfo, index int, timings *PhaseTimings) (Alternative, bool) {

	start := time.Now()
	platform := deployment.PlatformBatch
	if comp.SupportsStreaming() && !comp.SupportsBatch() {
		platform = deployment.PlatformStreaming
	} else if campaign.Preferences.Streaming && comp.SupportsStreaming() {
		platform = deployment.PlatformStreaming
	}
	plan, err := c.binder.Bind(comp, platform, info.rows, campaign.Preferences)
	timings.Bind += time.Since(start)
	if err != nil {
		return Alternative{}, false
	}
	start = time.Now()
	defer func() { timings.Comply += time.Since(start) }()
	report, err := c.compliance.Evaluate(compliance.Input{
		Campaign:         campaign,
		Composition:      comp,
		DataSensitivity:  info.sensitivity,
		DeploymentRegion: plan.Region,
	})
	if err != nil {
		return Alternative{}, false
	}
	estimates := estimateIndicators(comp, plan, report, info.rows)
	alt := Alternative{
		Index:       index,
		Composition: comp,
		Plan:        plan,
		Compliance:  report,
		Estimates:   estimates,
		Evaluation:  sla.Evaluate(campaign.Objectives, estimates),
	}
	return alt, true
}

// estimateIndicators derives the static indicator estimates of an alternative.
func estimateIndicators(comp *procedural.Composition, plan *deployment.Plan,
	report compliance.Report, rows int) sla.Measurement {

	m := sla.Measurement{
		model.IndicatorAccuracy:  comp.EstimateQuality(),
		model.IndicatorCost:      plan.EstimatedCost,
		model.IndicatorLatency:   plan.EstimatedLatencyMillis,
		model.IndicatorPrivacy:   report.PrivacyScore,
		model.IndicatorFreshness: plan.EstimatedFreshnessSeconds,
	}
	if plan.EstimatedLatencyMillis > 0 {
		m[model.IndicatorThroughput] = float64(rows) / (plan.EstimatedLatencyMillis / 1000)
	}
	return m
}

// EnumerateAlternatives compiles the campaign into every distinct design
// alternative, without choosing among them, and reports the time each phase
// took.
func (c *Compiler) EnumerateAlternatives(campaign *model.Campaign) ([]Alternative, PhaseTimings, error) {
	alternatives, _, timings, err := c.enumerate(campaign)
	return alternatives, timings, err
}

// enumerate is EnumerateAlternatives plus the campaign's resolved sources.
func (c *Compiler) enumerate(campaign *model.Campaign) ([]Alternative, sourceInfo, PhaseTimings, error) {
	var timings PhaseTimings

	start := time.Now()
	if err := campaign.Validate(); err != nil {
		return nil, sourceInfo{}, timings, err
	}
	info, err := c.resolveSources(campaign)
	if err != nil {
		return nil, info, timings, err
	}
	timings.Validate = time.Since(start)

	start = time.Now()
	matched, err := c.match(campaign)
	if err != nil {
		return nil, info, timings, err
	}
	timings.Match = time.Since(start)

	start = time.Now()
	compositions := c.compose(campaign, matched)
	timings.Compose = time.Since(start)

	alternatives := make([]Alternative, 0, len(compositions))
	for _, comp := range compositions {
		alt, ok := c.elaborate(campaign, comp, info, len(alternatives), &timings)
		if !ok {
			continue
		}
		alternatives = append(alternatives, alt)
	}
	if len(alternatives) == 0 {
		return nil, info, timings, fmt.Errorf("%w: %q", ErrNoCandidateService, campaign.Name)
	}
	return alternatives, info, timings, nil
}

// Compile enumerates the design space and selects the best compliant
// alternative: feasible and highest estimated objective score, with ties
// broken by lower estimated cost and then enumeration order.
func (c *Compiler) Compile(campaign *model.Campaign) (*CompileResult, error) {
	alternatives, info, timings, err := c.enumerate(campaign)
	if err != nil {
		return nil, err
	}
	chosen, err := SelectBest(campaign, alternatives)
	if err != nil {
		return nil, err
	}
	return &CompileResult{
		Campaign:     campaign,
		Chosen:       chosen,
		Alternatives: alternatives,
		SourceRows:   info.rows,
		Timings:      timings,
	}, nil
}

// SelectBest picks the best alternative for the campaign: only compliant
// alternatives within the declared budget are considered; among them,
// alternatives matching the user's processing-style preference come first,
// then the best objective evaluation wins (sla.Compare), with ties broken by
// lower estimated cost and finally by enumeration order.
func SelectBest(campaign *model.Campaign, alternatives []Alternative) (Alternative, error) {
	candidates := make([]Alternative, 0, len(alternatives))
	for _, a := range alternatives {
		if !a.Compliant() {
			continue
		}
		if campaign.Preferences.MaxBudget > 0 {
			if cost, ok := a.Estimates.Get(model.IndicatorCost); ok && cost > campaign.Preferences.MaxBudget {
				continue
			}
		}
		candidates = append(candidates, a)
	}
	if len(candidates) == 0 {
		return Alternative{}, fmt.Errorf("%w: %q (%d alternatives examined)", ErrNoCompliantAlternative, campaign.Name, len(alternatives))
	}
	prefersStreaming := campaign.Preferences.Streaming
	matchesPreference := func(a Alternative) bool {
		if !prefersStreaming {
			return true
		}
		return a.Plan.Platform == deployment.PlatformStreaming
	}
	sort.SliceStable(candidates, func(i, j int) bool {
		mi, mj := matchesPreference(candidates[i]), matchesPreference(candidates[j])
		if mi != mj {
			return mi
		}
		cmp := sla.Compare(candidates[i].Evaluation, candidates[j].Evaluation)
		if cmp != 0 {
			return cmp > 0
		}
		ci, _ := candidates[i].Estimates.Get(model.IndicatorCost)
		cj, _ := candidates[j].Estimates.Get(model.IndicatorCost)
		if ci != cj {
			return ci < cj
		}
		return candidates[i].Index < candidates[j].Index
	})
	return candidates[0], nil
}
