// Package runner executes a compiled campaign alternative on the simulated
// Big Data substrate: it builds the cluster described by the deployment plan,
// runs the preparation steps as dataflow transformations, dispatches the
// analytics step to the corresponding algorithm, and measures the standard
// indicators (accuracy, latency, cost, throughput, privacy, freshness) that
// the SLA engine evaluates and the Labs use for scoring.
//
// Where the paper's platform would submit the generated pipeline to Spark,
// the runner submits it to internal/dataflow + internal/cluster — the
// substitution documented in DESIGN.md.
package runner

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/analytics"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/deployment"
	"repro/internal/model"
	"repro/internal/procedural"
	"repro/internal/sla"
	"repro/internal/storage"
	"repro/internal/store"
)

// Errors returned by the runner.
var (
	ErrBadRun        = errors.New("runner: bad run request")
	ErrMissingParam  = errors.New("runner: analytics step is missing a parameter")
	ErrUnknownEngine = errors.New("runner: no implementation for analytics service")
)

// Runner executes alternatives against a data catalog.
type Runner struct {
	data         *storage.Catalog
	results      *store.Store
	seed         int64
	failureRate  float64
	memoryBudget int64
	spillDir     string
}

// Option configures the runner.
type Option func(*Runner)

// WithSeed sets the seed used for cluster failure injection and train/test
// splits (default 1).
func WithSeed(seed int64) Option {
	return func(r *Runner) { r.seed = seed }
}

// WithFailureInjection enables transient task failures at the given rate.
func WithFailureInjection(rate float64) Option {
	return func(r *Runner) { r.failureRate = rate }
}

// WithMemoryBudget bounds the bytes of columnar batch data the dataflow
// engine keeps resident per shuffle, sort or join accumulation; batches past
// the budget spill to temp files (see dataflow.WithMemoryBudget). A
// group-by's partials and merge state stay resident, outside the budget.
// <= 0 disables spilling (the default).
func WithMemoryBudget(bytes int64) Option {
	return func(r *Runner) { r.memoryBudget = bytes }
}

// WithResultStore attaches a durable table store. After every successful run
// the prepared dataset is saved as the named table ResultTableName(campaign);
// later campaigns whose target table is absent from the catalog fall back to
// scanning the store, so a pipeline can consume a prior pipeline's output
// across process restarts instead of recomputing it.
func WithResultStore(st *store.Store) Option {
	return func(r *Runner) { r.results = st }
}

// WithSpillDir places the dataflow engine's spill temp files in dir instead
// of the system temp directory (see dataflow.WithSpillDir). "" keeps
// os.TempDir().
func WithSpillDir(dir string) Option {
	return func(r *Runner) { r.spillDir = dir }
}

// New returns a runner bound to the data catalog.
func New(data *storage.Catalog, opts ...Option) (*Runner, error) {
	if data == nil {
		return nil, fmt.Errorf("%w: nil data catalog", ErrBadRun)
	}
	r := &Runner{data: data, seed: 1}
	for _, opt := range opts {
		opt(r)
	}
	return r, nil
}

// Report is the outcome of executing one alternative.
type Report struct {
	// Campaign and Alternative identify what ran.
	Campaign    string
	Alternative string
	Platform    deployment.Platform
	// Measured indicator values.
	Measured sla.Measurement
	// Evaluation of the measured values against the campaign objectives.
	Evaluation sla.Evaluation
	// Compliant mirrors the alternative's compliance outcome.
	Compliant bool
	// Details carries per-task diagnostics (model name, confusion matrix…).
	Details map[string]string
	// RowsProcessed is the number of rows that reached the analytics step.
	RowsProcessed int
	// EngineStats are the dataflow execution statistics.
	EngineStats dataflow.Stats
	// ClusterUsage is the resource/cost accounting of the run.
	ClusterUsage cluster.UsageReport
	// WallTime is the end-to-end execution time.
	WallTime time.Duration
}

// Run executes the alternative's pipeline for the campaign and measures it.
func (r *Runner) Run(ctx context.Context, campaign *model.Campaign, alt core.Alternative) (*Report, error) {
	if campaign == nil || alt.Composition == nil || alt.Plan == nil {
		return nil, fmt.Errorf("%w: campaign and alternative are required", ErrBadRun)
	}
	start := time.Now()

	cl, engine, err := r.newEngine(alt)
	if err != nil {
		return nil, err
	}

	table, err := r.lookupTable(campaign.Goal.TargetTable)
	if err != nil {
		return nil, fmt.Errorf("runner: %w", err)
	}

	dataset, prepDetails, err := r.applyPreparation(campaign, alt.Composition, table)
	if err != nil {
		return nil, err
	}

	step, ok := alt.Composition.AnalyticsStep()
	if !ok {
		return nil, fmt.Errorf("%w: composition has no analytics step", ErrBadRun)
	}
	prepared, err := engine.CollectBatches(ctx, dataset)
	if err != nil {
		return nil, fmt.Errorf("runner: prepare data: %w", err)
	}

	var analyzed dataflow.Stats
	accuracy, taskDetails, err := r.runAnalytics(ctx, engine, campaign, step, prepared, &analyzed)
	if err != nil {
		return nil, err
	}

	wall := time.Since(start)
	usage := cl.Usage()
	rows := prepared.Len()

	// The report's engine stats describe the preparation collect, except the
	// spill counters, which add the analytics collect's (forecasting and
	// reporting re-enter the engine): a budgeted campaign's spill activity is
	// a whole-run fact, not a preparation-stage one.
	engineStats := prepared.Stats
	engineStats.SpilledBatches += analyzed.SpilledBatches
	engineStats.SpilledBytes += analyzed.SpilledBytes
	engineStats.SpillLogicalBytes += analyzed.SpillLogicalBytes

	measured := sla.Measurement{
		model.IndicatorAccuracy: accuracy,
		model.IndicatorLatency:  float64(wall.Milliseconds()),
		model.IndicatorCost:     measuredCost(alt.Composition, usage, rows),
		model.IndicatorPrivacy:  alt.Compliance.PrivacyScore,
	}
	if wall > 0 {
		measured[model.IndicatorThroughput] = float64(prepared.Stats.RowsRead) / wall.Seconds()
	}
	measured[model.IndicatorFreshness] = freshnessSeconds(alt.Plan.Platform, wall)

	details := map[string]string{}
	for k, v := range prepDetails {
		details[k] = v
	}
	for k, v := range taskDetails {
		details[k] = v
	}
	if r.results != nil {
		name := ResultTableName(campaign.Name)
		if err := r.results.SaveTable(name, prepared.Schema, prepared.Batches); err != nil {
			return nil, fmt.Errorf("runner: save result table %q: %w", name, err)
		}
		details["store.table"] = name
	}

	return &Report{
		Campaign:      campaign.Name,
		Alternative:   alt.Fingerprint(),
		Platform:      alt.Plan.Platform,
		Measured:      measured,
		Evaluation:    sla.Evaluate(campaign.Objectives, measured),
		Compliant:     alt.Compliant(),
		Details:       details,
		RowsProcessed: rows,
		EngineStats:   engineStats,
		ClusterUsage:  usage,
		WallTime:      wall,
	}, nil
}

// ExplainPlan compiles the alternative's pipeline and renders the physical
// plans the dataflow engine would execute — fused stages, shuffle boundaries,
// combine decisions, and the wide-operator strategies (range vs single-task
// sort, broadcast vs shuffled join, map-side dedup) — without running
// anything. For analytics tasks that execute on the engine (forecasting,
// reporting) a second section explains the analytics-stage plan.
func (r *Runner) ExplainPlan(campaign *model.Campaign, alt core.Alternative) (string, error) {
	if campaign == nil || alt.Composition == nil || alt.Plan == nil {
		return "", fmt.Errorf("%w: campaign and alternative are required", ErrBadRun)
	}
	_, engine, err := r.newEngine(alt)
	if err != nil {
		return "", err
	}
	table, err := r.lookupTable(campaign.Goal.TargetTable)
	if err != nil {
		return "", fmt.Errorf("runner: %w", err)
	}
	dataset, _, err := r.applyPreparation(campaign, alt.Composition, table)
	if err != nil {
		return "", err
	}
	out := "preparation stage:\n" + engine.Explain(dataset)
	// The analytics plan is chained onto the preparation plan (rather than
	// onto an empty placeholder source) so the explainer sees the real input
	// cardinality and partitioning: a run executes the same analytics plan
	// over the preparation's output batches (dataflow.FromBatches), one
	// partition per preparation output partition, so the explained sort and
	// group-by strategies are the ones the run picks.
	if plan, ok := analyticsPlan(campaign, dataset); ok {
		out += "\nanalytics stage (" + string(campaign.Goal.Task) + "):\n" + engine.Explain(plan)
	}
	return out, nil
}

// newEngine builds the simulated cluster the alternative's deployment plan
// describes and the dataflow engine over it, configured from the runner's
// options. Run and ExplainPlan both build through it, so an explained plan is
// the plan a run executes.
func (r *Runner) newEngine(alt core.Alternative) (*cluster.Cluster, *dataflow.Engine, error) {
	cl, err := cluster.New(alt.Plan.ClusterConfig(r.seed, r.failureRate))
	if err != nil {
		return nil, nil, fmt.Errorf("runner: build cluster: %w", err)
	}
	engine, err := dataflow.NewEngine(cl,
		dataflow.WithShufflePartitions(alt.Plan.Parallelism),
		dataflow.WithMemoryBudget(r.memoryBudget),
		dataflow.WithSpillDir(r.spillDir))
	if err != nil {
		return nil, nil, fmt.Errorf("runner: build engine: %w", err)
	}
	return cl, engine, nil
}

// ResultTableName is the durable-store table name under which a campaign's
// prepared dataset is saved when a result store is attached.
func ResultTableName(campaign string) string {
	return "results/" + campaign
}

// lookupTable resolves a target table: the in-memory catalog first, then the
// durable result store (tables saved by earlier campaigns, possibly in a
// previous process). The catalog's error is preserved when neither has it.
func (r *Runner) lookupTable(name string) (*storage.Table, error) {
	table, err := r.data.Lookup(name)
	if err == nil {
		return table, nil
	}
	if r.results != nil && r.results.Has(name) {
		return r.results.ReadTable(name)
	}
	return nil, err
}

// analyticsPlan builds the logical dataflow plan of the analytics stage for
// the tasks that execute on the engine: forecasting (sort) and reporting
// (group-by). ok is false for tasks whose analytics run outside the engine
// (classification, clustering, association, anomaly detection,
// sessionization) or whose required goal columns are missing; ExplainPlan
// then renders the preparation stage only. Sharing the builder between
// execution and ExplainPlan keeps the explained plan identical to the
// executed one.
func analyticsPlan(campaign *model.Campaign, src *dataflow.Dataset) (*dataflow.Dataset, bool) {
	g := campaign.Goal
	switch g.Task {
	case model.TaskForecasting:
		if g.ValueColumn == "" {
			return nil, false
		}
		if g.TimeColumn == "" {
			return src.Project(g.ValueColumn), true
		}
		// Sort only the columns the forecast reads: the range shuffle and the
		// sorted gather copy every column they are given. The order depends
		// on the time keys and row positions alone, which Project keeps.
		keep := []string{g.TimeColumn}
		if g.ValueColumn != g.TimeColumn {
			keep = append(keep, g.ValueColumn)
		}
		return src.Project(keep...).Sort(dataflow.SortOrder{Column: g.TimeColumn}).Project(g.ValueColumn), true
	case model.TaskReporting:
		if len(g.GroupColumns) == 0 || g.ValueColumn == "" {
			return nil, false
		}
		return src.GroupBy(g.GroupColumns...).Agg(
			dataflow.Count(),
			dataflow.Sum(g.ValueColumn),
			dataflow.Avg(g.ValueColumn),
		), true
	}
	return nil, false
}

// measuredCost combines infrastructure usage cost with the per-record service
// pricing of the composed services for the rows that were actually processed.
func measuredCost(comp *procedural.Composition, usage cluster.UsageReport, rows int) float64 {
	return usage.TotalCost + comp.EstimateCost(rows)
}

// freshnessSeconds converts wall time into the freshness indicator: batch
// pipelines deliver results only after the full run, streaming pipelines
// amortise the work across micro-batches.
func freshnessSeconds(platform deployment.Platform, wall time.Duration) float64 {
	switch platform {
	case deployment.PlatformStreaming:
		return 1.0 + wall.Seconds()/100
	default:
		return wall.Seconds()
	}
}

// ---------------------------------------------------------------------------
// Preparation
// ---------------------------------------------------------------------------

// applyPreparation builds the dataflow plan implementing the composition's
// preparation steps over the target table.
func (r *Runner) applyPreparation(campaign *model.Campaign, comp *procedural.Composition, table *storage.Table) (*dataflow.Dataset, map[string]string, error) {
	details := map[string]string{}
	d := dataflow.FromTable(table)

	// Columns that must be non-null for the analytics step to work.
	required := requiredColumns(campaign)
	schema := table.Schema()
	for _, col := range required {
		if !schema.Has(col) {
			return nil, nil, fmt.Errorf("%w: column %q not in table %q", ErrBadRun, col, table.Name())
		}
	}

	for _, step := range comp.StepsByArea(model.AreaPreparation) {
		switch step.Service.Capability {
		case "clean_missing":
			d = d.FilterNonNull("drop rows with missing required values", required)
			details["preparation.clean"] = "drop-null on " + strings.Join(required, ",")
		case "pseudonymize":
			d = maskSensitiveColumns(d, schema, pseudonymize)
			details["preparation.privacy"] = "pseudonymized " + strings.Join(sensitiveColumns(schema), ",")
		case "anonymize_strict":
			d = maskSensitiveColumns(d, schema, maskStrict)
			details["preparation.privacy"] = "masked " + strings.Join(sensitiveColumns(schema), ",")
		case "normalize_features":
			details["preparation.normalize"] = "features standardised before model fitting"
		default:
			// Unknown preparation capabilities are treated as pass-through.
			details["preparation."+step.Service.Capability] = "pass-through"
		}
	}
	return d, details, nil
}

// requiredColumns lists the goal columns whose values must be present.
func requiredColumns(campaign *model.Campaign) []string {
	seen := map[string]bool{}
	var out []string
	add := func(cols ...string) {
		for _, c := range cols {
			if c != "" && !seen[c] {
				seen[c] = true
				out = append(out, c)
			}
		}
	}
	add(campaign.Goal.FeatureColumns...)
	add(campaign.Goal.LabelColumn, campaign.Goal.ValueColumn, campaign.Goal.TimeColumn,
		campaign.Goal.ItemColumn, campaign.Goal.TransactionColumn)
	add(campaign.Goal.GroupColumns...)
	return out
}

// sensitiveColumns returns the string-typed personal/sensitive columns.
func sensitiveColumns(schema *storage.Schema) []string {
	var out []string
	for _, f := range schema.Fields() {
		if f.Sensitivity >= storage.Personal && f.Type == storage.TypeString {
			out = append(out, f.Name)
		}
	}
	sort.Strings(out)
	return out
}

// pseudonymize replaces a value with a stable opaque token: "pseu-" and the
// 16 lower-case hex digits of the value's FNV-64a hash, the bytes
// fmt.Sprintf("pseu-%016x", …) would print. The hash runs over the string's
// bytes in place and the token is formatted into a fixed array, so the
// result string is the only allocation.
func pseudonymize(v string) string {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
		hexDigit = "0123456789abcdef"
	)
	h := uint64(offset64)
	for i := 0; i < len(v); i++ {
		h ^= uint64(v[i])
		h *= prime64
	}
	var tok [21]byte
	copy(tok[:], "pseu-")
	for i := len(tok) - 1; i >= 5; i-- {
		tok[i] = hexDigit[h&0xf]
		h >>= 4
	}
	return string(tok[:])
}

// maskStrict replaces a value with a constant: nothing of it survives.
func maskStrict(string) string { return "***" }

// maskSensitiveColumns rewrites the non-null cells of the sensitive string
// columns of the dataset with fn; every other column passes through.
func maskSensitiveColumns(d *dataflow.Dataset, schema *storage.Schema, fn func(string) string) *dataflow.Dataset {
	cols := sensitiveColumns(schema)
	if len(cols) == 0 {
		return d
	}
	return d.MapStrings("mask sensitive columns", cols, fn)
}

// ---------------------------------------------------------------------------
// Analytics dispatch
// ---------------------------------------------------------------------------

// runAnalytics executes the analytics step over the prepared batches and
// returns the measured accuracy indicator plus diagnostics. Every reader
// resolves its column indices once and reads typed cells, from the column
// vectors or through the ColumnBatch *At accessors; no prepared row is boxed.
// The tasks that run on the engine (forecasting, reporting) store their
// collect's stats in *analyzed; the others leave it zero.
func (r *Runner) runAnalytics(ctx context.Context, engine *dataflow.Engine, campaign *model.Campaign,
	step procedural.Step, prepared *dataflow.BatchResult, analyzed *dataflow.Stats) (float64, map[string]string, error) {

	details := map[string]string{"analytics.service": step.Service.ID}
	if prepared.Len() == 0 {
		return 0, details, fmt.Errorf("%w: no rows survived preparation", ErrBadRun)
	}
	switch step.Service.Task {
	case model.TaskClassification:
		return r.runClassification(campaign, step, prepared, details)
	case model.TaskClustering:
		return r.runClustering(campaign, step, prepared, details)
	case model.TaskAssociation:
		return r.runAssociation(campaign, prepared, details)
	case model.TaskAnomaly:
		return r.runAnomaly(campaign, step, prepared, details)
	case model.TaskForecasting:
		return r.runForecasting(ctx, engine, campaign, step, prepared, details, analyzed)
	case model.TaskSessionization:
		return r.runSessionization(campaign, prepared, details)
	case model.TaskReporting:
		return r.runReporting(ctx, engine, campaign, prepared, details, analyzed)
	default:
		return 0, details, fmt.Errorf("%w: %q", ErrUnknownEngine, step.Service.ID)
	}
}

func (r *Runner) runClassification(campaign *model.Campaign, step procedural.Step,
	prepared *dataflow.BatchResult, details map[string]string) (float64, map[string]string, error) {

	if campaign.Goal.LabelColumn == "" || len(campaign.Goal.FeatureColumns) == 0 {
		return 0, details, fmt.Errorf("%w: classification needs label and features", ErrMissingParam)
	}
	fs, err := analytics.ExtractFeatures(prepared.Schema, prepared.Batches, campaign.Goal.FeatureColumns, campaign.Goal.LabelColumn)
	if err != nil {
		return 0, details, fmt.Errorf("runner: extract features: %w", err)
	}
	train, test, err := fs.Split(0.3, r.seed)
	if err != nil {
		return 0, details, fmt.Errorf("runner: split: %w", err)
	}
	var clf analytics.Classifier
	switch step.Service.ID {
	case "classify-logreg":
		clf = &analytics.LogisticRegression{}
	case "classify-nbayes":
		clf = &analytics.NaiveBayes{}
	case "classify-stump":
		clf = &analytics.DecisionStump{}
	case "classify-majority":
		clf = &analytics.MajorityClassifier{}
	default:
		return 0, details, fmt.Errorf("%w: %q", ErrUnknownEngine, step.Service.ID)
	}
	cm, err := analytics.Evaluate(clf, train, test)
	if err != nil {
		return 0, details, fmt.Errorf("runner: evaluate %s: %w", clf.Name(), err)
	}
	details["classification.model"] = clf.Name()
	details["classification.confusion"] = fmt.Sprintf("tp=%d fp=%d tn=%d fn=%d", cm.TP, cm.FP, cm.TN, cm.FN)
	details["classification.f1"] = fmt.Sprintf("%.3f", cm.F1())
	return cm.Accuracy(), details, nil
}

func (r *Runner) runClustering(campaign *model.Campaign, step procedural.Step,
	prepared *dataflow.BatchResult, details map[string]string) (float64, map[string]string, error) {

	fs, err := analytics.ExtractFeatures(prepared.Schema, prepared.Batches, campaign.Goal.FeatureColumns, "")
	if err != nil {
		return 0, details, fmt.Errorf("runner: extract features: %w", err)
	}
	k := 3
	if v, ok := step.Params["k"]; ok {
		if parsed, perr := parsePositiveInt(v); perr == nil {
			k = parsed
		}
	}
	if k > len(fs.X) {
		k = len(fs.X)
	}
	km := &analytics.KMeans{K: k, Seed: r.seed}
	if err := km.Fit(fs.X); err != nil {
		return 0, details, fmt.Errorf("runner: kmeans: %w", err)
	}
	inertiaK, err := km.Inertia(fs.X)
	if err != nil {
		return 0, details, err
	}
	passes, converged := km.Iterations()
	details["clustering.iterations"] = fmt.Sprintf("%d", passes)
	details["clustering.converged"] = fmt.Sprintf("%t", converged)
	single := &analytics.KMeans{K: 1, Seed: r.seed}
	if err := single.Fit(fs.X); err != nil {
		return 0, details, err
	}
	inertia1, err := single.Inertia(fs.X)
	if err != nil {
		return 0, details, err
	}
	quality := 0.0
	if inertia1 > 0 {
		quality = 1 - inertiaK/inertia1
	}
	if quality < 0 {
		quality = 0
	}
	details["clustering.k"] = fmt.Sprintf("%d", k)
	details["clustering.inertia"] = fmt.Sprintf("%.2f", inertiaK)
	return quality, details, nil
}

func (r *Runner) runAssociation(campaign *model.Campaign, prepared *dataflow.BatchResult,
	details map[string]string) (float64, map[string]string, error) {

	itemCol, txCol := campaign.Goal.ItemColumn, campaign.Goal.TransactionColumn
	if itemCol == "" || txCol == "" {
		return 0, details, fmt.Errorf("%w: association needs item and transaction columns", ErrMissingParam)
	}
	baskets := basketsOf(prepared.Batches, prepared.Schema.IndexOf(txCol), prepared.Schema.IndexOf(itemCol))
	apriori := &analytics.Apriori{MinSupport: 0.05, MinConfidence: 0.4}
	itemsets, rules, err := apriori.MineBaskets(baskets)
	if err != nil {
		return 0, details, fmt.Errorf("runner: apriori: %w", err)
	}
	details["association.itemsets"] = fmt.Sprintf("%d", len(itemsets))
	details["association.rules"] = fmt.Sprintf("%d", len(rules))
	details["association.baskets"] = fmt.Sprintf("%d", baskets.Len())
	if len(rules) == 0 {
		return 0, details, nil
	}
	// Quality: mean confidence of the top-10 rules.
	top := rules
	if len(top) > 10 {
		top = top[:10]
	}
	sum := 0.0
	for _, rule := range top {
		sum += rule.Confidence
	}
	return sum / float64(len(top)), details, nil
}

func (r *Runner) runAnomaly(campaign *model.Campaign, step procedural.Step,
	prepared *dataflow.BatchResult, details map[string]string) (float64, map[string]string, error) {

	if campaign.Goal.ValueColumn == "" {
		return 0, details, fmt.Errorf("%w: anomaly detection needs a value column", ErrMissingParam)
	}
	valueIdx := prepared.Schema.IndexOf(campaign.Goal.ValueColumn)
	labelIdx := -1
	if campaign.Goal.LabelColumn != "" {
		labelIdx = prepared.Schema.IndexOf(campaign.Goal.LabelColumn)
	}
	hasLabels := labelIdx >= 0
	values := make([]float64, 0, prepared.Len())
	var labels []bool
	for _, b := range prepared.Batches {
		for i := 0; i < b.Len(); i++ {
			v, _ := b.FloatAt(i, valueIdx)
			values = append(values, v)
			if hasLabels {
				l, _ := b.BoolAt(i, labelIdx)
				labels = append(labels, l)
			}
		}
	}
	var detector analytics.AnomalyDetector
	switch step.Service.ID {
	case "detect-zscore":
		detector = &analytics.ZScoreDetector{}
	case "detect-iqr":
		detector = &analytics.IQRDetector{}
	default:
		return 0, details, fmt.Errorf("%w: %q", ErrUnknownEngine, step.Service.ID)
	}
	var labelArg []bool
	if hasLabels {
		labelArg = labels
	}
	flagged, cm, err := analytics.DetectAnomalies(detector, values, labelArg)
	if err != nil {
		return 0, details, fmt.Errorf("runner: detect anomalies: %w", err)
	}
	details["anomaly.detector"] = detector.Name()
	details["anomaly.flagged"] = fmt.Sprintf("%d", len(flagged))
	if !hasLabels {
		// Without ground truth, report the flagged fraction as a diagnostic
		// and fall back to the catalog quality figure.
		return step.Service.Quality, details, nil
	}
	details["anomaly.f1"] = fmt.Sprintf("%.3f", cm.F1())
	return cm.F1(), details, nil
}

func (r *Runner) runForecasting(ctx context.Context, engine *dataflow.Engine, campaign *model.Campaign,
	step procedural.Step, prepared *dataflow.BatchResult, details map[string]string, analyzed *dataflow.Stats) (float64, map[string]string, error) {

	if campaign.Goal.ValueColumn == "" {
		return 0, details, fmt.Errorf("%w: forecasting needs a value column", ErrMissingParam)
	}
	src := dataflow.FromBatches(campaign.Goal.TargetTable, prepared.Schema, prepared.Batches)
	plan, ok := analyticsPlan(campaign, src)
	if !ok {
		return 0, details, fmt.Errorf("%w: forecasting plan", ErrMissingParam)
	}
	res, err := engine.CollectBatches(ctx, plan)
	if err != nil {
		return 0, details, fmt.Errorf("runner: order series: %w", err)
	}
	*analyzed = res.Stats
	series := make([]float64, 0, res.Len())
	for _, b := range res.Batches {
		for i := 0; i < b.Len(); i++ {
			v, _ := b.FloatAt(i, 0)
			series = append(series, v)
		}
	}
	var forecaster analytics.Forecaster
	switch step.Service.ID {
	case "forecast-holtwinters":
		forecaster = &analytics.HoltWinters{Period: 24}
	case "forecast-moving-average":
		forecaster = &analytics.MovingAverageForecaster{Window: 24}
	default:
		return 0, details, fmt.Errorf("%w: %q", ErrUnknownEngine, step.Service.ID)
	}
	horizon := 24
	if horizon >= len(series) {
		horizon = len(series) / 4
	}
	if horizon < 1 {
		return 0, details, fmt.Errorf("%w: series too short for forecasting", ErrBadRun)
	}
	rmse, err := analytics.BacktestForecaster(forecaster, series, horizon)
	if err != nil {
		return 0, details, fmt.Errorf("runner: backtest: %w", err)
	}
	details["forecast.model"] = forecaster.Name()
	details["forecast.rmse"] = fmt.Sprintf("%.4f", rmse)
	// Accuracy indicator: map RMSE into (0,1], higher is better.
	return 1 / (1 + rmse), details, nil
}

func (r *Runner) runSessionization(campaign *model.Campaign, prepared *dataflow.BatchResult,
	details map[string]string) (float64, map[string]string, error) {

	if campaign.Goal.TimeColumn == "" {
		return 0, details, fmt.Errorf("%w: sessionization needs a time column", ErrMissingParam)
	}
	schema := prepared.Schema
	userIdx := schema.IndexOf("user_id")
	if userIdx < 0 {
		return 0, details, fmt.Errorf("%w: sessionization expects a user_id column", ErrBadRun)
	}
	// Absent columns read as zero values: IndexOf's -1 is out of range for
	// every *At accessor.
	timeIdx, labelIdx := schema.IndexOf(campaign.Goal.TimeColumn), -1
	if campaign.Goal.LabelColumn != "" {
		labelIdx = schema.IndexOf(campaign.Goal.LabelColumn)
	}
	users := intColumn(prepared.Batches, prepared.Len(), userIdx, 0)
	times := intColumn(prepared.Batches, prepared.Len(), timeIdx, zeroTimeMs)
	converted := boolColumn(prepared.Batches, prepared.Len(), labelIdx)
	sessionizer := &analytics.Sessionizer{Timeout: 30 * time.Minute}
	sessions, err := sessionizer.Count(users, times, converted)
	if err != nil {
		return 0, details, fmt.Errorf("runner: sessionize: %w", err)
	}
	details["sessionization.sessions"] = fmt.Sprintf("%d", sessions.Sessions)
	details["sessionization.conversion_rate"] = fmt.Sprintf("%.3f", sessions.ConversionRate())
	// Quality: coverage of events by sessions (always 1 with this algorithm)
	// scaled by a sanity factor that sessions are non-degenerate (more events
	// than sessions).
	if sessions.Sessions == 0 || len(users) == 0 {
		return 0, details, nil
	}
	quality := 1.0 - float64(sessions.Sessions)/float64(len(users))
	if quality < 0 {
		quality = 0
	}
	return quality, details, nil
}

func (r *Runner) runReporting(ctx context.Context, engine *dataflow.Engine, campaign *model.Campaign,
	prepared *dataflow.BatchResult, details map[string]string, analyzed *dataflow.Stats) (float64, map[string]string, error) {

	if len(campaign.Goal.GroupColumns) == 0 || campaign.Goal.ValueColumn == "" {
		return 0, details, fmt.Errorf("%w: reporting needs group and value columns", ErrMissingParam)
	}
	src := dataflow.FromBatches(campaign.Goal.TargetTable, prepared.Schema, prepared.Batches)
	plan, ok := analyticsPlan(campaign, src)
	if !ok {
		return 0, details, fmt.Errorf("%w: reporting plan", ErrMissingParam)
	}
	report, err := engine.CollectBatches(ctx, plan)
	if err != nil {
		return 0, details, fmt.Errorf("runner: aggregate report: %w", err)
	}
	*analyzed = report.Stats
	details["reporting.groups"] = fmt.Sprintf("%d", report.Len())
	if report.Len() == 0 {
		return 0, details, nil
	}
	// Aggregation is exact; the quality indicator reflects completeness.
	return 1.0, details, nil
}

func parsePositiveInt(s string) (int, error) {
	n := 0
	for _, ch := range s {
		if ch < '0' || ch > '9' {
			return 0, fmt.Errorf("runner: not a positive integer: %q", s)
		}
		n = n*10 + int(ch-'0')
	}
	if n <= 0 {
		return 0, fmt.Errorf("runner: not a positive integer: %q", s)
	}
	return n, nil
}
