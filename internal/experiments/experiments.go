// Package experiments regenerates the tables and figures of the reproduction
// (see DESIGN.md §3 and EXPERIMENTS.md). Each experiment is a pure function
// from a seeded environment to a table of rows plus a textual rendering, so
// it can be driven both by the root bench harness (bench_test.go) and by the
// cmd/toreador-bench CLI.
//
// The paper itself contains no numbered tables or figures; the experiment
// identifiers below are defined by this reproduction and operationalise the
// paper's qualitative claims (see the experiment index in DESIGN.md).
package experiments

import (
	"context"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/deployment"
	"repro/internal/labs"
	"repro/internal/model"
	"repro/internal/planner"
	"repro/internal/runner"
	"repro/internal/service"
	"repro/internal/storage"
	"repro/internal/store"
	"repro/internal/workload"
)

// Env is the shared, seeded environment experiments run against.
type Env struct {
	Seed   int64
	Sizing workload.Sizing
	lab    *labs.Lab
}

// NewEnv builds an experiment environment. A zero sizing selects small,
// bench-friendly data volumes.
func NewEnv(seed int64, sizing workload.Sizing) (*Env, error) {
	if seed == 0 {
		seed = 1
	}
	if sizing.Customers == 0 && sizing.Meters == 0 && sizing.Days == 0 && sizing.Users == 0 {
		sizing = workload.Sizing{Customers: 600, Meters: 4, Days: 4, Users: 80}
	}
	lab, err := labs.NewLab(labs.Config{Seed: seed, Sizing: sizing})
	if err != nil {
		return nil, err
	}
	return &Env{Seed: seed, Sizing: sizing, lab: lab}, nil
}

// Lab exposes the underlying Labs instance.
func (e *Env) Lab() *labs.Lab { return e.lab }

// renderTable renders a fixed-width table.
func renderTable(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteString("\n")
	}
	writeRow(header)
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Table 1 — challenge catalog
// ---------------------------------------------------------------------------

// Table1Row summarises one Labs challenge.
type Table1Row struct {
	Challenge             string
	Vertical              string
	Goal                  string
	Objectives            int
	Alternatives          int
	CompliantAlternatives int
	CompileTime           time.Duration
}

// Table1 is the challenge-catalog experiment.
type Table1 struct{ Rows []Table1Row }

// RunTable1 enumerates every challenge's design space.
func RunTable1(e *Env) (*Table1, error) {
	var out Table1
	for _, ch := range e.lab.Challenges() {
		start := time.Now()
		alternatives, err := e.lab.Alternatives(ch.ID)
		if err != nil {
			return nil, fmt.Errorf("experiments: table1 %s: %w", ch.ID, err)
		}
		elapsed := time.Since(start)
		compliant := 0
		for _, a := range alternatives {
			if a.Compliant() {
				compliant++
			}
		}
		out.Rows = append(out.Rows, Table1Row{
			Challenge:             ch.ID,
			Vertical:              string(ch.Vertical),
			Goal:                  string(ch.Campaign.Goal.Task),
			Objectives:            len(ch.Campaign.Objectives),
			Alternatives:          len(alternatives),
			CompliantAlternatives: compliant,
			CompileTime:           elapsed,
		})
	}
	return &out, nil
}

// String renders the table.
func (t *Table1) String() string {
	rows := make([][]string, 0, len(t.Rows))
	for _, r := range t.Rows {
		rows = append(rows, []string{
			r.Challenge, r.Vertical, r.Goal,
			fmt.Sprintf("%d", r.Objectives),
			fmt.Sprintf("%d", r.Alternatives),
			fmt.Sprintf("%d", r.CompliantAlternatives),
			r.CompileTime.Round(time.Microsecond).String(),
		})
	}
	return "Table 1 — Labs challenge catalog (design-space size per challenge)\n" +
		renderTable([]string{"challenge", "vertical", "task", "objectives", "alternatives", "compliant", "enumeration"}, rows)
}

// ---------------------------------------------------------------------------
// Table 2 — alternative comparison on the churn challenge
// ---------------------------------------------------------------------------

// Table2Row is one executed alternative of the churn challenge.
type Table2Row struct {
	Service   string
	Platform  string
	Accuracy  float64
	Cost      float64
	LatencyMS float64
	Privacy   float64
	Score     float64
	Feasible  bool
	Compliant bool
}

// Table2 is the trial-and-error comparison experiment.
type Table2 struct{ Rows []Table2Row }

// RunTable2 executes one compliant alternative per analytics service of the
// churn challenge plus one representative non-compliant alternative, all on
// the same data.
func RunTable2(ctx context.Context, e *Env) (*Table2, error) {
	ch, err := e.lab.Challenge("telco-churn")
	if err != nil {
		return nil, err
	}
	alternatives, err := e.lab.Alternatives(ch.ID)
	if err != nil {
		return nil, err
	}
	run, err := runner.New(e.lab.Data(), runner.WithSeed(e.Seed))
	if err != nil {
		return nil, err
	}
	var out Table2
	seen := map[string]bool{}
	addRun := func(alt core.Alternative) error {
		report, err := run.Run(ctx, ch.Campaign, alt)
		if err != nil {
			return fmt.Errorf("experiments: table2 run %s: %w", alt.Fingerprint(), err)
		}
		step, _ := alt.Composition.AnalyticsStep()
		acc, _ := report.Measured.Get(model.IndicatorAccuracy)
		cost, _ := report.Measured.Get(model.IndicatorCost)
		lat, _ := report.Measured.Get(model.IndicatorLatency)
		priv, _ := report.Measured.Get(model.IndicatorPrivacy)
		out.Rows = append(out.Rows, Table2Row{
			Service:   step.Service.ID,
			Platform:  string(alt.Plan.Platform),
			Accuracy:  acc,
			Cost:      cost,
			LatencyMS: lat,
			Privacy:   priv,
			Score:     report.Evaluation.Score,
			Feasible:  report.Evaluation.Feasible,
			Compliant: report.Compliant,
		})
		return nil
	}
	for _, alt := range alternatives {
		if !alt.Compliant() {
			continue
		}
		step, ok := alt.Composition.AnalyticsStep()
		if !ok || seen[step.Service.ID] {
			continue
		}
		seen[step.Service.ID] = true
		if err := addRun(alt); err != nil {
			return nil, err
		}
	}
	for _, alt := range alternatives {
		if !alt.Compliant() {
			if err := addRun(alt); err != nil {
				return nil, err
			}
			break
		}
	}
	sort.Slice(out.Rows, func(i, j int) bool { return out.Rows[i].Score > out.Rows[j].Score })
	return &out, nil
}

// String renders the table.
func (t *Table2) String() string {
	rows := make([][]string, 0, len(t.Rows))
	for _, r := range t.Rows {
		rows = append(rows, []string{
			r.Service, r.Platform,
			fmt.Sprintf("%.3f", r.Accuracy),
			fmt.Sprintf("%.4f", r.Cost),
			fmt.Sprintf("%.1f", r.LatencyMS),
			fmt.Sprintf("%.2f", r.Privacy),
			fmt.Sprintf("%.3f", r.Score),
			fmt.Sprintf("%v", r.Feasible),
			fmt.Sprintf("%v", r.Compliant),
		})
	}
	return "Table 2 — measured comparison of churn-challenge alternatives (same data, same objectives)\n" +
		renderTable([]string{"analytics service", "platform", "accuracy", "cost", "latency_ms", "privacy", "score", "feasible", "compliant"}, rows)
}

// ---------------------------------------------------------------------------
// Figure 1 — interference of the privacy regime
// ---------------------------------------------------------------------------

// Figure1 reports per-regime surviving options for two challenges.
type Figure1 struct {
	Challenges []string
	Points     map[string][]core.InterferencePoint
}

// RunFigure1 sweeps the privacy regime for the churn and fraud challenges.
func RunFigure1(e *Env) (*Figure1, error) {
	out := &Figure1{Points: map[string][]core.InterferencePoint{}}
	for _, id := range []string{"telco-churn", "payment-fraud"} {
		ch, err := e.lab.Challenge(id)
		if err != nil {
			return nil, err
		}
		points, err := e.lab.Compiler().Interference(ch.Campaign)
		if err != nil {
			return nil, fmt.Errorf("experiments: figure1 %s: %w", id, err)
		}
		out.Challenges = append(out.Challenges, id)
		out.Points[id] = points
	}
	return out, nil
}

// String renders the figure data as a series table.
func (f *Figure1) String() string {
	var b strings.Builder
	b.WriteString("Figure 1 — design-stage options surviving as the privacy regime tightens\n")
	for _, ch := range f.Challenges {
		fmt.Fprintf(&b, "[%s]\n", ch)
		rows := make([][]string, 0, len(f.Points[ch]))
		for _, p := range f.Points[ch] {
			rows = append(rows, []string{
				string(p.Regime),
				fmt.Sprintf("%d", p.TotalAlternatives),
				fmt.Sprintf("%d", p.CompliantAlternatives),
				fmt.Sprintf("%d", p.PreparationOptions),
				fmt.Sprintf("%d", p.AnalyticsOptions),
				fmt.Sprintf("%d", p.DisplayOptions),
				fmt.Sprintf("%d", p.PlatformOptions),
			})
		}
		b.WriteString(renderTable([]string{"regime", "alternatives", "compliant", "preparation", "analytics", "display", "platforms"}, rows))
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Figure 2 — dataflow engine scalability
// ---------------------------------------------------------------------------

// Figure2Point is one (workers, rows) measurement of the engine.
type Figure2Point struct {
	Workers       int
	Rows          int
	WallTime      time.Duration
	ThroughputRPS float64
	SpeedupVs1    float64
	// ShuffledRows is the number of rows the pipeline moved across shuffle
	// boundaries; the broadcast join keeps the small dimension side out of
	// it entirely.
	ShuffledRows int64
	// BroadcastJoins counts joins the engine executed broadcast-side.
	BroadcastJoins int64
	// Batches counts the columnar batches the vectorized engine processed;
	// zero would mean the run fell back to row-at-a-time execution.
	Batches int64
	// SpilledBatches and SpilledBytes count columnar batches (and their
	// physical on-disk size) written to spill files; zero under the default
	// unlimited memory budget, where every partition stays resident.
	// SpillLogicalBytes is the raw (v1-equivalent) size of the same batches —
	// the physical/logical pair records the spill codec's compression ratio
	// in every committed artifact.
	SpilledBatches    int64
	SpilledBytes      int64
	SpillLogicalBytes int64
	// SortRuns counts the sorted runs the pipeline's ordered-reporting tail
	// spilled and merged; zero when the sort ran columnar in-memory (the
	// default unlimited budget) and non-zero on the spill-ablation point,
	// where the sort runs as an external merge.
	SortRuns int64
	// AggGroups counts the distinct group-by groups the aggregation emitted,
	// and AggSpilledPartitions the hash-aggregation sub-partitions spilled
	// and re-merged under the memory budget (zero on resident points).
	// AggPeakResidentBytes is the high-water estimate of resident aggregation
	// state, the quantity the spilling hash aggregation budgets against.
	AggGroups            int64
	AggSpilledPartitions int64
	AggPeakResidentBytes int64
	// Allocs and AllocBytes are the heap-allocation deltas across the run
	// (runtime.ReadMemStats before/after), recording the allocation
	// trajectory of the columnar operators next to the wall times. They ride
	// along in bench-compare's delta table but never gate.
	Allocs     int64
	AllocBytes int64
}

// Figure2 is the engine-scalability experiment.
type Figure2 struct{ Points []Figure2Point }

// RunFigure2 executes a representative aggregation+join pipeline over
// synthetic retail data while sweeping worker slots and input size. A final
// spill-ablation point re-runs the largest configuration with a one-byte
// memory budget (and the join forced to shuffle), so every committed
// artifact records the spilled trajectory next to the resident runs.
func RunFigure2(ctx context.Context, e *Env, workerSweep []int, rowSweep []int) (*Figure2, error) {
	if len(workerSweep) == 0 {
		workerSweep = []int{1, 2, 4, 8}
	}
	if len(rowSweep) == 0 {
		rowSweep = []int{20000, 80000}
	}
	point := func(workers, rows int, run pipelineRun) Figure2Point {
		return Figure2Point{
			Workers:              workers,
			Rows:                 rows,
			WallTime:             run.wall,
			ThroughputRPS:        float64(rows) / run.wall.Seconds(),
			ShuffledRows:         run.stats.ShuffledRows,
			BroadcastJoins:       run.stats.BroadcastJoins,
			Batches:              run.stats.Batches,
			SpilledBatches:       run.stats.SpilledBatches,
			SpilledBytes:         run.stats.SpilledBytes,
			SpillLogicalBytes:    run.stats.SpillLogicalBytes,
			SortRuns:             run.stats.SortRuns,
			AggGroups:            run.stats.AggGroups,
			AggSpilledPartitions: run.stats.AggSpilledPartitions,
			AggPeakResidentBytes: run.stats.AggPeakResidentBytes,
			Allocs:               run.allocs,
			AllocBytes:           run.allocBytes,
		}
	}
	out := &Figure2{}
	for _, rows := range rowSweep {
		baseline := map[int]float64{} // rows -> wall seconds at 1 worker
		for _, workers := range workerSweep {
			run, err := runScalabilityPipeline(ctx, e.Seed, rows, workers)
			if err != nil {
				return nil, err
			}
			p := point(workers, rows, run)
			if workers == workerSweep[0] {
				baseline[rows] = run.wall.Seconds()
			}
			if base, ok := baseline[rows]; ok && run.wall.Seconds() > 0 {
				p.SpeedupVs1 = base / run.wall.Seconds()
			}
			out.Points = append(out.Points, p)
		}
	}
	rows := rowSweep[len(rowSweep)-1]
	workers := workerSweep[len(workerSweep)-1]
	// The ablation also disables map-side combining so the group-by runs as
	// the budgeted shuffle-side hash aggregation — the arm that exercises the
	// spill-partition lifecycle and reports AggSpilledPartitions.
	run, err := runScalabilityPipeline(ctx, e.Seed, rows, workers,
		dataflow.WithMemoryBudget(1), dataflow.WithBroadcastJoin(false),
		dataflow.WithMapSideCombine(false))
	if err != nil {
		return nil, err
	}
	out.Points = append(out.Points, point(workers, rows, run))
	return out, nil
}

// runScalabilityPipeline builds rows of synthetic records and runs a
// score→filter→join→group-by→sort pipeline on a cluster with the given number of
// slots. The scoring step performs a fixed amount of per-row numeric work
// (mirroring the feature-engineering stages of the real campaigns) so the
// parallel fraction of the pipeline dominates the fixed shuffle overhead.
// Extra engine options layer on top of the partition count (the spill
// ablation passes a memory budget and disables the broadcast join so the
// shuffle actually accumulates batches).
func runScalabilityPipeline(ctx context.Context, seed int64, rows, workers int,
	opts ...dataflow.EngineOption) (pipelineRun, error) {
	schema := storage.MustSchema(
		storage.Field{Name: "id", Type: storage.TypeInt},
		storage.Field{Name: "key", Type: storage.TypeInt},
		storage.Field{Name: "value", Type: storage.TypeFloat},
	)
	data := make([]storage.Row, rows)
	for i := 0; i < rows; i++ {
		data[i] = storage.Row{int64(i), int64(i % 64), float64((i*7919)%1000) / 10}
	}
	dimSchema := storage.MustSchema(
		storage.Field{Name: "key", Type: storage.TypeInt},
		storage.Field{Name: "segment", Type: storage.TypeString},
	)
	dim := make([]storage.Row, 64)
	for i := range dim {
		dim[i] = storage.Row{int64(i), fmt.Sprintf("segment-%d", i%8)}
	}
	cfg := cluster.Uniform(1, workers, 0)
	cfg.Seed = seed
	cl, err := cluster.New(cfg)
	if err != nil {
		return pipelineRun{}, err
	}
	engine, err := dataflow.NewEngine(cl, append([]dataflow.EngineOption{
		dataflow.WithShufflePartitions(workers)}, opts...)...)
	if err != nil {
		return pipelineRun{}, err
	}
	facts := dataflow.FromRows("facts", schema, data, workers*2)
	dims := dataflow.FromRows("dims", dimSchema, dim, 2)
	plan := facts.
		WithColumn(storage.Field{Name: "score", Type: storage.TypeFloat}, func(r dataflow.Record) (storage.Value, error) {
			// Deterministic per-row numeric work standing in for feature
			// engineering (≈ half a microsecond per record).
			v := r.Float("value")
			acc := 0.0
			for k := 1; k <= 200; k++ {
				acc += (v + float64(k)) / float64(k)
			}
			return acc, nil
		}).
		Filter("value >= 10", func(r dataflow.Record) (bool, error) { return r.Float("value") >= 10, nil }).
		Join(dims, "key", "key", dataflow.InnerJoin).
		GroupBy("segment").
		Agg(dataflow.Count(), dataflow.Sum("score"), dataflow.Avg("value")).
		// Ordered-reporting tail (the paper's Figure 2 campaigns deliver
		// ranked segment reports): sorting the aggregate keeps the pipeline
		// columnar end to end and exercises the sort strategy the engine
		// chose — in-memory selection sort resident, external merge when the
		// spill-ablation point forces the one-byte budget.
		Sort(dataflow.SortOrder{Column: "sum_score", Descending: true}, dataflow.SortOrder{Column: "segment"})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	res, err := engine.Collect(ctx, plan)
	if err != nil {
		return pipelineRun{}, err
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	return pipelineRun{
		wall:       wall,
		stats:      res.Stats,
		allocs:     int64(after.Mallocs - before.Mallocs),
		allocBytes: int64(after.TotalAlloc - before.TotalAlloc),
	}, nil
}

// pipelineRun carries one scalability measurement: wall time, engine stats,
// and the process-wide heap-allocation deltas across the run. The alloc
// counters are approximate (anything else the process allocates during the
// run is included) but the pipeline dominates by orders of magnitude.
type pipelineRun struct {
	wall       time.Duration
	stats      dataflow.Stats
	allocs     int64
	allocBytes int64
}

// String renders the figure data.
func (f *Figure2) String() string {
	rows := make([][]string, 0, len(f.Points))
	for _, p := range f.Points {
		rows = append(rows, []string{
			fmt.Sprintf("%d", p.Rows),
			fmt.Sprintf("%d", p.Workers),
			p.WallTime.Round(time.Millisecond).String(),
			fmt.Sprintf("%.0f", p.ThroughputRPS),
			fmt.Sprintf("%.2f", p.SpeedupVs1),
			fmt.Sprintf("%d", p.ShuffledRows),
			fmt.Sprintf("%d", p.BroadcastJoins),
			fmt.Sprintf("%d", p.Batches),
			fmt.Sprintf("%d", p.SpilledBatches),
			fmt.Sprintf("%d", p.SpilledBytes),
			fmt.Sprintf("%d", p.SpillLogicalBytes),
			fmt.Sprintf("%d", p.SortRuns),
			fmt.Sprintf("%d", p.AggGroups),
			fmt.Sprintf("%d", p.AggSpilledPartitions),
			fmt.Sprintf("%d", p.Allocs),
		})
	}
	return "Figure 2 — dataflow engine scalability (filter → join → group-by → sort pipeline)\n" +
		renderTable([]string{"rows", "workers", "wall", "rows/s", "speedup", "shuffled", "bcast joins", "batches", "spilled", "spill B", "spill logical B", "sort runs", "agg groups", "agg spills", "allocs"}, rows)
}

// ---------------------------------------------------------------------------
// Table 3 — planner strategies vs manual baseline
// ---------------------------------------------------------------------------

// Table3Row compares one strategy on one challenge. The random baseline is
// averaged over several seeds (one manual user may get lucky; the average
// shows the expected outcome of planning without the platform).
type Table3Row struct {
	Challenge      string
	Strategy       planner.Strategy
	EffectiveScore float64
	Regret         float64
	CompliantRate  float64
	Explored       int
	Total          int
	PlanTime       time.Duration
}

// Table3 is the planner-vs-baseline experiment.
type Table3 struct{ Rows []Table3Row }

// table3RandomTrials is the number of seeds the random baseline is averaged
// over.
const table3RandomTrials = 7

// RunTable3 plans every challenge with every strategy over the same design
// space.
func RunTable3(e *Env) (*Table3, error) {
	out := &Table3{}
	for _, ch := range e.lab.Challenges() {
		alternatives, err := e.lab.Alternatives(ch.ID)
		if err != nil {
			return nil, err
		}
		pl := e.lab.Planner()
		optimal, err := pl.PlanOver(ch.Campaign, alternatives, planner.StrategyExhaustive)
		if err != nil {
			return nil, fmt.Errorf("experiments: table3 %s exhaustive: %w", ch.ID, err)
		}
		for _, strategy := range planner.Strategies() {
			trials := 1
			if strategy == planner.StrategyRandom {
				trials = table3RandomTrials
			}
			row := Table3Row{Challenge: ch.ID, Strategy: strategy, Total: len(alternatives)}
			for trial := 0; trial < trials; trial++ {
				pl.Seed = e.Seed + int64(trial)
				decision, err := pl.PlanOver(ch.Campaign, alternatives, strategy)
				if err != nil {
					// The strategy found nothing acceptable: maximal regret.
					row.Regret += optimal.EffectiveScore
					row.Explored = pl.RandomSamples
					continue
				}
				row.EffectiveScore += decision.EffectiveScore
				row.Regret += planner.Regret(decision, optimal)
				if decision.Compliant {
					row.CompliantRate++
				}
				row.Explored = decision.Explored
				row.PlanTime += decision.Elapsed
			}
			row.EffectiveScore /= float64(trials)
			row.Regret /= float64(trials)
			row.CompliantRate /= float64(trials)
			row.PlanTime /= time.Duration(trials)
			out.Rows = append(out.Rows, row)
		}
	}
	return out, nil
}

// String renders the table.
func (t *Table3) String() string {
	rows := make([][]string, 0, len(t.Rows))
	for _, r := range t.Rows {
		rows = append(rows, []string{
			r.Challenge, string(r.Strategy),
			fmt.Sprintf("%.3f", r.EffectiveScore),
			fmt.Sprintf("%.3f", r.Regret),
			fmt.Sprintf("%.0f%%", r.CompliantRate*100),
			fmt.Sprintf("%d/%d", r.Explored, r.Total),
			r.PlanTime.Round(time.Microsecond).String(),
		})
	}
	return "Table 3 — planning strategies vs the manual (random) baseline, estimated effective scores\n" +
		renderTable([]string{"challenge", "strategy", "eff. score", "regret", "compliant", "explored", "plan time"}, rows)
}

// ---------------------------------------------------------------------------
// Figure 3 — batch vs streaming deployment crossover
// ---------------------------------------------------------------------------

// Figure3Point compares batch and streaming estimates at one data volume.
type Figure3Point struct {
	Rows               int
	BatchFreshnessS    float64
	StreamFreshnessS   float64
	BatchCost          float64
	StreamCost         float64
	StreamMeetsSLA     bool
	BatchMeetsSLA      bool
	FreshnessTargetSec float64
}

// Figure3 is the deployment-crossover experiment.
type Figure3 struct{ Points []Figure3Point }

// RunFigure3 binds equivalent batch and streaming fraud pipelines across a
// sweep of input volumes and reports freshness and cost for each, against the
// fraud challenge's freshness objective.
func RunFigure3(e *Env, rowSweep []int) (*Figure3, error) {
	if len(rowSweep) == 0 {
		rowSweep = []int{1000, 10_000, 100_000, 1_000_000, 5_000_000}
	}
	ch, err := e.lab.Challenge("payment-fraud")
	if err != nil {
		return nil, err
	}
	freshObj, _ := ch.Campaign.ObjectiveFor(model.IndicatorFreshness)
	alternatives, err := e.lab.Alternatives(ch.ID)
	if err != nil {
		return nil, err
	}
	// Pick one compliant batch and one compliant streaming alternative with
	// the same detector.
	var batchAlt, streamAlt *core.Alternative
	for i := range alternatives {
		alt := alternatives[i]
		if !alt.Compliant() {
			continue
		}
		step, ok := alt.Composition.AnalyticsStep()
		if !ok || step.Service.ID != "detect-zscore" {
			continue
		}
		switch alt.Plan.Platform {
		case deployment.PlatformBatch:
			if batchAlt == nil {
				batchAlt = &alternatives[i]
			}
		case deployment.PlatformStreaming:
			if streamAlt == nil {
				streamAlt = &alternatives[i]
			}
		}
	}
	if batchAlt == nil || streamAlt == nil {
		return nil, fmt.Errorf("experiments: figure3 needs both batch and streaming compliant alternatives")
	}
	binder := deployment.NewBinder()
	out := &Figure3{}
	for _, rows := range rowSweep {
		batchPlan, err := binder.Bind(batchAlt.Composition, deployment.PlatformBatch, rows, ch.Campaign.Preferences)
		if err != nil {
			return nil, err
		}
		streamPlan, err := binder.Bind(streamAlt.Composition, deployment.PlatformStreaming, rows, ch.Campaign.Preferences)
		if err != nil {
			return nil, err
		}
		point := Figure3Point{
			Rows:               rows,
			BatchFreshnessS:    batchPlan.EstimatedFreshnessSeconds,
			StreamFreshnessS:   streamPlan.EstimatedFreshnessSeconds,
			BatchCost:          batchPlan.EstimatedCost,
			StreamCost:         streamPlan.EstimatedCost,
			FreshnessTargetSec: freshObj.Target,
			BatchMeetsSLA:      freshObj.Comparison.Satisfied(batchPlan.EstimatedFreshnessSeconds, freshObj.Target),
			StreamMeetsSLA:     freshObj.Comparison.Satisfied(streamPlan.EstimatedFreshnessSeconds, freshObj.Target),
		}
		out.Points = append(out.Points, point)
	}
	return out, nil
}

// String renders the figure data.
func (f *Figure3) String() string {
	rows := make([][]string, 0, len(f.Points))
	for _, p := range f.Points {
		rows = append(rows, []string{
			fmt.Sprintf("%d", p.Rows),
			fmt.Sprintf("%.2f", p.BatchFreshnessS),
			fmt.Sprintf("%.2f", p.StreamFreshnessS),
			fmt.Sprintf("%v", p.BatchMeetsSLA),
			fmt.Sprintf("%v", p.StreamMeetsSLA),
			fmt.Sprintf("%.3f", p.BatchCost),
			fmt.Sprintf("%.3f", p.StreamCost),
		})
	}
	return fmt.Sprintf("Figure 3 — batch vs streaming deployment as the event volume grows (freshness SLA <= %gs)\n",
		f.Points[0].FreshnessTargetSec) +
		renderTable([]string{"rows", "batch fresh_s", "stream fresh_s", "batch SLA", "stream SLA", "batch cost", "stream cost"}, rows)
}

// ---------------------------------------------------------------------------
// Table 4 — compilation phase cost vs execution
// ---------------------------------------------------------------------------

// Table4Row breaks down compilation time for one challenge.
type Table4Row struct {
	Challenge    string
	Validate     time.Duration
	Match        time.Duration
	Compose      time.Duration
	Comply       time.Duration
	Bind         time.Duration
	TotalCompile time.Duration
	Execution    time.Duration
}

// Table4 is the compilation-cost experiment.
type Table4 struct{ Rows []Table4Row }

// RunTable4 compiles every challenge, runs the chosen alternative once, and
// reports where the time goes.
func RunTable4(ctx context.Context, e *Env) (*Table4, error) {
	run, err := runner.New(e.lab.Data(), runner.WithSeed(e.Seed))
	if err != nil {
		return nil, err
	}
	out := &Table4{}
	for _, ch := range e.lab.Challenges() {
		result, err := e.lab.Compiler().Compile(ch.Campaign)
		if err != nil {
			return nil, fmt.Errorf("experiments: table4 compile %s: %w", ch.ID, err)
		}
		start := time.Now()
		if _, err := run.Run(ctx, ch.Campaign, result.Chosen); err != nil {
			return nil, fmt.Errorf("experiments: table4 run %s: %w", ch.ID, err)
		}
		out.Rows = append(out.Rows, Table4Row{
			Challenge:    ch.ID,
			Validate:     result.Timings.Validate,
			Match:        result.Timings.Match,
			Compose:      result.Timings.Compose,
			Comply:       result.Timings.Comply,
			Bind:         result.Timings.Bind,
			TotalCompile: result.Timings.Total(),
			Execution:    time.Since(start),
		})
	}
	return out, nil
}

// String renders the table.
func (t *Table4) String() string {
	rows := make([][]string, 0, len(t.Rows))
	for _, r := range t.Rows {
		rows = append(rows, []string{
			r.Challenge,
			r.Validate.Round(time.Microsecond).String(),
			r.Match.Round(time.Microsecond).String(),
			r.Compose.Round(time.Microsecond).String(),
			r.Comply.Round(time.Microsecond).String(),
			r.Bind.Round(time.Microsecond).String(),
			r.TotalCompile.Round(time.Microsecond).String(),
			r.Execution.Round(time.Millisecond).String(),
		})
	}
	return "Table 4 — compilation phase cost vs pipeline execution time\n" +
		renderTable([]string{"challenge", "validate", "match", "compose", "comply", "bind", "compile total", "execution"}, rows)
}

// ---------------------------------------------------------------------------
// Figure 4 — trial-and-error convergence in the Labs
// ---------------------------------------------------------------------------

// Figure4 holds learning curves per trainee strategy.
type Figure4 struct {
	Challenge string
	Attempts  int
	Curves    map[labs.TraineeStrategy][]float64
}

// figure4Trials is the number of simulated trainees averaged per strategy.
const figure4Trials = 3

// RunFigure4 simulates trainees with every strategy on the churn challenge,
// averaging the learning curves over several seeds so a single lucky random
// trainee does not mask the convergence difference.
func RunFigure4(ctx context.Context, e *Env, attempts int) (*Figure4, error) {
	if attempts <= 0 {
		attempts = 5
	}
	out := &Figure4{Challenge: "telco-churn", Attempts: attempts, Curves: map[labs.TraineeStrategy][]float64{}}
	for _, strategy := range labs.TraineeStrategies() {
		var mean []float64
		for trial := 0; trial < figure4Trials; trial++ {
			curve, err := e.lab.SimulateTrainee(ctx, out.Challenge, strategy, attempts, e.Seed+int64(trial))
			if err != nil {
				return nil, fmt.Errorf("experiments: figure4 %s: %w", strategy, err)
			}
			if mean == nil {
				mean = make([]float64, len(curve))
			}
			for i, v := range curve {
				mean[i] += v
			}
		}
		for i := range mean {
			mean[i] /= figure4Trials
		}
		out.Curves[strategy] = mean
	}
	return out, nil
}

// String renders the learning curves.
func (f *Figure4) String() string {
	var rows [][]string
	strategies := labs.TraineeStrategies()
	for _, s := range strategies {
		row := []string{string(s)}
		for _, v := range f.Curves[s] {
			row = append(row, fmt.Sprintf("%.3f", v))
		}
		rows = append(rows, row)
	}
	header := []string{"strategy"}
	if len(rows) > 0 {
		for i := 1; i < len(rows[0]); i++ {
			header = append(header, fmt.Sprintf("after %d", i))
		}
	}
	return fmt.Sprintf("Figure 4 — best Labs score after k attempts on %s (trial-and-error convergence)\n", f.Challenge) +
		renderTable(header, rows)
}

// ---------------------------------------------------------------------------
// Figure 5 — multi-tenant service under load
// ---------------------------------------------------------------------------

// Figure5Point is one tenant-count measurement of the analytics service under
// concurrent submission pressure with injected cluster faults.
type Figure5Point struct {
	Tenants   int
	Submitted int
	Completed int
	Rejected  int
	Shed      int
	Failed    int
	Retries   int64
	// Accounted is the service's core robustness invariant: every submission
	// ended in exactly one of the four terminal outcomes above.
	Accounted  bool
	WallTime   time.Duration
	GoodputRPS float64 // completed campaigns per second of wall time
	P50MS      float64 // end-to-end latency of executed campaigns
	P99MS      float64
}

// Figure5 sweeps tenant counts against a fixed-capacity service.
type Figure5 struct {
	PerTenant  int
	QueueDepth int
	Workers    int
	Points     []Figure5Point
}

// figure5FailureRate is the injected transient-fault probability per cluster
// task attempt during the service-load sweep.
const figure5FailureRate = 0.05

// RunFigure5 drives the multi-tenant service runtime: each tenant submits a
// mix of the lab's challenge campaigns concurrently against a service with a
// deliberately small queue and worker pool, while the cluster injects
// transient faults. The point of the figure is the degradation shape — as
// tenants multiply on fixed capacity, admission control sheds and rejects
// excess load while goodput and tail latency stay bounded, and no submission
// is ever lost.
func RunFigure5(ctx context.Context, e *Env, tenantSweep []int, perTenant int) (*Figure5, error) {
	if len(tenantSweep) == 0 {
		tenantSweep = []int{1, 2, 4, 6}
	}
	if perTenant <= 0 {
		perTenant = 6
	}

	// The workload mix: every lab challenge the compiler can satisfy, from
	// the tight-SLA classification campaigns to unconstrained forecasts.
	type shape struct {
		campaign *model.Campaign
		alt      core.Alternative
	}
	var shapes []shape
	for _, ch := range e.lab.Challenges() {
		result, err := e.lab.Compiler().Compile(ch.Campaign)
		if err != nil {
			return nil, fmt.Errorf("experiments: figure5 compile %s: %w", ch.ID, err)
		}
		shapes = append(shapes, shape{ch.Campaign, result.Chosen})
	}
	if len(shapes) == 0 {
		return nil, fmt.Errorf("experiments: figure5: lab offers no challenges")
	}

	out := &Figure5{PerTenant: perTenant, QueueDepth: 4, Workers: 2}
	for _, tenants := range tenantSweep {
		run, err := runner.New(e.lab.Data(),
			runner.WithSeed(e.Seed),
			runner.WithFailureInjection(figure5FailureRate))
		if err != nil {
			return nil, err
		}
		svc, err := service.New(run, service.Config{
			QueueDepth:   out.QueueDepth,
			Workers:      out.Workers,
			MaxRetries:   2,
			RetryBackoff: cluster.Backoff{Base: time.Millisecond, Max: 10 * time.Millisecond, Jitter: 0.5},
			Seed:         e.Seed,
		})
		if err != nil {
			return nil, err
		}

		start := time.Now()
		type outcome struct {
			ticket *service.Ticket
			err    error
		}
		perTenantOutcomes := make([][]outcome, tenants)
		var wg sync.WaitGroup
		for ti := 0; ti < tenants; ti++ {
			wg.Add(1)
			go func(ti int) {
				defer wg.Done()
				tenant := fmt.Sprintf("tenant-%d", ti)
				for m := 0; m < perTenant; m++ {
					sh := shapes[(ti+m)%len(shapes)]
					tk, err := svc.Submit(tenant, sh.campaign, sh.alt)
					perTenantOutcomes[ti] = append(perTenantOutcomes[ti], outcome{tk, err})
					// A short stagger keeps pressure sustained rather than a
					// single burst, so the queue sees arrivals throughout.
					time.Sleep(time.Millisecond)
				}
			}(ti)
		}
		wg.Wait()
		if err := svc.Shutdown(ctx); err != nil {
			return nil, fmt.Errorf("experiments: figure5 drain (%d tenants): %w", tenants, err)
		}
		wall := time.Since(start)

		pt := Figure5Point{Tenants: tenants, WallTime: wall}
		accounted := true
		for _, tenantOutcomes := range perTenantOutcomes {
			for _, o := range tenantOutcomes {
				pt.Submitted++
				switch {
				case o.err != nil:
					pt.Rejected++
				case o.ticket == nil:
					accounted = false
				default:
					switch o.ticket.Status() {
					case service.StatusCompleted:
						pt.Completed++
					case service.StatusShed:
						pt.Shed++
					case service.StatusFailed:
						pt.Failed++
					default:
						accounted = false
					}
				}
			}
		}
		pt.Accounted = accounted &&
			pt.Submitted == pt.Completed+pt.Rejected+pt.Shed+pt.Failed &&
			pt.Submitted == tenants*perTenant

		snap := svc.Stats()
		pt.Retries = snap.CounterValue("service.retries")
		if lat, ok := snap.Histograms["service.latency.ms"]; ok {
			pt.P50MS = lat.P50
			pt.P99MS = lat.P99
		}
		if secs := wall.Seconds(); secs > 0 {
			pt.GoodputRPS = float64(pt.Completed) / secs
		}
		out.Points = append(out.Points, pt)
	}
	return out, nil
}

// String renders the service-load sweep.
func (f *Figure5) String() string {
	rows := make([][]string, 0, len(f.Points))
	for _, p := range f.Points {
		rows = append(rows, []string{
			fmt.Sprintf("%d", p.Tenants),
			fmt.Sprintf("%d", p.Submitted),
			fmt.Sprintf("%d", p.Completed),
			fmt.Sprintf("%d", p.Rejected),
			fmt.Sprintf("%d", p.Shed),
			fmt.Sprintf("%d", p.Failed),
			fmt.Sprintf("%d", p.Retries),
			fmt.Sprintf("%v", p.Accounted),
			fmt.Sprintf("%.1f", p.GoodputRPS),
			fmt.Sprintf("%.1f", p.P50MS),
			fmt.Sprintf("%.1f", p.P99MS),
			p.WallTime.Round(time.Millisecond).String(),
		})
	}
	return fmt.Sprintf("Figure 5 — service runtime under multi-tenant load (queue=%d workers=%d, %d campaigns/tenant, %.0f%% injected faults)\n",
		f.QueueDepth, f.Workers, f.PerTenant, figure5FailureRate*100) +
		renderTable([]string{"tenants", "submitted", "completed", "rejected", "shed", "failed", "retries", "accounted", "goodput/s", "p50 ms", "p99 ms", "wall"}, rows)
}

// ---------------------------------------------------------------------------
// Figure 7 — durable tables: recompute vs table-scan
// ---------------------------------------------------------------------------

// Figure7Point is one materialisation measurement: a preparation pipeline at
// one input size, executed on the engine (recompute), durably committed to
// the segment store, and read back — whole and under a selective predicate
// that exercises zone-map segment pruning.
type Figure7Point struct {
	Rows int
	// RecomputeWall is the engine execution of the preparation pipeline —
	// the cost a campaign pays every time it has no saved table to read.
	RecomputeWall time.Duration
	// SaveWall is the durable commit: segment files written and fsynced,
	// then the manifest WAL record fsynced (the commit point).
	SaveWall time.Duration
	// ScanWall is the full table-scan of the saved segments — the cost of
	// re-reading instead of recomputing.
	ScanWall time.Duration
	// BitIdentical records that the re-read reproduced the recompute exactly,
	// row for row and value for value.
	BitIdentical bool
	// SelectiveWall is a scan under a predicate selecting only the top of the
	// sort-key range; the zone maps prune every segment that cannot match.
	SelectiveWall   time.Duration
	SegmentsScanned int64
	SegmentsSkipped int64
	FramesSkipped   int64
}

// Figure7 is the durable-table experiment: what a campaign saves by scanning
// a previously persisted result instead of recomputing it, and what the
// zone-map pushdown saves on top when the read is selective.
type Figure7 struct{ Points []Figure7Point }

// RunFigure7 sweeps input sizes over a prepare-sort pipeline: each point runs
// the pipeline on the engine, commits the result to a crash-safe store in a
// throwaway directory, re-reads it (verifying bit-identity), and scans it
// under a max-key predicate to measure zone-map segment pruning.
func RunFigure7(ctx context.Context, e *Env, rowSweep []int) (*Figure7, error) {
	if len(rowSweep) == 0 {
		rowSweep = []int{2000, 8000}
	}
	const parts = 4
	schema := storage.MustSchema(
		storage.Field{Name: "id", Type: storage.TypeInt},
		storage.Field{Name: "region", Type: storage.TypeString},
		storage.Field{Name: "value", Type: storage.TypeFloat},
	)
	regions := []string{"eu", "us", "apac", "latam"}
	out := &Figure7{}
	for _, n := range rowSweep {
		rows := make([]storage.Row, n)
		for i := range rows {
			rows[i] = storage.Row{int64(i), regions[i%len(regions)], float64(i%97) / 9.7}
		}
		cfg := cluster.Uniform(1, parts, 0)
		cfg.Seed = e.Seed
		cl, err := cluster.New(cfg)
		if err != nil {
			return nil, err
		}
		engine, err := dataflow.NewEngine(cl, dataflow.WithShufflePartitions(parts))
		if err != nil {
			return nil, err
		}
		// The preparation pipeline: drop a third of the rows, rescale, and
		// sort by id — the sort makes every saved segment a contiguous id
		// range, which is what gives the zone maps their pruning power.
		plan := dataflow.FromRows("events", schema, rows, parts).
			Filter("drop every third", func(r dataflow.Record) (bool, error) {
				return r.Int("id")%3 != 0, nil
			}).
			Map("rescale", schema, func(r dataflow.Record) (storage.Row, error) {
				return storage.Row{r.Int("id"), r.String("region"), r.Float("value") * 10}, nil
			}).
			Sort(dataflow.SortOrder{Column: "id"})

		start := time.Now()
		res, err := engine.Collect(ctx, plan)
		if err != nil {
			return nil, err
		}
		recompute := time.Since(start)

		dir, err := os.MkdirTemp("", "toreador-figure7-*")
		if err != nil {
			return nil, err
		}
		point, err := figure7Measure(dir, schema, res.Rows)
		os.RemoveAll(dir)
		if err != nil {
			return nil, err
		}
		point.Rows = n
		point.RecomputeWall = recompute
		out.Points = append(out.Points, *point)
	}
	return out, nil
}

// figure7Measure commits rows to a fresh store under dir and measures the
// save, the verified full re-read and the selective zone-pruned scan.
func figure7Measure(dir string, schema *storage.Schema, rows []storage.Row) (*Figure7Point, error) {
	st, err := store.Open(dir,
		store.WithSegmentRows(1024), store.WithFrameRows(256))
	if err != nil {
		return nil, err
	}
	defer st.Close()
	const table = "figure7/prepared"

	start := time.Now()
	if err := st.SaveRows(table, schema, rows, store.WithBloomColumn("region")); err != nil {
		return nil, err
	}
	point := &Figure7Point{SaveWall: time.Since(start)}

	start = time.Now()
	reread, err := st.Rows(table)
	if err != nil {
		return nil, err
	}
	point.ScanWall = time.Since(start)
	point.BitIdentical = reflect.DeepEqual(rows, reread)

	maxID := int64(0)
	idIdx := schema.IndexOf("id")
	for _, row := range rows {
		if v := row[idIdx].(int64); v > maxID {
			maxID = v
		}
	}
	pred, err := store.ParsePred(fmt.Sprintf("id >= %d", maxID), schema)
	if err != nil {
		return nil, err
	}
	start = time.Now()
	stats, err := st.Scan(table, store.Filter{pred}, func(*storage.ColumnBatch) error { return nil })
	if err != nil {
		return nil, err
	}
	point.SelectiveWall = time.Since(start)
	point.SegmentsScanned = int64(stats.SegmentsScanned)
	point.SegmentsSkipped = int64(stats.SegmentsSkipped)
	point.FramesSkipped = int64(stats.FramesSkipped)
	return point, nil
}

// String renders the figure data.
func (f *Figure7) String() string {
	rows := make([][]string, 0, len(f.Points))
	for _, p := range f.Points {
		rows = append(rows, []string{
			fmt.Sprintf("%d", p.Rows),
			p.RecomputeWall.Round(time.Millisecond).String(),
			p.SaveWall.Round(time.Millisecond).String(),
			p.ScanWall.Round(time.Millisecond).String(),
			fmt.Sprintf("%v", p.BitIdentical),
			p.SelectiveWall.Round(time.Millisecond).String(),
			fmt.Sprintf("%d", p.SegmentsScanned),
			fmt.Sprintf("%d", p.SegmentsSkipped),
			fmt.Sprintf("%d", p.FramesSkipped),
		})
	}
	return "Figure 7 — durable tables (recompute vs table-scan, zone-map segment pruning)\n" +
		renderTable([]string{"rows", "recompute", "save", "scan", "bit-identical", "selective", "seg scanned", "seg skipped", "frames skipped"}, rows)
}
