// Package experiments regenerates the tables and figures of the paper's
// evaluation (see DESIGN.md §3). Each experiment is a pure function from a
// seeded environment to a table of rows plus a textual rendering, printed by
// the cmd/toreador-bench CLI. Performance is measured by benchmark/, not here.
//
// The paper itself contains no numbered tables or figures; the experiment
// identifiers below are defined by this reproduction and operationalise the
// paper's qualitative claims (see the experiment index in DESIGN.md).
package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/deployment"
	"repro/internal/labs"
	"repro/internal/model"
	"repro/internal/planner"
	"repro/internal/runner"
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
