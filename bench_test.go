package toreador

// bench_test.go is the benchmark harness that regenerates every table and
// figure of the experiment suite (DESIGN.md §3, EXPERIMENTS.md). Each
// Benchmark* function drives the corresponding experiment in
// internal/experiments and reports its headline numbers as benchmark metrics,
// so `go test -bench=. -benchmem` reproduces the full evaluation. The
// cmd/toreador-bench command prints the same experiments as human-readable
// tables.

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dataflow"
	"repro/internal/experiments"
	"repro/internal/labs"
	"repro/internal/planner"
	"repro/internal/storage"
	"repro/internal/workload"
)

// benchSizing keeps the synthetic datasets small enough that the whole bench
// suite completes in a couple of minutes while still exercising every code
// path with real computation.
var benchSizing = workload.Sizing{Customers: 800, Meters: 4, Days: 5, Users: 100}

func benchEnv(b *testing.B) *experiments.Env {
	b.Helper()
	env, err := experiments.NewEnv(1, benchSizing)
	if err != nil {
		b.Fatal(err)
	}
	return env
}

// BenchmarkTable1ChallengeCatalog enumerates the design space of every Labs
// challenge (Table 1).
func BenchmarkTable1ChallengeCatalog(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	var last *experiments.Table1
	for i := 0; i < b.N; i++ {
		t, err := experiments.RunTable1(env)
		if err != nil {
			b.Fatal(err)
		}
		last = t
	}
	b.StopTimer()
	total, compliant := 0, 0
	for _, r := range last.Rows {
		total += r.Alternatives
		compliant += r.CompliantAlternatives
	}
	b.ReportMetric(float64(total), "alternatives")
	b.ReportMetric(float64(compliant), "compliant")
}

// BenchmarkTable2AlternativeComparison executes one alternative per
// classifier of the churn challenge and compares the measured indicators
// (Table 2).
func BenchmarkTable2AlternativeComparison(b *testing.B) {
	env := benchEnv(b)
	ctx := context.Background()
	b.ResetTimer()
	var last *experiments.Table2
	for i := 0; i < b.N; i++ {
		t, err := experiments.RunTable2(ctx, env)
		if err != nil {
			b.Fatal(err)
		}
		last = t
	}
	b.StopTimer()
	best, worst := 0.0, 1.0
	for _, r := range last.Rows {
		if !r.Compliant {
			continue
		}
		if r.Accuracy > best {
			best = r.Accuracy
		}
		if r.Accuracy < worst {
			worst = r.Accuracy
		}
	}
	b.ReportMetric(best, "best_accuracy")
	b.ReportMetric(worst, "worst_accuracy")
	b.ReportMetric(float64(len(last.Rows)), "alternatives_run")
}

// BenchmarkFigure1Interference sweeps the privacy regime for the churn and
// fraud challenges (Figure 1).
func BenchmarkFigure1Interference(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	var last *experiments.Figure1
	for i := 0; i < b.N; i++ {
		f, err := experiments.RunFigure1(env)
		if err != nil {
			b.Fatal(err)
		}
		last = f
	}
	b.StopTimer()
	churn := last.Points["telco-churn"]
	b.ReportMetric(float64(churn[0].CompliantAlternatives), "compliant_at_none")
	b.ReportMetric(float64(churn[len(churn)-1].CompliantAlternatives), "compliant_at_strict")
}

// BenchmarkFigure2EngineScalability sweeps workers and input sizes over the
// representative dataflow pipeline (Figure 2).
func BenchmarkFigure2EngineScalability(b *testing.B) {
	env := benchEnv(b)
	ctx := context.Background()
	workers := []int{1, 2, 4, 8}
	rows := []int{20000, 80000}
	b.ResetTimer()
	var last *experiments.Figure2
	for i := 0; i < b.N; i++ {
		f, err := experiments.RunFigure2(ctx, env, workers, rows)
		if err != nil {
			b.Fatal(err)
		}
		last = f
	}
	b.StopTimer()
	maxSpeedup := 0.0
	for _, p := range last.Points {
		if p.SpeedupVs1 > maxSpeedup {
			maxSpeedup = p.SpeedupVs1
		}
	}
	b.ReportMetric(maxSpeedup, "max_speedup")
}

// BenchmarkTable3PlannerBaseline compares the model-driven planner against
// the greedy heuristic and the manual random baseline (Table 3).
func BenchmarkTable3PlannerBaseline(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	var last *experiments.Table3
	for i := 0; i < b.N; i++ {
		t, err := experiments.RunTable3(env)
		if err != nil {
			b.Fatal(err)
		}
		last = t
	}
	b.StopTimer()
	var exhaustive, random float64
	var n float64
	for _, r := range last.Rows {
		switch r.Strategy {
		case planner.StrategyExhaustive:
			exhaustive += r.EffectiveScore
			n++
		case planner.StrategyRandom:
			random += r.EffectiveScore
		}
	}
	if n > 0 {
		b.ReportMetric(exhaustive/n, "exhaustive_score")
		b.ReportMetric(random/n, "random_score")
	}
}

// BenchmarkFigure3DeploymentCrossover sweeps the event volume and compares
// batch and streaming deployments against the fraud challenge's freshness SLA
// (Figure 3).
func BenchmarkFigure3DeploymentCrossover(b *testing.B) {
	env := benchEnv(b)
	rows := []int{1000, 10_000, 100_000, 1_000_000, 5_000_000}
	b.ResetTimer()
	var last *experiments.Figure3
	for i := 0; i < b.N; i++ {
		f, err := experiments.RunFigure3(env, rows)
		if err != nil {
			b.Fatal(err)
		}
		last = f
	}
	b.StopTimer()
	crossover := 0.0
	for _, p := range last.Points {
		if p.StreamMeetsSLA && !p.BatchMeetsSLA {
			crossover = float64(p.Rows)
			break
		}
	}
	b.ReportMetric(crossover, "crossover_rows")
}

// BenchmarkTable4CompilationCost measures per-phase compilation cost against
// the cost of executing the chosen pipeline (Table 4).
func BenchmarkTable4CompilationCost(b *testing.B) {
	env := benchEnv(b)
	ctx := context.Background()
	b.ResetTimer()
	var last *experiments.Table4
	for i := 0; i < b.N; i++ {
		t, err := experiments.RunTable4(ctx, env)
		if err != nil {
			b.Fatal(err)
		}
		last = t
	}
	b.StopTimer()
	var compileMS, execMS float64
	for _, r := range last.Rows {
		compileMS += float64(r.TotalCompile.Microseconds()) / 1000
		execMS += float64(r.Execution.Microseconds()) / 1000
	}
	b.ReportMetric(compileMS, "compile_ms_total")
	b.ReportMetric(execMS, "execute_ms_total")
}

// BenchmarkFigure4TrialAndError simulates trainee learning curves on the
// churn challenge (Figure 4).
func BenchmarkFigure4TrialAndError(b *testing.B) {
	env := benchEnv(b)
	ctx := context.Background()
	b.ResetTimer()
	var last *experiments.Figure4
	for i := 0; i < b.N; i++ {
		f, err := experiments.RunFigure4(ctx, env, 4)
		if err != nil {
			b.Fatal(err)
		}
		last = f
	}
	b.StopTimer()
	guided := last.Curves[labs.TraineeGuided]
	random := last.Curves[labs.TraineeRandom]
	b.ReportMetric(guided[0], "guided_first_attempt")
	b.ReportMetric(random[0], "random_first_attempt")
}

// ---------------------------------------------------------------------------
// Micro-benchmarks of the core BDAaaS operations (ablation-level detail).
// ---------------------------------------------------------------------------

func benchPlatformAndCampaign(b *testing.B) (*Platform, *Campaign) {
	b.Helper()
	p, err := New(Config{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := p.RegisterScenario(VerticalTelco, Sizing{Customers: 800}); err != nil {
		b.Fatal(err)
	}
	campaign := &Campaign{
		Name:     "bench-churn",
		Vertical: string(VerticalTelco),
		Goal: Goal{
			Task:           TaskClassification,
			TargetTable:    "telco_customers",
			LabelColumn:    "churned",
			FeatureColumns: []string{"tenure_months", "monthly_charge", "support_calls", "dropped_calls"},
		},
		Sources: []DataSource{{Table: "telco_customers", ContainsPersonalData: true, Region: "eu"}},
		Objectives: []Objective{
			{Indicator: IndicatorAccuracy, Comparison: AtLeast, Target: 0.75, Hard: true},
			{Indicator: IndicatorCost, Comparison: AtMost, Target: 2},
		},
		Regime: RegimePseudonymize,
	}
	return p, campaign
}

// BenchmarkCompileCampaign measures the full model-driven compilation
// (enumerate + select) of the churn campaign.
func BenchmarkCompileCampaign(b *testing.B) {
	p, campaign := benchPlatformAndCampaign(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Compile(campaign); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEnumerateAlternatives measures design-space enumeration alone.
func BenchmarkEnumerateAlternatives(b *testing.B) {
	p, campaign := benchPlatformAndCampaign(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Alternatives(campaign); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExecuteChosenPipeline measures running the chosen pipeline
// (preparation + training + evaluation) on the simulated cluster.
func BenchmarkExecuteChosenPipeline(b *testing.B) {
	p, campaign := benchPlatformAndCampaign(b)
	result, err := p.Compile(campaign)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Run(ctx, campaign, result.Chosen); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInterferenceSweep measures the regime sweep used by Figure 1.
func BenchmarkInterferenceSweep(b *testing.B) {
	p, campaign := benchPlatformAndCampaign(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Interference(campaign); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWorkloadGeneration measures synthetic scenario generation, the
// substrate every experiment depends on.
func BenchmarkWorkloadGeneration(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		gen := workload.NewGenerator(int64(i + 1))
		if _, err := gen.Generate(workload.VerticalTelco, workload.Sizing{Customers: 800, Meters: 1, Days: 1, Users: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Stage-compiler benchmarks (DESIGN.md §2.3): fused vs per-operator execution
// of narrow chains, and map-side combined vs uncombined group-by.
// ---------------------------------------------------------------------------

// stageBenchEngine builds an engine over a fresh 2x2 cluster with the stage
// compiler and map-side combine either both on or both off.
func stageBenchEngine(b *testing.B, optimized bool) *dataflow.Engine {
	b.Helper()
	c, err := cluster.New(cluster.Uniform(2, 2, 0))
	if err != nil {
		b.Fatal(err)
	}
	e, err := dataflow.NewEngine(c,
		dataflow.WithFusion(optimized),
		dataflow.WithMapSideCombine(optimized))
	if err != nil {
		b.Fatal(err)
	}
	return e
}

func stageBenchRows(n int) (*storage.Schema, []storage.Row) {
	schema := storage.MustSchema(
		storage.Field{Name: "k", Type: storage.TypeInt},
		storage.Field{Name: "v", Type: storage.TypeFloat},
	)
	rows := make([]storage.Row, n)
	for i := range rows {
		rows[i] = storage.Row{int64(i % 50), float64(i%1000) / 10}
	}
	return schema, rows
}

// BenchmarkNarrowChain executes a 4-operator narrow chain with the stage
// compiler fused into one cluster job per action ("fused") and with one job
// plus a full intermediate materialisation per operator ("unfused"). The
// tasks/op metric shows the scheduling difference: 8 fused vs 32 unfused.
func BenchmarkNarrowChain(b *testing.B) {
	const rows = 100_000
	schema, data := stageBenchRows(rows)
	plan := dataflow.FromRows("bench", schema, data, 8).
		Filter("v >= 5", func(r dataflow.Record) (bool, error) { return r.Float("v") >= 5, nil }).
		Filter("k not multiple of 7", func(r dataflow.Record) (bool, error) { return r.Int("k")%7 != 0, nil }).
		Sample(0.9, 42).
		Filter("v < 95", func(r dataflow.Record) (bool, error) { return r.Float("v") < 95, nil })
	ctx := context.Background()
	for _, mode := range []struct {
		name      string
		optimized bool
	}{{"fused", true}, {"unfused", false}} {
		b.Run(mode.name, func(b *testing.B) {
			e := stageBenchEngine(b, mode.optimized)
			b.ReportAllocs()
			b.ResetTimer()
			var last *dataflow.Result
			for i := 0; i < b.N; i++ {
				res, err := e.Collect(ctx, plan)
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.StopTimer()
			b.ReportMetric(float64(last.Stats.Tasks), "tasks/op")
			b.ReportMetric(float64(last.Stats.FusedStages), "fused_stages/op")
		})
	}
}

// BenchmarkGroupByCombine aggregates 50k rows over 50 keys with and without
// the map-side combine pass. The shuffled_rows metric shows the traffic
// difference: at most partitions×keys partial groups cross the shuffle when
// combining, versus every input row without it.
func BenchmarkGroupByCombine(b *testing.B) {
	const rows = 50_000
	schema, data := stageBenchRows(rows)
	plan := dataflow.FromRows("bench", schema, data, 8).
		GroupBy("k").
		Agg(dataflow.Count(), dataflow.Sum("v"), dataflow.Avg("v"))
	ctx := context.Background()
	for _, mode := range []struct {
		name      string
		optimized bool
	}{{"combined", true}, {"uncombined", false}} {
		b.Run(mode.name, func(b *testing.B) {
			e := stageBenchEngine(b, mode.optimized)
			b.ReportAllocs()
			b.ResetTimer()
			var last *dataflow.Result
			for i := 0; i < b.N; i++ {
				res, err := e.Collect(ctx, plan)
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.StopTimer()
			b.ReportMetric(float64(last.Stats.ShuffledRows), "shuffled_rows/op")
			b.ReportMetric(float64(last.Stats.CombinedRows), "combined_rows/op")
		})
	}
}

// ---------------------------------------------------------------------------
// Wide-operator strategy benchmark (DESIGN.md §2.5): broadcast vs shuffled
// join. The pair toggles exactly one strategy switch; allocation counts
// compare the binary-key-encoder paths under the two traffic patterns.
// ---------------------------------------------------------------------------

// wideBenchEngine builds an engine over a fresh 2x2 cluster with the given
// strategy overrides on top of the defaults.
func wideBenchEngine(b *testing.B, opts ...dataflow.EngineOption) *dataflow.Engine {
	b.Helper()
	c, err := cluster.New(cluster.Uniform(2, 2, 0))
	if err != nil {
		b.Fatal(err)
	}
	e, err := dataflow.NewEngine(c, opts...)
	if err != nil {
		b.Fatal(err)
	}
	return e
}

// wideBenchRows builds n rows with keys cycling over the given cardinality
// and a deterministic scrambled value column (unsorted input for the sort
// benchmarks).
func wideBenchRows(n, keys int) (*storage.Schema, []storage.Row) {
	schema := storage.MustSchema(
		storage.Field{Name: "k", Type: storage.TypeInt},
		storage.Field{Name: "v", Type: storage.TypeFloat},
	)
	rows := make([]storage.Row, n)
	for i := range rows {
		scrambled := (uint64(i) * 2654435761) % 1_000_003
		rows[i] = storage.Row{int64(i % keys), float64(scrambled)}
	}
	return schema, rows
}

// BenchmarkJoinBroadcast joins 100k fact rows against a 64-row dimension
// table with the broadcast strategy ("broadcast") and the shuffled hash join
// ("shuffled"). The shuffled_rows metric shows the traffic the broadcast
// avoids: zero versus both inputs.
func BenchmarkJoinBroadcast(b *testing.B) {
	const rows = 100_000
	schema, data := wideBenchRows(rows, 64)
	dimSchema := storage.MustSchema(
		storage.Field{Name: "k", Type: storage.TypeInt},
		storage.Field{Name: "name", Type: storage.TypeString},
	)
	dims := make([]storage.Row, 64)
	for i := range dims {
		dims[i] = storage.Row{int64(i), fmt.Sprintf("dim-%02d", i)}
	}
	plan := dataflow.FromRows("facts", schema, data, 8).
		Join(dataflow.FromRows("dims", dimSchema, dims, 2), "k", "k", dataflow.InnerJoin)
	ctx := context.Background()
	for _, mode := range []struct {
		name    string
		enabled bool
	}{{"broadcast", true}, {"shuffled", false}} {
		b.Run(mode.name, func(b *testing.B) {
			e := wideBenchEngine(b, dataflow.WithBroadcastJoin(mode.enabled))
			b.ReportAllocs()
			b.ResetTimer()
			var last *dataflow.Result
			for i := 0; i < b.N; i++ {
				res, err := e.Collect(ctx, plan)
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.StopTimer()
			b.ReportMetric(float64(last.Stats.ShuffledRows), "shuffled_rows/op")
			b.ReportMetric(float64(last.Stats.BroadcastJoins), "broadcast_joins/op")
		})
	}
}

// ---------------------------------------------------------------------------
// Spill-to-disk benchmarks (DESIGN.md §2.7): wide operators with the
// partition-store accumulation kept fully resident ("memory") versus forced
// to spill every batch through the binary codec to temp files ("spill").
// Each pair runs the identical plan; the spilled_batches/spilled_bytes
// metrics confirm the spill arm actually hit disk, and the time/bytes deltas
// price the codec + I/O overhead that buys larger-than-RAM inputs.
// ---------------------------------------------------------------------------

// BenchmarkSpillShuffle joins 100k fact rows against a dimension table with
// broadcasting disabled, so both sides hash-shuffle through partition stores.
// The spill arm's one-byte budget forces every bucket chunk to disk and back.
func BenchmarkSpillShuffle(b *testing.B) {
	const rows = 100_000
	schema, data := wideBenchRows(rows, 64)
	dimSchema := storage.MustSchema(
		storage.Field{Name: "k", Type: storage.TypeInt},
		storage.Field{Name: "segment", Type: storage.TypeString},
	)
	dim := make([]storage.Row, 64)
	for i := range dim {
		dim[i] = storage.Row{int64(i), fmt.Sprintf("segment-%d", i%8)}
	}
	plan := dataflow.FromRows("facts", schema, data, 8).
		Join(dataflow.FromRows("dims", dimSchema, dim, 2), "k", "k", dataflow.InnerJoin)
	ctx := context.Background()
	for _, mode := range []struct {
		name   string
		budget int64
	}{{"memory", 0}, {"spill", 1}} {
		b.Run(mode.name, func(b *testing.B) {
			e := wideBenchEngine(b,
				dataflow.WithBroadcastJoin(false),
				dataflow.WithMemoryBudget(mode.budget))
			b.ReportAllocs()
			b.ResetTimer()
			var last dataflow.Stats
			for i := 0; i < b.N; i++ {
				n, stats, err := e.CountStats(ctx, plan)
				if err != nil {
					b.Fatal(err)
				}
				if n == 0 {
					b.Fatal("join produced no rows")
				}
				last = stats
			}
			b.StopTimer()
			b.ReportMetric(float64(last.SpilledBatches), "spilled_batches/op")
			b.ReportMetric(float64(last.SpilledBytes), "spilled_bytes/op")
			b.ReportMetric(float64(last.SpillLogicalBytes), "spill_logical_bytes/op")
			b.ReportMetric(float64(last.ShuffledRows), "shuffled_rows/op")
		})
	}
}

// BenchmarkSpillGroupBy aggregates 100k rows over 512 keys on the
// non-combined columnar group-by (every row crosses the shuffle, the shape
// that actually exceeds RAM), resident versus forced to spill.
func BenchmarkSpillGroupBy(b *testing.B) {
	const rows = 100_000
	schema, data := wideBenchRows(rows, 512)
	plan := dataflow.FromRows("bench", schema, data, 8).
		GroupBy("k").
		Agg(dataflow.Count(), dataflow.Sum("v"), dataflow.Max("v"))
	ctx := context.Background()
	for _, mode := range []struct {
		name   string
		budget int64
	}{{"memory", 0}, {"spill", 1}} {
		b.Run(mode.name, func(b *testing.B) {
			e := wideBenchEngine(b,
				dataflow.WithMapSideCombine(false),
				dataflow.WithMemoryBudget(mode.budget))
			b.ReportAllocs()
			b.ResetTimer()
			var last dataflow.Stats
			for i := 0; i < b.N; i++ {
				n, stats, err := e.CountStats(ctx, plan)
				if err != nil {
					b.Fatal(err)
				}
				if n == 0 {
					b.Fatal("group-by produced no rows")
				}
				last = stats
			}
			b.StopTimer()
			b.ReportMetric(float64(last.SpilledBatches), "spilled_batches/op")
			b.ReportMetric(float64(last.SpilledBytes), "spilled_bytes/op")
			b.ReportMetric(float64(last.SpillLogicalBytes), "spill_logical_bytes/op")
			b.ReportMetric(float64(last.ShuffledRows), "shuffled_rows/op")
		})
	}
}

// ---------------------------------------------------------------------------
// External sort benchmark (DESIGN.md §2.8): the spill-aware external merge vs
// the unlimited in-memory columnar sort.
// ---------------------------------------------------------------------------

// sortBenchPlan builds the 4-key 100k-row sort the external-sort pair runs:
// four duplicate-heavy key columns covering every typed kernel (int, float,
// string, bool) plus a unique payload column, sorted with mixed directions so
// multi-key tie-breaking is exercised on every comparison path, behind a
// leading filter stage.
func sortBenchPlan(rows int) *dataflow.Dataset {
	schema := storage.MustSchema(
		storage.Field{Name: "ki", Type: storage.TypeInt},
		storage.Field{Name: "kf", Type: storage.TypeFloat},
		storage.Field{Name: "ks", Type: storage.TypeString},
		storage.Field{Name: "kb", Type: storage.TypeBool},
		storage.Field{Name: "id", Type: storage.TypeInt},
	)
	data := make([]storage.Row, rows)
	for i := range data {
		scrambled := (uint64(i) * 2654435761) % 1_000_003
		data[i] = storage.Row{
			int64(scrambled % 50),
			float64(scrambled%9) / 4,
			"s" + string(rune('a'+scrambled%11)),
			scrambled%2 == 0,
			int64(i),
		}
	}
	return dataflow.FromRows("sortbench", schema, data, 8).
		Filter("id >= 0", func(r dataflow.Record) (bool, error) { return r.Int("id") >= 0, nil }).
		Sort(
			dataflow.SortOrder{Column: "ki"},
			dataflow.SortOrder{Column: "kf", Descending: true},
			dataflow.SortOrder{Column: "ks"},
			dataflow.SortOrder{Column: "kb", Descending: true},
		)
}

// BenchmarkSortExternal runs the 4-key 100k-row sort with the unlimited
// in-memory columnar core ("unlimited") and forced through the external
// merge ("budgeted", one-byte budget: every range-shuffle chunk and every
// sorted run spills through the codec). The peak_resident metric is the
// measured side of the runs × chunk memory bound, asserted against the
// BatchMemSize of one full chunk; results are checked bit-identical outside
// the timed loops.
func BenchmarkSortExternal(b *testing.B) {
	const rows = 100_000
	plan := sortBenchPlan(rows)
	ctx := context.Background()

	// Equivalence gate: the budgeted external merge must reproduce the
	// in-memory ordering bit for bit.
	baseRes, err := wideBenchEngine(b).Collect(ctx, plan)
	if err != nil {
		b.Fatal(err)
	}
	extRes, err := wideBenchEngine(b, dataflow.WithMemoryBudget(1)).Collect(ctx, plan)
	if err != nil {
		b.Fatal(err)
	}
	if len(baseRes.Rows) != len(extRes.Rows) {
		b.Fatalf("external sort emitted %d rows, in-memory %d", len(extRes.Rows), len(baseRes.Rows))
	}
	for i := range baseRes.Rows {
		if !reflect.DeepEqual(baseRes.Rows[i], extRes.Rows[i]) {
			b.Fatalf("external sort row %d = %#v, in-memory %#v", i, extRes.Rows[i], baseRes.Rows[i])
		}
	}
	chunk, err := storage.BatchFromRows(baseRes.Schema, baseRes.Rows[:dataflow.SortChunkRows])
	if err != nil {
		b.Fatal(err)
	}
	chunkMem := storage.BatchMemSize(chunk)

	for _, mode := range []struct {
		name   string
		budget int64
	}{{"unlimited", 0}, {"budgeted", 1}} {
		b.Run(mode.name, func(b *testing.B) {
			e := wideBenchEngine(b, dataflow.WithMemoryBudget(mode.budget))
			b.ReportAllocs()
			b.ResetTimer()
			var last dataflow.Stats
			for i := 0; i < b.N; i++ {
				n, stats, err := e.CountStats(ctx, plan)
				if err != nil {
					b.Fatal(err)
				}
				if n != rows {
					b.Fatalf("sort produced %d rows, want %d", n, rows)
				}
				last = stats
			}
			b.StopTimer()
			if mode.budget > 0 {
				if last.SortRuns == 0 || last.SortMergedBatches == 0 {
					b.Fatalf("budgeted sort must merge spilled runs, got runs=%d merged=%d",
						last.SortRuns, last.SortMergedBatches)
				}
				if last.SortPeakResidentBytes > last.SortRuns*chunkMem {
					b.Fatalf("sort peak resident %d exceeds runs(%d) × chunk(%d)",
						last.SortPeakResidentBytes, last.SortRuns, chunkMem)
				}
			}
			b.ReportMetric(float64(last.SortRuns), "sort_runs/op")
			b.ReportMetric(float64(last.SortMergedBatches), "merged_batches/op")
			b.ReportMetric(float64(last.SortPeakResidentBytes), "peak_resident_bytes/op")
			b.ReportMetric(float64(last.SpilledBytes), "spilled_bytes/op")
		})
	}
}

// BenchmarkComplianceEvaluation measures a single compliance evaluation, the
// inner loop of alternative elaboration.
func BenchmarkComplianceEvaluation(b *testing.B) {
	p, campaign := benchPlatformAndCampaign(b)
	alternatives, err := p.Alternatives(campaign)
	if err != nil {
		b.Fatal(err)
	}
	// Re-evaluate the chosen alternative's objectives as a proxy for the
	// planner's scoring loop (pure CPU, no I/O).
	var decisions int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := p.Plan(campaign, StrategyExhaustive)
		if err != nil {
			b.Fatal(err)
		}
		if d.Feasible {
			decisions++
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(alternatives)), "alternatives")
	b.ReportMetric(float64(decisions), "feasible_decisions")
}

// BenchmarkFigure5ServiceLoad drives the multi-tenant service runtime under
// concurrent submission pressure with injected cluster faults (Figure 5).
func BenchmarkFigure5ServiceLoad(b *testing.B) {
	env := benchEnv(b)
	ctx := context.Background()
	b.ResetTimer()
	var last *experiments.Figure5
	for i := 0; i < b.N; i++ {
		f, err := experiments.RunFigure5(ctx, env, []int{1, 4}, 5)
		if err != nil {
			b.Fatal(err)
		}
		last = f
	}
	b.StopTimer()
	for _, p := range last.Points {
		if !p.Accounted {
			b.Fatalf("%d tenants: submissions lost: %+v", p.Tenants, p)
		}
	}
	high := last.Points[len(last.Points)-1]
	b.ReportMetric(high.GoodputRPS, "goodput_rps_4t")
	b.ReportMetric(high.P99MS, "p99_ms_4t")
	b.ReportMetric(float64(high.Rejected+high.Shed), "pushback_4t")
}

// BenchmarkFigure7DurableTables measures the durable-table materialisation
// loop (Figure 7): run the preparation pipeline, commit the result to the
// crash-safe segment store, and read it back whole and under a selective
// zone-map-pruned predicate. The reported metrics are the headline artifact
// numbers: segments skipped by the pushdown and the verified bit-identity of
// re-read vs recompute.
func BenchmarkFigure7DurableTables(b *testing.B) {
	ctx := context.Background()
	env := benchEnv(b)
	b.ReportAllocs()
	b.ResetTimer()
	var last *experiments.Figure7
	for i := 0; i < b.N; i++ {
		f, err := experiments.RunFigure7(ctx, env, []int{8000})
		if err != nil {
			b.Fatal(err)
		}
		last = f
	}
	b.StopTimer()
	p := last.Points[len(last.Points)-1]
	if !p.BitIdentical {
		b.Fatal("table re-read must be bit-identical to recompute")
	}
	if p.SegmentsSkipped == 0 {
		b.Fatal("selective scan must skip zone-mapped segments")
	}
	b.ReportMetric(float64(p.SegmentsSkipped), "segments_skipped")
	b.ReportMetric(float64(p.FramesSkipped), "frames_skipped")
}
