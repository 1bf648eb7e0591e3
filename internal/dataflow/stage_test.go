package dataflow

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/storage"
)

// combinedAndUncombinedEngines returns two engines over fresh clusters, one
// combining group-by partials map-side and one shuffling every input row.
func combinedAndUncombinedEngines(t *testing.T) (*Engine, *Engine) {
	t.Helper()
	return testEngineWith(t, WithMapSideCombine(true)), testEngineWith(t, WithMapSideCombine(false))
}

// numbersDataset builds a deterministic integer dataset over p partitions,
// recorded as a reference-interpreter source.
func numbersDataset(t *testing.T, n, p int) *Dataset {
	t.Helper()
	schema := storage.MustSchema(
		storage.Field{Name: "k", Type: storage.TypeInt},
		storage.Field{Name: "v", Type: storage.TypeFloat},
	)
	rows := make([]storage.Row, n)
	for i := range rows {
		rows[i] = storage.Row{int64(i % 7), float64(i)}
	}
	return refFromRows("numbers", schema, rows, p)
}

// narrowChainPlan builds a 3-operator narrow chain over d.
func narrowChainPlan(d *Dataset) *Dataset {
	return d.
		Filter("v >= 10", func(r Record) (bool, error) { return r.Float("v") >= 10, nil }).
		WithColumn(storage.Field{Name: "v2", Type: storage.TypeFloat},
			func(r Record) (storage.Value, error) { return r.Float("v") * 2, nil }).
		Filter("k != 3", func(r Record) (bool, error) { return r.Int("k") != 3, nil })
}

func rowStrings(rows []storage.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r)
	}
	return out
}

func sortedRowStrings(rows []storage.Row) []string {
	out := rowStrings(rows)
	sort.Strings(out)
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestFusedNarrowChainRunsOneJob(t *testing.T) {
	c, err := cluster.New(cluster.Uniform(2, 2, 0))
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(c)
	if err != nil {
		t.Fatal(err)
	}
	const parts = 4
	d := narrowChainPlan(numbersDataset(t, 1000, parts))
	res, err := e.Collect(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	// A chain of 3 narrow operators over 4 partitions must run as one
	// cluster job with 4 tasks, not 3 jobs / 12 tasks.
	if res.Stats.Tasks != parts {
		t.Errorf("tasks = %d, want %d (one per partition)", res.Stats.Tasks, parts)
	}
	if res.Stats.FusedStages != 1 {
		t.Errorf("fused stages = %d, want 1", res.Stats.FusedStages)
	}
	usage := c.Usage()
	if usage.Jobs != 1 {
		t.Errorf("cluster jobs = %d, want 1", usage.Jobs)
	}
	if usage.TasksRun != parts {
		t.Errorf("cluster job tasks = %d, want %d", usage.TasksRun, parts)
	}
}

// TestUnfusedNarrowChainRunsJobPerOperator runs narrow operators that a
// group-by separates, so none fuses with another: each is a one-operator
// stage of its own, one cluster job with one task per input partition.
func TestUnfusedNarrowChainRunsJobPerOperator(t *testing.T) {
	const parts = 4
	run := func(build func(*Dataset) *Dataset) (tasks, jobs int64, res *Result) {
		c, err := cluster.New(cluster.Uniform(2, 2, 0))
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewEngine(c, WithShufflePartitions(parts))
		if err != nil {
			t.Fatal(err)
		}
		res = collect(t, e, build(numbersDataset(t, 1000, parts)))
		return res.Stats.Tasks, c.Usage().Jobs, res
	}
	grouped := func(d *Dataset) *Dataset { return d.GroupBy("k").Agg(Count()) }
	wideTasks, wideJobs, _ := run(grouped)
	tasks, jobs, res := run(func(d *Dataset) *Dataset {
		return grouped(d.Filter("v >= 10", func(r Record) (bool, error) { return r.Float("v") >= 10, nil })).
			Filter("k != 3", func(r Record) (bool, error) { return r.Int("k") != 3, nil })
	})
	if jobs != wideJobs+2 {
		t.Errorf("cluster jobs = %d, want the group-by's %d plus one per filter", jobs, wideJobs)
	}
	if tasks != wideTasks+2*parts {
		t.Errorf("tasks = %d, want the group-by's %d plus %d per filter", tasks, wideTasks, parts)
	}
	if res.Stats.FusedStages != 0 {
		t.Errorf("fused stages = %d, want 0", res.Stats.FusedStages)
	}
}

// TestFusionMatchesUnfused holds fused narrow chains to the reference
// interpreter, which runs one operator at a time.
func TestFusionMatchesUnfused(t *testing.T) {
	plans := map[string]func(*Dataset) *Dataset{
		"filter-map-filter": narrowChainPlan,
		"chain-into-sort": func(d *Dataset) *Dataset {
			return narrowChainPlan(d).Sort(SortOrder{Column: "v2", Descending: true})
		},
	}
	for name, build := range plans {
		t.Run(name, func(t *testing.T) {
			plan := build(numbersDataset(t, 1000, 4))
			want, err := reference(plan)
			if err != nil {
				t.Fatal(err)
			}
			// Narrow chains and sort preserve order.
			want.check(t, "fused", collect(t, testEngine(t), plan))
		})
	}
}

func TestGroupByCombineMatchesAndReducesShuffle(t *testing.T) {
	build := func() *Dataset {
		return numbersDataset(t, 2000, 4).GroupBy("k").Agg(
			Count(), Sum("v"), Avg("v"),
		)
	}
	combiner, shuffler := combinedAndUncombinedEngines(t)
	ctx := context.Background()
	combined, err := combiner.Collect(ctx, build())
	if err != nil {
		t.Fatal(err)
	}
	plain, err := shuffler.Collect(ctx, build())
	if err != nil {
		t.Fatal(err)
	}
	if !equalStrings(sortedRowStrings(combined.Rows), sortedRowStrings(plain.Rows)) {
		t.Errorf("combined group-by differs from the uncombined group-by:\n%v\nvs\n%v",
			sortedRowStrings(combined.Rows), sortedRowStrings(plain.Rows))
	}
	// 2000 rows over 7 keys in 4 partitions: the combine pass shuffles at
	// most 4*7 partial groups instead of 2000 rows.
	if combined.Stats.ShuffledRows >= plain.Stats.ShuffledRows {
		t.Errorf("combine did not reduce shuffled rows: %d vs %d",
			combined.Stats.ShuffledRows, plain.Stats.ShuffledRows)
	}
	if combined.Stats.ShuffledRows > 4*7 {
		t.Errorf("combined shuffled rows = %d, want <= 28", combined.Stats.ShuffledRows)
	}
	if combined.Stats.CombinedRows != 2000-combined.Stats.ShuffledRows {
		t.Errorf("combined rows = %d, want %d", combined.Stats.CombinedRows, 2000-combined.Stats.ShuffledRows)
	}
	if plain.Stats.CombinedRows != 0 {
		t.Errorf("uncombined run reported CombinedRows = %d", plain.Stats.CombinedRows)
	}
}

func TestFusedUDFErrorFailsAction(t *testing.T) {
	fused := testEngine(t)
	d := numbersDataset(t, 100, 4).
		Filter("ok", func(r Record) (bool, error) { return true, nil }).
		WithColumn(storage.Field{Name: "x", Type: storage.TypeInt},
			func(r Record) (storage.Value, error) { return nil, errors.New("boom") })
	_, err := fused.Collect(context.Background(), d)
	if !errors.Is(err, ErrUDF) {
		t.Errorf("fused UDF error = %v, want ErrUDF", err)
	}
}

func TestExplainPhysicalPlan(t *testing.T) {
	fused, uncombined := combinedAndUncombinedEngines(t)
	d := narrowChainPlan(numbersDataset(t, 10, 2)).GroupBy("k").Agg(Count())

	plan := fused.Explain(d)
	for _, want := range []string{
		"PhysicalPlan(combine=on, broadcastJoin(≤10000), shufflePartitions=4, memoryBudget=unlimited)",
		"FusedStage(ops=3:",
		"Filter(v >= 10) → WithColumn(v2) → Filter(k != 3)",
		"GroupBy(keys=[k], aggs=1) [combine+shuffle]",
		"Source(numbers, partitions=2, rows=10)",
	} {
		if !strings.Contains(plan, want) {
			t.Errorf("fused Explain missing %q:\n%s", want, plan)
		}
	}

	baseline := uncombined.Explain(d)
	if !strings.Contains(baseline, "GroupBy(keys=[k], aggs=1) [shuffle]") {
		t.Errorf("uncombined Explain missing plain group-by:\n%s", baseline)
	}

	if got := fused.Explain(nil); got != "<invalid plan>" {
		t.Errorf("Explain(nil) = %q", got)
	}
	if got := fused.Explain(FromTable(nil)); !strings.Contains(got, "invalid plan") {
		t.Errorf("Explain of invalid dataset = %q", got)
	}
}

func TestFusedStageWithFailureInjection(t *testing.T) {
	cfg := cluster.Uniform(2, 2, 0.2)
	cfg.MaxAttempts = 8
	cfg.Seed = 5
	c, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(c)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Collect(context.Background(), narrowChainPlan(numbersDataset(t, 500, 4)))
	if err != nil {
		t.Fatalf("fused stage with retries: %v", err)
	}
	if res.Stats.Tasks != 4 {
		t.Errorf("tasks = %d, want 4", res.Stats.Tasks)
	}
	if len(res.Rows) == 0 {
		t.Error("no rows produced")
	}
}
