package dataflow

// wide_test.go covers the physical strategies of the wide operators
// (DESIGN.md §2.5): the range-partitioned parallel sort, the broadcast hash
// join, and the engine-level plan validation that
// keeps hand-built plans from panicking mid-task.

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/storage"
)

// wideDataset builds n rows over p partitions with a pseudo-random sortable
// value, a low-cardinality key and a sequence number for stability checks.
func wideDataset(t testing.TB, n, p int) *Dataset {
	t.Helper()
	schema := storage.MustSchema(
		storage.Field{Name: "seq", Type: storage.TypeInt},
		storage.Field{Name: "k", Type: storage.TypeInt},
		storage.Field{Name: "v", Type: storage.TypeFloat},
	)
	rows := make([]storage.Row, n)
	for i := range rows {
		// Weyl-style scrambling keeps the values deterministic but unsorted.
		scrambled := (uint64(i) * 2654435761) % 1_000_003
		rows[i] = storage.Row{int64(i), int64(i % 40), float64(scrambled)}
	}
	return refFromRows("wide", schema, rows, p)
}

func TestRangeSortMatchesSingleTask(t *testing.T) {
	// 2000 rows over 8 partitions is comfortably above the range-sort
	// fallback threshold for a 4-slot engine.
	plan := wideDataset(t, 2000, 8).Sort(
		SortOrder{Column: "k"},
		SortOrder{Column: "v", Descending: true},
	)
	ranged := collect(t, testEngineWith(t), plan)
	// One shuffle partition leaves nothing to range-partition over.
	single := collect(t, testEngineWith(t, WithShufflePartitions(1)), plan)

	if ranged.Stats.SortSampledRows == 0 {
		t.Error("range sort must sample rows for split points")
	}
	if single.Stats.SortSampledRows != 0 {
		t.Error("single-task sort must not sample")
	}
	// Both must match the reference's stable sort row for row, which covers
	// both global ordering and stability (equal keys keep their input order).
	want, err := reference(plan)
	if err != nil {
		t.Fatal(err)
	}
	want.check(t, "range-partitioned sort", ranged)
	want.check(t, "single-task sort", single)
}

// TestColumnarSortMatchesBoxed pins the typed sort kernels over every kernel
// type (int, float, string, bool, with nulls) against the reference's stable
// sort of boxed rows under CompareValues, bit for bit, including how equal
// keys break ties — in every engine arm.
func TestColumnarSortMatchesBoxed(t *testing.T) {
	schema := storage.MustSchema(
		storage.Field{Name: "i", Type: storage.TypeInt, Nullable: true},
		storage.Field{Name: "f", Type: storage.TypeFloat, Nullable: true},
		storage.Field{Name: "s", Type: storage.TypeString},
		storage.Field{Name: "b", Type: storage.TypeBool},
		storage.Field{Name: "id", Type: storage.TypeInt},
	)
	rows := make([]storage.Row, 3000)
	for i := range rows {
		var iv storage.Value
		if i%13 != 0 {
			iv = int64(i % 5)
		}
		var fv storage.Value
		if i%7 != 0 {
			fv = float64((i*2654435761)%9) / 4
		}
		rows[i] = storage.Row{iv, fv, "s" + string(rune('a'+i%3)), i%2 == 0, int64(i)}
	}
	plan := refFromRows("typed", schema, rows, 8).Sort(
		SortOrder{Column: "i"},
		SortOrder{Column: "f", Descending: true},
		SortOrder{Column: "s"},
		SortOrder{Column: "b", Descending: true},
	)
	checkArms(t, plan)
}

// TestColumnarSortStability drives a duplicate-only key through a single
// partition: a stable sort must keep the unique id column in input order
// within each key group.
func TestColumnarSortStability(t *testing.T) {
	schema := storage.MustSchema(
		storage.Field{Name: "k", Type: storage.TypeInt},
		storage.Field{Name: "id", Type: storage.TypeInt},
	)
	rows := make([]storage.Row, 500)
	for i := range rows {
		rows[i] = storage.Row{int64(i % 3), int64(i)}
	}
	res := collect(t, testEngineWith(t), refFromRows("stable", schema, rows, 1).Sort(SortOrder{Column: "k"}))
	lastID := map[int64]int64{}
	for _, r := range res.Rows {
		k, id := r[0].(int64), r[1].(int64)
		if prev, ok := lastID[k]; ok && id < prev {
			t.Fatalf("stability violated: key %d saw id %d after %d", k, id, prev)
		}
		lastID[k] = id
	}
}

func TestRangeSortSmallInputFallsBack(t *testing.T) {
	e := testEngineWith(t)
	res := collect(t, e, wideDataset(t, 100, 4).Sort(SortOrder{Column: "v"}))
	if res.Stats.SortSampledRows != 0 {
		t.Error("tiny input must fall back to the single-task sort")
	}
	for i := 1; i < len(res.Rows); i++ {
		if storage.CompareValues(res.Rows[i-1][2], res.Rows[i][2]) > 0 {
			t.Fatalf("fallback output not sorted at %d", i)
		}
	}
}

func TestRangeSortMetrics(t *testing.T) {
	e := testEngineWith(t)
	collect(t, e, wideDataset(t, 2000, 8).Sort(SortOrder{Column: "v"}))
	snap := e.Metrics().Snapshot()
	if snap.CounterValue("sort.sampled") == 0 {
		t.Error("sort.sampled counter must accumulate")
	}
}

func TestBroadcastJoinThresholdBoundary(t *testing.T) {
	right := refFromRows("dims", storage.MustSchema(
		storage.Field{Name: "k", Type: storage.TypeInt},
		storage.Field{Name: "name", Type: storage.TypeString},
	), []storage.Row{
		{int64(0), "zero"}, {int64(1), "one"}, {int64(2), "two"},
		{int64(3), "three"}, {int64(4), "four"},
	}, 2)
	plan := wideDataset(t, 400, 4).Join(right, "k", "k", InnerJoin)

	// Build side of 5 rows at threshold 5: broadcast.
	at := collect(t, testEngineWith(t, withBroadcastThreshold(5)), plan)
	if at.Stats.BroadcastJoins != 1 || at.Stats.ShuffledRows != 0 {
		t.Errorf("threshold==build size must broadcast (joins=%d shuffled=%d)",
			at.Stats.BroadcastJoins, at.Stats.ShuffledRows)
	}
	// One below: shuffle.
	under := collect(t, testEngineWith(t, withBroadcastThreshold(4)), plan)
	if under.Stats.BroadcastJoins != 0 || under.Stats.ShuffledRows == 0 {
		t.Errorf("build side over threshold must shuffle (joins=%d shuffled=%d)",
			under.Stats.BroadcastJoins, under.Stats.ShuffledRows)
	}
	if !equalStrings(sortedRowStrings(at.Rows), sortedRowStrings(under.Rows)) {
		t.Error("broadcast and shuffled joins must produce the same rows")
	}
	// Metric accumulates on the broadcasting engine.
	e := testEngineWith(t)
	collect(t, e, plan)
	if e.Metrics().Snapshot().CounterValue("joins.broadcast") != 1 {
		t.Error("joins.broadcast counter must accumulate")
	}
}

func TestBroadcastLeftJoinMatchesShuffled(t *testing.T) {
	right := refFromRows("dims", storage.MustSchema(
		storage.Field{Name: "k", Type: storage.TypeInt},
		storage.Field{Name: "name", Type: storage.TypeString},
	), []storage.Row{{int64(1), "one"}, {int64(2), "two"}}, 1)
	// Keys 0..39 on the left, only 1 and 2 match: most rows null-extend.
	plan := wideDataset(t, 400, 4).Join(right, "k", "k", LeftJoin)
	broadcast := collect(t, testEngineWith(t), plan)
	shuffled := collect(t, testEngineWith(t, withBroadcastThreshold(-1)), plan)
	if len(broadcast.Rows) != 400 || len(shuffled.Rows) != 400 {
		t.Fatalf("left join rows = %d / %d, want 400", len(broadcast.Rows), len(shuffled.Rows))
	}
	if !equalStrings(sortedRowStrings(broadcast.Rows), sortedRowStrings(shuffled.Rows)) {
		t.Error("broadcast left join must match the shuffled strategy")
	}
	if broadcast.Stats.BroadcastJoins != 1 || shuffled.Stats.BroadcastJoins != 0 {
		t.Errorf("broadcast joins = %d / %d, want 1 / 0",
			broadcast.Stats.BroadcastJoins, shuffled.Stats.BroadcastJoins)
	}
}

// TestWideOperatorValidationCatchesHandBuiltPlans covers the engine-level
// plan validation: the Dataset builders reject unknown columns, but plans
// assembled directly from nodes used to panic inside a task (Schema.IndexOf
// returning -1). Collect must instead fail fast with a descriptive error.
func TestWideOperatorValidationCatchesHandBuiltPlans(t *testing.T) {
	e := testEngine(t)
	base := wideDataset(t, 50, 2)
	other := wideDataset(t, 50, 2)
	cases := []struct {
		name string
		node planNode
		want string
	}{
		{"sort", &sortNode{child: base.node, orders: []SortOrder{{Column: "ghost"}}}, "sort"},
		{"groupby", &groupByNode{child: base.node, keys: []string{"ghost"}, aggs: []Aggregation{Count()}}, "group-by"},
		{"join-left", &joinNode{left: base.node, right: other.node, leftKey: "ghost", rightKey: "k", kind: InnerJoin}, "join (left)"},
		{"join-right", &joinNode{left: base.node, right: other.node, leftKey: "k", rightKey: "ghost", kind: InnerJoin}, "join (right)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := e.Collect(context.Background(), &Dataset{node: tc.node})
			if err == nil {
				t.Fatal("hand-built plan with unknown column must fail, not panic")
			}
			if !errors.Is(err, storage.ErrUnknownField) {
				t.Errorf("error = %v, want ErrUnknownField", err)
			}
			if !strings.Contains(err.Error(), `"ghost"`) || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q must name the operator and the column", err)
			}
		})
	}
	// A bad node below a wide operator must be caught too.
	nested := &sortNode{
		child:  &sortNode{child: base.node, orders: []SortOrder{{Column: "ghost"}}},
		orders: []SortOrder{{Column: "k"}},
	}
	if _, err := e.Collect(context.Background(), &Dataset{node: nested}); !errors.Is(err, storage.ErrUnknownField) {
		t.Errorf("nested bad plan error = %v, want ErrUnknownField", err)
	}
}

// wideFailurePlans enumerates one plan per wide operator, each large enough
// to exercise the optimised strategies.
func wideFailurePlans(t testing.TB) map[string]*Dataset {
	right := refFromRows("dims", storage.MustSchema(
		storage.Field{Name: "k", Type: storage.TypeInt},
		storage.Field{Name: "name", Type: storage.TypeString},
	), []storage.Row{{int64(1), "one"}, {int64(2), "two"}}, 1)
	return map[string]*Dataset{
		"sort":    wideDataset(t, 2000, 8).Sort(SortOrder{Column: "v"}),
		"join":    wideDataset(t, 2000, 8).Join(right, "k", "k", InnerJoin),
		"groupby": wideDataset(t, 2000, 8).GroupBy("k").Agg(Count()),
	}
}

// TestWideOperatorsPropagateTaskFailure mirrors PR 1's error-chain work for
// the new strategies: when a task exhausts its retry budget, the action must
// surface the cluster failure (with the injected root cause), not a panic or
// a bystander cancellation.
func TestWideOperatorsPropagateTaskFailure(t *testing.T) {
	for name, plan := range wideFailurePlans(t) {
		t.Run(name, func(t *testing.T) {
			cfg := cluster.Uniform(2, 2, 0.95)
			cfg.MaxAttempts = 2
			cfg.Seed = 7
			c, err := cluster.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			e, err := NewEngine(c)
			if err != nil {
				t.Fatal(err)
			}
			_, err = e.Collect(context.Background(), plan)
			if err == nil {
				t.Skip("statistically improbable: every doomed task passed")
			}
			if !errors.Is(err, cluster.ErrTaskFailed) {
				t.Errorf("error = %v, want ErrTaskFailed in the chain", err)
			}
			if !cluster.IsInjectedFailure(err) {
				t.Errorf("error chain %v must preserve the injected root cause", err)
			}
		})
	}
}

func TestWideOperatorsPropagateCancellation(t *testing.T) {
	for name, plan := range wideFailurePlans(t) {
		t.Run(name, func(t *testing.T) {
			e := testEngine(t)
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := e.Collect(ctx, plan); !errors.Is(err, context.Canceled) {
				t.Errorf("error = %v, want context.Canceled", err)
			}
		})
	}
}

// TestWideOperatorsSurviveRetries checks the happy path under a low failure
// rate: retries mask the injected failures and every strategy still produces
// correct output.
func TestWideOperatorsSurviveRetries(t *testing.T) {
	for name, plan := range wideFailurePlans(t) {
		t.Run(name, func(t *testing.T) {
			cfg := cluster.Uniform(2, 2, 0.1)
			cfg.MaxAttempts = 10
			cfg.Seed = 3
			c, err := cluster.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			e, err := NewEngine(c)
			if err != nil {
				t.Fatal(err)
			}
			res, err := e.Collect(context.Background(), plan)
			if err != nil {
				t.Fatalf("wide operator under retries: %v", err)
			}
			if len(res.Rows) == 0 {
				t.Error("no rows produced")
			}
		})
	}
}

func TestExplainWideStrategies(t *testing.T) {
	small := refFromRows("dims", storage.MustSchema(
		storage.Field{Name: "k", Type: storage.TypeInt},
	), []storage.Row{{int64(1)}, {int64(2)}}, 1)

	e := testEngineWith(t)
	header := "PhysicalPlan(combine=on, broadcastJoin(≤10000), shufflePartitions=4, memoryBudget=unlimited)\n"
	bigSort := wideDataset(t, 2000, 8).Sort(SortOrder{Column: "v"})
	plan := e.Explain(bigSort)
	if !strings.HasPrefix(plan, header) {
		t.Errorf("Explain header must name exactly the strategy switches:\n%s", plan)
	}
	if !strings.Contains(plan, "[range-shuffle(parts=4)]") {
		t.Errorf("Explain must name the range sort strategy:\n%s", plan)
	}
	// A small bounded input takes the single-task fallback at runtime, and
	// Explain must predict that, not the configured strategy.
	if got := e.Explain(wideDataset(t, 100, 4).Sort(SortOrder{Column: "v"})); !strings.Contains(got, "[single-task]") {
		t.Errorf("small-input Explain must predict the single-task fallback:\n%s", got)
	}
	if got := testEngineWith(t, WithShufflePartitions(1)).Explain(bigSort); !strings.Contains(got, "[single-task]") {
		t.Errorf("one-partition Explain must name the single-task strategy:\n%s", got)
	}

	// The second sort tag names the sort core: in memory by default, an
	// external merge with its statically-bounded run count under a budget.
	if !strings.Contains(plan, "[columnar in-memory]") {
		t.Errorf("default Explain must name the columnar sort core:\n%s", plan)
	}
	if got := testEngineWith(t, WithMemoryBudget(1)).Explain(bigSort); !strings.Contains(got, "[external merge (runs≤1)]") {
		t.Errorf("budgeted Explain must bound the external merge's runs (2000 rows = 1 chunk):\n%s", got)
	}

	join := wideDataset(t, 100, 4).Join(small, "k", "k", InnerJoin)
	if got := e.Explain(join); !strings.Contains(got, "[broadcast(build≤2)]") {
		t.Errorf("Explain must predict the broadcast join with the build-side bound:\n%s", got)
	}
	if got := testEngineWith(t, withBroadcastThreshold(-1)).Explain(join); !strings.Contains(got, "[shuffle-hash]") {
		t.Errorf("broadcast-off Explain must name the shuffled strategy:\n%s", got)
	}
	if got := testEngineWith(t, withBroadcastThreshold(1)).Explain(join); !strings.Contains(got, "[shuffle-hash]") {
		t.Errorf("build side above threshold must render shuffle-hash:\n%s", got)
	}

	// A join below the build side makes its size unbounded: Explain must
	// fall back to the shuffled strategy.
	grown := small.Join(small, "k", "k", InnerJoin).Project("k")
	if got := e.Explain(wideDataset(t, 100, 4).Join(grown, "k", "k", InnerJoin)); !strings.Contains(got, "[shuffle-hash]") {
		t.Errorf("unbounded build side must render shuffle-hash:\n%s", got)
	}
}

// TestEstimateMaxRows pins the static bound the explainer uses to predict
// broadcast decisions.
func TestEstimateMaxRows(t *testing.T) {
	base := wideDataset(t, 100, 4)
	if n, ok := estimateMaxRows(base.node); !ok || n != 100 {
		t.Errorf("source bound = %d/%v, want 100", n, ok)
	}
	filtered := base.Filter("any", func(Record) (bool, error) { return true, nil })
	if n, ok := estimateMaxRows(filtered.node); !ok || n != 100 {
		t.Errorf("filter bound = %d/%v, want 100", n, ok)
	}
	if n, ok := estimateMaxRows(base.GroupBy("k").Agg(Count()).node); !ok || n != 100 {
		t.Errorf("group-by bound = %d/%v, want 100", n, ok)
	}
	grown := base.Join(base, "k", "k", InnerJoin)
	if _, ok := estimateMaxRows(grown.node); ok {
		t.Error("join must have no static bound")
	}
	if _, ok := estimateMaxRows(grown.Project("k").node); ok {
		t.Error("a narrow operator above a join must have no static bound")
	}
}
