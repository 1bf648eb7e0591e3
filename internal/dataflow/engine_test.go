package dataflow

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/storage"
)

func testEngine(t *testing.T) *Engine {
	t.Helper()
	return testEngineWith(t)
}

func testEngineWith(t *testing.T, opts ...EngineOption) *Engine {
	t.Helper()
	c, err := cluster.New(cluster.Uniform(2, 2, 0))
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(c, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func collect(t *testing.T, e *Engine, d *Dataset) *Result {
	t.Helper()
	res, err := e.Collect(context.Background(), d)
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	return res
}

func TestNewEngineValidation(t *testing.T) {
	if _, err := NewEngine(nil); err == nil {
		t.Error("nil cluster must be rejected")
	}
	c, _ := cluster.New(cluster.Uniform(1, 1, 0))
	e, err := NewEngine(c, WithShufflePartitions(5))
	if err != nil {
		t.Fatal(err)
	}
	if e.shufflePartitions != 5 {
		t.Errorf("shuffle partitions = %d, want 5", e.shufflePartitions)
	}
}

func TestCollectSource(t *testing.T) {
	e := testEngine(t)
	res := collect(t, e, salesDataset(t))
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(res.Rows))
	}
	if res.Stats.RowsRead != 6 || res.Stats.RowsOutput != 6 {
		t.Errorf("stats = %+v", res.Stats)
	}
	if res.Stats.ShuffledRows != 0 || res.Stats.Stages != 0 {
		t.Errorf("narrow-only plan must not shuffle: %+v", res.Stats)
	}
	if len(res.Records()) != 6 {
		t.Error("Records length mismatch")
	}
}

func TestCollectInvalidPlan(t *testing.T) {
	e := testEngine(t)
	if _, err := e.Collect(context.Background(), nil); !errors.Is(err, ErrNoSource) {
		t.Errorf("nil dataset err = %v", err)
	}
	if _, err := e.Collect(context.Background(), FromTable(nil)); err == nil {
		t.Error("invalid plan must fail at Collect")
	}
}

func TestFilterAndCount(t *testing.T) {
	e := testEngine(t)
	d := salesDataset(t).Filter("amount >= 30", func(r Record) (bool, error) {
		return r.Float("amount") >= 30, nil
	})
	n, err := e.Count(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Errorf("count = %d, want 4", n)
	}
}

func TestFilterUDFError(t *testing.T) {
	e := testEngine(t)
	d := salesDataset(t).Filter("boom", func(r Record) (bool, error) {
		return false, errors.New("boom")
	})
	_, err := e.Collect(context.Background(), d)
	if err == nil {
		t.Fatal("UDF error must fail the job")
	}
}

func TestMapAndProject(t *testing.T) {
	e := testEngine(t)
	p := collect(t, e, salesDataset(t).Project("region", "amount"))
	if p.Schema.Len() != 2 || p.Schema.Names()[0] != "region" {
		t.Errorf("projected schema = %v", p.Schema.Names())
	}
	if len(p.Rows) != 6 {
		t.Errorf("projected rows = %d, want 6", len(p.Rows))
	}
}

func TestMapOutputValidation(t *testing.T) {
	e := testEngine(t)
	d := salesDataset(t).WithColumn(storage.Field{Name: "x", Type: storage.TypeInt},
		func(r Record) (storage.Value, error) { return "not an int", nil })
	if _, err := e.Collect(context.Background(), d); err == nil {
		t.Error("values violating the declared column type must fail")
	}
}

func TestWithColumn(t *testing.T) {
	e := testEngine(t)
	d := salesDataset(t).WithColumn(
		storage.Field{Name: "vat", Type: storage.TypeFloat},
		func(r Record) (storage.Value, error) { return r.Float("amount") * 0.22, nil },
	)
	res := collect(t, e, d)
	if !res.Schema.Has("vat") {
		t.Fatal("vat column missing")
	}
	for _, rec := range res.Records() {
		if math.Abs(rec.Float("vat")-rec.Float("amount")*0.22) > 1e-9 {
			t.Errorf("vat mismatch for id %d", rec.Int("id"))
		}
	}
}

func TestSort(t *testing.T) {
	e := testEngine(t)
	res := collect(t, e, salesDataset(t).Sort(SortOrder{Column: "amount", Descending: true}))
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for i := 1; i < len(res.Rows); i++ {
		prev, _ := storage.AsFloat(res.Rows[i-1][2])
		cur, _ := storage.AsFloat(res.Rows[i][2])
		if prev < cur {
			t.Errorf("rows not sorted descending at %d: %v < %v", i, prev, cur)
		}
	}
	asc := collect(t, e, salesDataset(t).Sort(SortOrder{Column: "region"}, SortOrder{Column: "amount"}))
	// Ties on region must then be ordered by amount ascending.
	var lastRegion string
	var lastAmount float64
	for i, r := range asc.Rows {
		region := r[1].(string)
		amount := r[2].(float64)
		if i > 0 {
			if region < lastRegion {
				t.Errorf("region order violated at %d", i)
			}
			if region == lastRegion && amount < lastAmount {
				t.Errorf("amount tiebreak violated at %d", i)
			}
		}
		lastRegion, lastAmount = region, amount
	}
}

func TestGroupByAggregations(t *testing.T) {
	e := testEngine(t)
	d := salesDataset(t).GroupBy("region").Agg(
		Count(),
		Sum("amount"),
		Avg("amount").Named("mean_amount"),
		Sum("id"),
	)
	res := collect(t, e, d)
	if len(res.Rows) != 3 {
		t.Fatalf("groups = %d, want 3", len(res.Rows))
	}
	byRegion := map[string]Record{}
	for _, rec := range res.Records() {
		byRegion[rec.String("region")] = rec
	}
	north := byRegion["north"]
	if north.Int("count") != 3 {
		t.Errorf("north count = %d, want 3", north.Int("count"))
	}
	if math.Abs(north.Float("sum_amount")-100) > 1e-9 {
		t.Errorf("north sum = %v, want 100", north.Float("sum_amount"))
	}
	if math.Abs(north.Float("mean_amount")-100.0/3) > 1e-9 {
		t.Errorf("north mean = %v", north.Float("mean_amount"))
	}
	// An int column sums as float: north ids 1, 3, 6.
	if north.Float("sum_id") != 10 {
		t.Errorf("north sum of ids = %v, want 10", north.Float("sum_id"))
	}
	south := byRegion["south"]
	if south.Int("count") != 2 || math.Abs(south.Float("sum_amount")-70) > 1e-9 {
		t.Errorf("south aggregation wrong: count %d, sum %v", south.Int("count"), south.Float("sum_amount"))
	}
}

func TestGroupByMultipleKeys(t *testing.T) {
	e := testEngine(t)
	d := salesDataset(t).
		Filter("non-null priority", func(r Record) (bool, error) { return !r.IsNull("priority"), nil }).
		GroupBy("region", "priority").Agg(Count())
	res := collect(t, e, d)
	// north/true(2 rows: ids 1,6), south/false(2), east/true(1)
	if len(res.Rows) != 3 {
		t.Fatalf("groups = %d, want 3: %v", len(res.Rows), res.Rows)
	}
}

func TestAggregatesIgnoreNulls(t *testing.T) {
	e := testEngine(t)
	d := salesDataset(t).GroupBy("region").Agg(Sum("priority"), Avg("priority"))
	res := collect(t, e, d)
	for _, rec := range res.Records() {
		if rec.String("region") == "north" {
			// north rows have priority true, nil, true → two non-null cells,
			// both 1, so the null counts neither in the sum nor in the mean.
			if rec.Float("sum_priority") != 2 || rec.Float("avg_priority") != 1 {
				t.Errorf("north priority sum/avg = %v/%v, want 2/1",
					rec.Float("sum_priority"), rec.Float("avg_priority"))
			}
		}
	}
}

func TestInnerJoin(t *testing.T) {
	e := testEngine(t)
	managers := FromRows("managers", storage.MustSchema(
		storage.Field{Name: "region", Type: storage.TypeString},
		storage.Field{Name: "manager", Type: storage.TypeString},
	), []storage.Row{
		{"north", "anna"},
		{"south", "bruno"},
	}, 2)
	j := salesDataset(t).Join(managers, "region", "region", InnerJoin)
	res := collect(t, e, j)
	// north has 3 sales rows, south has 2; east is dropped.
	if len(res.Rows) != 5 {
		t.Fatalf("inner join rows = %d, want 5", len(res.Rows))
	}
	for _, rec := range res.Records() {
		if rec.String("region") == "north" && rec.String("manager") != "anna" {
			t.Errorf("north row joined to %q", rec.String("manager"))
		}
	}
	// The two-row build side is far under the threshold: the join must
	// broadcast it and skip the shuffle entirely.
	if res.Stats.BroadcastJoins != 1 {
		t.Errorf("broadcast joins = %d, want 1", res.Stats.BroadcastJoins)
	}
	if res.Stats.ShuffledRows != 0 || res.Stats.Stages != 0 {
		t.Errorf("broadcast join must move no rows, shuffled = %d stages = %d",
			res.Stats.ShuffledRows, res.Stats.Stages)
	}

	// With broadcasting disabled the fallback shuffles both sides and must
	// produce the same rows.
	eOff := testEngineWith(t, withBroadcastThreshold(-1))
	resOff := collect(t, eOff, j)
	if len(resOff.Rows) != 5 {
		t.Fatalf("shuffled inner join rows = %d, want 5", len(resOff.Rows))
	}
	if resOff.Stats.Stages < 2 || resOff.Stats.ShuffledRows == 0 {
		t.Errorf("shuffled join must shuffle both sides, stages = %d shuffled = %d",
			resOff.Stats.Stages, resOff.Stats.ShuffledRows)
	}
	if resOff.Stats.BroadcastJoins != 0 {
		t.Errorf("disabled broadcast still reported %d broadcast joins", resOff.Stats.BroadcastJoins)
	}
}

func TestLeftJoin(t *testing.T) {
	e := testEngine(t)
	managers := FromRows("managers", storage.MustSchema(
		storage.Field{Name: "region", Type: storage.TypeString},
		storage.Field{Name: "manager", Type: storage.TypeString},
	), []storage.Row{{"north", "anna"}}, 1)
	j := salesDataset(t).Join(managers, "region", "region", LeftJoin)
	res := collect(t, e, j)
	if len(res.Rows) != 6 {
		t.Fatalf("left join rows = %d, want 6", len(res.Rows))
	}
	nullManagers := 0
	for _, rec := range res.Records() {
		if rec.IsNull("manager") {
			nullManagers++
		}
	}
	if nullManagers != 3 { // south x2 + east x1
		t.Errorf("null-extended rows = %d, want 3", nullManagers)
	}
}

func TestJoinDuplicateKeysProduceCrossProduct(t *testing.T) {
	e := testEngine(t)
	left := FromRows("l", storage.MustSchema(
		storage.Field{Name: "k", Type: storage.TypeString},
		storage.Field{Name: "lv", Type: storage.TypeInt},
	), []storage.Row{{"a", int64(1)}, {"a", int64(2)}}, 2)
	right := FromRows("r", storage.MustSchema(
		storage.Field{Name: "k", Type: storage.TypeString},
		storage.Field{Name: "rv", Type: storage.TypeInt},
	), []storage.Row{{"a", int64(10)}, {"a", int64(20)}, {"a", int64(30)}}, 2)
	res := collect(t, e, left.Join(right, "k", "k", InnerJoin))
	if len(res.Rows) != 6 {
		t.Errorf("duplicate-key join rows = %d, want 2*3=6", len(res.Rows))
	}
}

// TestJoinKeySemantics pins the join's key equality on both join arms
// (broadcast, and shuffled under a one-byte budget) for both kinds: null
// equals null, -0 equals +0, an int key equals a time key of the same value,
// a NaN matches only a NaN with the same bits, and an int never equals a
// float. The engine's matches, and refJoin's, are held to an explicit list.
func TestJoinKeySemantics(t *testing.T) {
	negZero := math.Copysign(0, -1)
	nanA := math.Float64frombits(0x7ff8000000000001)
	nanB := math.Float64frombits(0x7ff8000000000002)
	cases := []struct {
		name        string
		lt, rt      storage.FieldType
		left, right []storage.Value
		pairs       [][2]int // (left row, right row) of every match
	}{
		{"null equals null", storage.TypeString, storage.TypeString,
			[]storage.Value{nil, "", "a"}, []storage.Value{"a", nil, "", nil},
			[][2]int{{0, 1}, {0, 3}, {1, 2}, {2, 0}}},
		{"-0 equals +0", storage.TypeFloat, storage.TypeFloat,
			[]storage.Value{negZero, 0.0, 1.5}, []storage.Value{0.0, negZero, 2.0},
			[][2]int{{0, 0}, {0, 1}, {1, 0}, {1, 1}}},
		{"int equals time", storage.TypeInt, storage.TypeTime,
			[]storage.Value{int64(1), int64(2), nil}, []storage.Value{int64(1), int64(1), int64(3), nil},
			[][2]int{{0, 0}, {0, 1}, {2, 3}}},
		{"NaN matches same bits only", storage.TypeFloat, storage.TypeFloat,
			[]storage.Value{nanA, nanB, 1.0}, []storage.Value{nanA, nanB, nanA, 1.0},
			[][2]int{{0, 0}, {0, 2}, {1, 1}, {2, 3}}},
		{"int never equals float", storage.TypeInt, storage.TypeFloat,
			[]storage.Value{int64(1), int64(0)}, []storage.Value{1.0, 0.0, negZero},
			nil},
	}
	arms := []struct {
		name      string
		opts      []EngineOption
		broadcast int64
	}{
		{"broadcast", nil, 1},
		{"shuffled", []EngineOption{withBroadcastThreshold(-1), WithMemoryBudget(1)}, 0},
	}
	// matches renders a join output as sorted "left id → right label" lines.
	matches := func(rows []storage.Row) []string {
		out := make([]string, len(rows))
		for i, r := range rows {
			out[i] = fmt.Sprintf("%v → %v", r[1], r[3])
		}
		sort.Strings(out)
		return out
	}
	for _, c := range cases {
		ls := storage.MustSchema(
			storage.Field{Name: "k", Type: c.lt, Nullable: true},
			storage.Field{Name: "id", Type: storage.TypeInt},
		)
		rs := storage.MustSchema(
			storage.Field{Name: "k", Type: c.rt, Nullable: true},
			storage.Field{Name: "label", Type: storage.TypeString},
		)
		var lrows, rrows []storage.Row
		for i, v := range c.left {
			lrows = append(lrows, storage.Row{v, int64(i)})
		}
		for j, v := range c.right {
			rrows = append(rrows, storage.Row{v, fmt.Sprintf("r%d", j)})
		}
		for _, kind := range []JoinType{InnerJoin, LeftJoin} {
			var want []storage.Row
			for i := range c.left {
				matched := false
				for _, p := range c.pairs {
					if p[0] == i {
						want = append(want, storage.Row{nil, int64(i), nil, fmt.Sprintf("r%d", p[1])})
						matched = true
					}
				}
				if !matched && kind == LeftJoin {
					want = append(want, storage.Row{nil, int64(i), nil, nil})
				}
			}
			plan := refFromRows("l", ls, lrows, 2).Join(refFromRows("r", rs, rrows, 2), "k", "k", kind)
			label := fmt.Sprintf("%s/%v", c.name, kind)
			ref, err := reference(plan)
			if err != nil {
				t.Fatalf("%s: reference: %v", label, err)
			}
			if got, w := matches(ref.rows), matches(want); !slices.Equal(got, w) {
				t.Fatalf("%s: refJoin matches %v, want %v", label, got, w)
			}
			for _, arm := range arms {
				res := collect(t, testEngineWith(t, arm.opts...), plan)
				if got, w := matches(res.Rows), matches(want); !slices.Equal(got, w) {
					t.Errorf("%s/%s: matches %v, want %v", label, arm.name, got, w)
				}
				if res.Stats.BroadcastJoins != arm.broadcast {
					t.Errorf("%s/%s: BroadcastJoins = %d, want %d", label, arm.name, res.Stats.BroadcastJoins, arm.broadcast)
				}
			}
		}
	}
}

func TestEngineMetricsAccumulate(t *testing.T) {
	e := testEngine(t)
	_ = collect(t, e, salesDataset(t).GroupBy("region").Agg(Count()))
	snap := e.Metrics().Snapshot()
	if snap.CounterValue("actions") != 1 {
		t.Errorf("actions = %d", snap.CounterValue("actions"))
	}
	if snap.CounterValue("rows.read") != 6 {
		t.Errorf("rows.read = %d", snap.CounterValue("rows.read"))
	}
	if snap.CounterValue("tasks") == 0 || snap.CounterValue("rows.shuffled") == 0 {
		t.Error("tasks and shuffled rows must be recorded")
	}
}

func TestCancelledContext(t *testing.T) {
	e := testEngine(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Collect(ctx, salesDataset(t)); err == nil {
		t.Error("cancelled context must fail")
	}
}

func TestEndToEndPipelineWithRetries(t *testing.T) {
	// A cluster with injected failures must still produce exact results.
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
	d := salesDataset(t).
		Filter("amount > 5", func(r Record) (bool, error) { return r.Float("amount") > 5, nil }).
		GroupBy("region").Agg(Sum("amount"))
	res, err := e.Collect(context.Background(), d)
	if err != nil {
		t.Fatalf("Collect with failure injection: %v", err)
	}
	total := 0.0
	for _, rec := range res.Records() {
		total += rec.Float("sum_amount")
	}
	if math.Abs(total-210) > 1e-9 {
		t.Errorf("total = %v, want 210", total)
	}
}

// Property: for random integer datasets, GroupBy(key).Agg(Sum) equals a
// sequential reference aggregation.
func TestGroupBySumMatchesReference(t *testing.T) {
	e := testEngine(t)
	schema := storage.MustSchema(
		storage.Field{Name: "k", Type: storage.TypeInt},
		storage.Field{Name: "v", Type: storage.TypeInt},
	)
	f := func(pairs []struct{ K, V int8 }) bool {
		rows := make([]storage.Row, len(pairs))
		ref := map[int64]float64{}
		for i, p := range pairs {
			k, v := int64(p.K%4), int64(p.V)
			rows[i] = storage.Row{k, v}
			ref[k] += float64(v)
		}
		d := FromRows("nums", schema, rows, 3).GroupBy("k").Agg(Sum("v"))
		res, err := e.Collect(context.Background(), d)
		if err != nil {
			return false
		}
		if len(res.Rows) != len(ref) {
			return false
		}
		for _, rec := range res.Records() {
			if math.Abs(ref[rec.Int("k")]-rec.Float("sum_v")) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: Filter then Count equals counting matching rows sequentially.
func TestFilterCountMatchesReference(t *testing.T) {
	e := testEngine(t)
	schema := storage.MustSchema(storage.Field{Name: "v", Type: storage.TypeInt})
	f := func(values []int16, threshold int16) bool {
		rows := make([]storage.Row, len(values))
		want := int64(0)
		for i, v := range values {
			rows[i] = storage.Row{int64(v)}
			if int64(v) > int64(threshold) {
				want++
			}
		}
		d := FromRows("vals", schema, rows, 4).Filter("gt", func(r Record) (bool, error) {
			return r.Int("v") > int64(threshold), nil
		})
		got, err := e.Count(context.Background(), d)
		return err == nil && got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: Sort produces a permutation of its input in non-decreasing order.
func TestSortProperty(t *testing.T) {
	e := testEngine(t)
	schema := storage.MustSchema(storage.Field{Name: "v", Type: storage.TypeInt})
	f := func(values []int16) bool {
		rows := make([]storage.Row, len(values))
		for i, v := range values {
			rows[i] = storage.Row{int64(v)}
		}
		res, err := e.Collect(context.Background(), FromRows("vals", schema, rows, 3).Sort(SortOrder{Column: "v"}))
		if err != nil || len(res.Rows) != len(values) {
			return false
		}
		got := make([]int, len(res.Rows))
		for i, r := range res.Rows {
			got[i] = int(r[0].(int64))
		}
		if !sort.IntsAreSorted(got) {
			return false
		}
		// Permutation check via multiset equality.
		want := make([]int, len(values))
		for i, v := range values {
			want[i] = int(v)
		}
		sort.Ints(want)
		for i := range want {
			if want[i] != got[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestManyPartitionsMoreThanRows(t *testing.T) {
	e := testEngine(t)
	schema := storage.MustSchema(storage.Field{Name: "v", Type: storage.TypeInt})
	d := FromRows("tiny", schema, []storage.Row{{int64(1)}}, 16)
	res := collect(t, e, d.GroupBy("v").Agg(Count()))
	if len(res.Rows) != 1 {
		t.Errorf("rows = %d, want 1", len(res.Rows))
	}
}

func TestEmptyDatasetOperations(t *testing.T) {
	e := testEngine(t)
	schema := storage.MustSchema(storage.Field{Name: "v", Type: storage.TypeInt})
	empty := FromRows("empty", schema, nil, 2)
	cases := []*Dataset{
		empty.Filter("x", func(Record) (bool, error) { return true, nil }),
		empty.GroupBy("v").Agg(Count()),
		empty.FilterNonNull("v set", []string{"v"}),
		empty.Sort(SortOrder{Column: "v"}),
		empty.Project("v"),
		empty.Join(empty, "v", "v", InnerJoin),
	}
	for i, d := range cases {
		res, err := e.Collect(context.Background(), d)
		if err != nil {
			t.Errorf("case %d: %v", i, err)
			continue
		}
		if len(res.Rows) != 0 {
			t.Errorf("case %d: rows = %d, want 0", i, len(res.Rows))
		}
	}
}
