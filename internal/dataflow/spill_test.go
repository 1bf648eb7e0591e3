package dataflow

// spill_test.go covers the spill-to-disk batch store as the dataflow engine
// uses it: wide operators forced under a tiny memory budget must spill their
// accumulated batches, restore them transparently, and produce bit-identical
// results to the unlimited in-memory runs — and the counters/Explain surface
// must report the spill state. It also holds the negative-zero key regression
// tests: -0.0 and 0.0 must land in one group or match set in every engine
// arm.

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/storage"
)

// spillEngine returns an engine on a 2×2 cluster that validates every batch
// every operator emits (checkOperatorBatch).
func spillEngine(t *testing.T, opts ...EngineOption) *Engine {
	t.Helper()
	c, err := cluster.New(cluster.Uniform(2, 2, 0))
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(c, opts...)
	if err != nil {
		t.Fatal(err)
	}
	e.checkBatch = checkOperatorBatch
	return e
}

func spillBenchSchema(t *testing.T) *storage.Schema {
	t.Helper()
	return storage.MustSchema(
		storage.Field{Name: "k", Type: storage.TypeInt},
		storage.Field{Name: "v", Type: storage.TypeFloat, Nullable: true},
		storage.Field{Name: "tag", Type: storage.TypeString},
	)
}

func spillBenchData(n, keys int) []storage.Row {
	rows := make([]storage.Row, n)
	for i := range rows {
		var v storage.Value = float64((i*7919)%1000) / 8
		if i%11 == 0 {
			v = nil
		}
		rows[i] = storage.Row{int64(i % keys), v, "t" + string(rune('a'+i%5))}
	}
	return rows
}

// assertSameResult compares two Collect results row by row.
func assertSameResult(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if !got.Schema.Equal(want.Schema) {
		t.Fatalf("%s: schema %s != %s", label, got.Schema, want.Schema)
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("%s: %d rows, want %d", label, len(got.Rows), len(want.Rows))
	}
	for i := range got.Rows {
		if !reflect.DeepEqual(got.Rows[i], want.Rows[i]) {
			t.Fatalf("%s: row %d = %#v, want %#v", label, i, got.Rows[i], want.Rows[i])
		}
	}
}

// TestSpillShuffledJoin forces every shuffle bucket of a non-broadcast join
// to disk and requires the joined output to match the in-memory run exactly.
func TestSpillShuffledJoin(t *testing.T) {
	ctx := context.Background()
	schema := spillBenchSchema(t)
	facts := spillBenchData(4000, 64)
	dimSchema := storage.MustSchema(
		storage.Field{Name: "k", Type: storage.TypeInt},
		storage.Field{Name: "label", Type: storage.TypeString},
	)
	dim := make([]storage.Row, 64)
	for i := range dim {
		dim[i] = storage.Row{int64(i), "label-" + string(rune('a'+i%7))}
	}
	plan := func() *Dataset {
		return refFromRows("facts", schema, facts, 4).
			Join(refFromRows("dims", dimSchema, dim, 2), "k", "k", InnerJoin)
	}

	mem := spillEngine(t, withBroadcastThreshold(-1))
	base, err := mem.Collect(ctx, plan())
	if err != nil {
		t.Fatal(err)
	}
	if base.Stats.SpilledBatches != 0 {
		t.Fatalf("unlimited engine spilled %d batches", base.Stats.SpilledBatches)
	}

	spill := spillEngine(t, withBroadcastThreshold(-1), WithMemoryBudget(1))
	got, err := spill.Collect(ctx, plan())
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.SpilledBatches == 0 || got.Stats.SpilledBytes == 0 {
		t.Fatalf("budgeted join did not spill: batches=%d bytes=%d",
			got.Stats.SpilledBatches, got.Stats.SpilledBytes)
	}
	if got.Stats.ShuffledRows != base.Stats.ShuffledRows {
		t.Errorf("spilled ShuffledRows = %d, want %d", got.Stats.ShuffledRows, base.Stats.ShuffledRows)
	}
	assertSameResult(t, "shuffled join under budget", got, base)
}

// TestSpillGroupByNonCombined drives the non-combined group-by (every row
// crosses the shuffle through the store) under a forced budget and compares
// it against the unlimited run, which must itself match the reference.
func TestSpillGroupByNonCombined(t *testing.T) {
	ctx := context.Background()
	schema := spillBenchSchema(t)
	data := spillBenchData(5000, 40)
	plan := func() *Dataset {
		return refFromRows("g", schema, data, 4).
			GroupBy("k").
			Agg(Count(), Sum("v"), Avg("v"), Avg("tag"))
	}

	base, err := spillEngine(t, WithMapSideCombine(false)).Collect(ctx, plan())
	if err != nil {
		t.Fatal(err)
	}
	want, err := reference(plan())
	if err != nil {
		t.Fatal(err)
	}
	want.check(t, "in-memory group-by", base)

	spill := spillEngine(t, WithMapSideCombine(false), WithMemoryBudget(1))
	got, err := spill.Collect(ctx, plan())
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.SpilledBatches == 0 {
		t.Fatal("budgeted group-by did not spill")
	}
	assertSameResult(t, "spilled group-by vs in-memory", got, base)
}

// TestSpillSortStaging checks that a budgeted sort stages its columnar input
// through the spill store and still produces the identical ordering.
func TestSpillSortStaging(t *testing.T) {
	ctx := context.Background()
	schema := spillBenchSchema(t)
	data := spillBenchData(3000, 1000)
	plan := func() *Dataset {
		return refFromRows("s", schema, data, 4).Sort(SortOrder{Column: "v"}, SortOrder{Column: "k", Descending: true})
	}
	base, err := spillEngine(t).Collect(ctx, plan())
	if err != nil {
		t.Fatal(err)
	}
	spill := spillEngine(t, WithMemoryBudget(1))
	got, err := spill.Collect(ctx, plan())
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.SpilledBatches == 0 {
		t.Fatal("budgeted sort did not stage/spill its input batches")
	}
	assertSameResult(t, "sort under budget", got, base)
}

// TestExternalSortRunsAndMerge drives the spill-aware external merge sort:
// a budgeted multi-key sort must form sorted runs, spill them through the
// codec, merge them back bit-identically to the unlimited columnar sort, and
// keep its measured peak resident footprint within the runs × chunk bound.
func TestExternalSortRunsAndMerge(t *testing.T) {
	ctx := context.Background()
	schema := spillBenchSchema(t)
	data := spillBenchData(20_000, 137)
	plan := func() *Dataset {
		return refFromRows("s", schema, data, 4).
			Sort(SortOrder{Column: "v"}, SortOrder{Column: "k", Descending: true}, SortOrder{Column: "tag"})
	}
	base, err := spillEngine(t).Collect(ctx, plan())
	if err != nil {
		t.Fatal(err)
	}
	if base.Stats.SortRuns != 0 {
		t.Errorf("unlimited columnar sort must not form runs, got %d", base.Stats.SortRuns)
	}
	external := spillEngine(t, WithMemoryBudget(1))
	got, err := external.Collect(ctx, plan())
	if err != nil {
		t.Fatal(err)
	}
	st := got.Stats
	if st.SortRuns == 0 || st.SortMergedBatches == 0 {
		t.Fatalf("budgeted sort must merge spilled runs, got runs=%d merged=%d", st.SortRuns, st.SortMergedBatches)
	}
	if st.SpilledBatches == 0 || st.SpilledBytes == 0 {
		t.Fatalf("budgeted sort must spill through the codec, got batches=%d bytes=%d", st.SpilledBatches, st.SpilledBytes)
	}
	// The memory bound: no partition's run store may hold more than its run
	// count × the largest chunk footprint. A whole 5000-row partition resident
	// at once would blow well past it.
	chunk, err := storage.BatchFromRows(schema, data[:SortChunkRows])
	if err != nil {
		t.Fatal(err)
	}
	chunkMem := storage.BatchMemSize(chunk)
	if st.SortPeakResidentBytes == 0 {
		t.Fatal("external sort must record its peak resident bytes")
	}
	if st.SortPeakResidentBytes > st.SortRuns*chunkMem {
		t.Errorf("sort peak resident %d exceeds runs(%d) × chunk(%d)",
			st.SortPeakResidentBytes, st.SortRuns, chunkMem)
	}
	assertSameResult(t, "external sort", got, base)
}

// TestSortSampleBudget pins the evalSortRange fix: with truncating stride
// division a 1000-row input sorted across 10 partitions collected 334 samples
// against a 320-row target; the ceiling stride must keep the sample within
// target + partitions.
func TestSortSampleBudget(t *testing.T) {
	ctx := context.Background()
	schema := spillBenchSchema(t)
	data := spillBenchData(1000, 997)
	const partitions = 10
	e := spillEngine(t, WithShufflePartitions(partitions))
	d := refFromRows("sample", schema, data, 4).Sort(SortOrder{Column: "k"})
	res, err := e.CollectBatches(ctx, d)
	if err != nil {
		t.Fatal(err)
	}
	stats := res.Stats
	target := int64(partitions * sortSamplesPerPartition)
	if stats.SortSampledRows == 0 {
		t.Fatal("range sort did not sample")
	}
	if stats.SortSampledRows > target+partitions {
		t.Errorf("SortSampledRows = %d, want <= target %d + partitions %d",
			stats.SortSampledRows, target, partitions)
	}
}

// TestExplainSpillState checks the physical-plan header and spill line name
// the budget and spill state.
func TestExplainSpillState(t *testing.T) {
	schema := spillBenchSchema(t)
	d := refFromRows("x", schema, spillBenchData(10, 5), 2).GroupBy("k").Agg(Count())

	mem := spillEngine(t)
	plan := mem.Explain(d)
	if !strings.Contains(plan, "memoryBudget=unlimited") || !strings.Contains(plan, "spill: disabled") {
		t.Errorf("unlimited explain must name the budget and spill state:\n%s", plan)
	}
	spill := spillEngine(t, WithMemoryBudget(65536))
	plan = spill.Explain(d)
	if !strings.Contains(plan, "memoryBudget=65536B") || !strings.Contains(plan, "spill: enabled (budget 65536 bytes") {
		t.Errorf("budgeted explain must name the budget and spill state:\n%s", plan)
	}
}

// TestNegativeZeroGroupBy pins the key-equality fix: -0.0 and 0.0 compare
// equal (CompareValues, Go ==) so group-by must place them in one group in
// every engine arm.
func TestNegativeZeroGroupBy(t *testing.T) {
	ctx := context.Background()
	negZero := math.Copysign(0, -1)
	schema := storage.MustSchema(
		storage.Field{Name: "f", Type: storage.TypeFloat},
		storage.Field{Name: "n", Type: storage.TypeInt},
	)
	rows := []storage.Row{
		{negZero, int64(1)}, {0.0, int64(2)}, {1.5, int64(3)}, {0.0, int64(4)}, {negZero, int64(5)},
	}
	for _, arm := range engineArms(t) {
		mode := arm.name
		res, err := arm.e.Collect(ctx, refFromRows("nz", schema, rows, 2).GroupBy("f").Agg(Count()))
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if len(res.Rows) != 2 {
			t.Fatalf("%s: group-by produced %d groups, want 2 (zero and 1.5): %v", mode, len(res.Rows), res.Rows)
		}
		for _, r := range res.Rows {
			if f := r[0].(float64); f == 0 && r[1].(int64) != 4 {
				t.Errorf("%s: zero group counted %v rows, want 4", mode, r[1])
			}
		}
	}
}

// TestNegativeZeroJoin requires a -0.0 probe key to match a +0.0 build key in
// both join strategies (broadcast and shuffled) in every engine arm.
func TestNegativeZeroJoin(t *testing.T) {
	ctx := context.Background()
	negZero := math.Copysign(0, -1)
	leftSchema := storage.MustSchema(
		storage.Field{Name: "f", Type: storage.TypeFloat},
		storage.Field{Name: "id", Type: storage.TypeInt},
	)
	rightSchema := storage.MustSchema(
		storage.Field{Name: "f", Type: storage.TypeFloat},
		storage.Field{Name: "label", Type: storage.TypeString},
	)
	left := []storage.Row{{negZero, int64(1)}, {3.5, int64(2)}}
	right := []storage.Row{{0.0, "zero"}, {3.5, "other"}}
	for _, strategy := range []struct {
		name string
		opts []EngineOption
	}{
		{"broadcast", nil},
		{"shuffled", []EngineOption{withBroadcastThreshold(-1)}},
	} {
		for _, arm := range engineArms(t, strategy.opts...) {
			mode := arm.name
			plan := refFromRows("l", leftSchema, left, 2).
				Join(refFromRows("r", rightSchema, right, 2), "f", "f", InnerJoin)
			res, err := arm.e.Collect(ctx, plan)
			if err != nil {
				t.Fatalf("%s/%s: %v", strategy.name, mode, err)
			}
			if len(res.Rows) != 2 {
				t.Fatalf("%s/%s: join produced %d rows, want 2 (both keys must match): %v",
					strategy.name, mode, len(res.Rows), res.Rows)
			}
			for _, r := range res.Rows {
				if r[1].(int64) == 1 && r[3].(string) != "zero" {
					t.Errorf("%s/%s: -0.0 row joined %v, want \"zero\"", strategy.name, mode, r[3])
				}
			}
		}
	}
}
