package dataflow

import (
	"context"
	"slices"
	"strings"
	"testing"

	"repro/internal/storage"
)

// vectorChainPlan builds a kernel-heavy narrow chain: filter → project →
// with_column → filter over n rows.
func vectorChainPlan(t *testing.T, n, parts int) *Dataset {
	t.Helper()
	schema := storage.MustSchema(
		storage.Field{Name: "k", Type: storage.TypeInt},
		storage.Field{Name: "v", Type: storage.TypeFloat},
		storage.Field{Name: "tag", Type: storage.TypeString, Nullable: true},
	)
	rows := make([]storage.Row, n)
	for i := range rows {
		var tag storage.Value
		if i%3 != 0 {
			tag = "t"
		}
		rows[i] = storage.Row{int64(i % 50), float64(i%100) / 2, tag}
	}
	return refFromRows("vec", schema, rows, parts).
		Filter("v >= 5", func(r Record) (bool, error) { return r.Float("v") >= 5, nil }).
		Project("k", "v").
		WithColumn(storage.Field{Name: "bucket", Type: storage.TypeInt},
			func(r Record) (storage.Value, error) { return r.Int("v") / 10, nil }).
		Filter("bucket < 4", func(r Record) (bool, error) { return r.Int("bucket") < 4, nil })
}

func TestVectorizedStatsAndMetrics(t *testing.T) {
	vec := testEngine(t)
	d := vectorChainPlan(t, 1000, 4).GroupBy("k", "bucket").Agg(Count())

	vres := collect(t, vec, d)
	if vres.Stats.Batches == 0 || vres.Stats.BatchRows == 0 {
		t.Errorf("run reported Batches=%d BatchRows=%d", vres.Stats.Batches, vres.Stats.BatchRows)
	}
	snap := vec.Metrics().Snapshot()
	if got := snap.CounterValue("batches"); got != vres.Stats.Batches {
		t.Errorf("batches counter = %d, want %d", got, vres.Stats.Batches)
	}
	if got := snap.CounterValue("batches.rows"); got != vres.Stats.BatchRows {
		t.Errorf("batches.rows counter = %d, want %d", got, vres.Stats.BatchRows)
	}
	want, err := reference(d)
	if err != nil {
		t.Fatal(err)
	}
	want.check(t, "group-by over kernel chain", vres)
}

// TestExplainNamesExecutionMode pins how Explain describes narrow-operator
// execution: fused chains render as one FusedStage line, unfused engines
// render one line per operator, and the header names the fusion switch.
func TestExplainNamesExecutionMode(t *testing.T) {
	d := vectorChainPlan(t, 100, 2)
	plan := testEngine(t).Explain(d)
	for _, want := range []string{"fusion=on", "FusedStage(ops=4: Filter(v >= 5) → Project([k v]) → WithColumn(bucket) → Filter(bucket < 4))"} {
		if !strings.Contains(plan, want) {
			t.Errorf("fused Explain missing %q:\n%s", want, plan)
		}
	}
	unfused := testEngineWith(t, withFusion(false)).Explain(d)
	if !strings.Contains(unfused, "fusion=off") || strings.Contains(unfused, "FusedStage") {
		t.Errorf("unfused Explain must name the switch and render no fused stage:\n%s", unfused)
	}
	for _, want := range []string{"Filter(v >= 5)", "Project([k v])", "WithColumn(bucket)", "Filter(bucket < 4)"} {
		if !strings.Contains(unfused, want) {
			t.Errorf("unfused Explain missing operator %q:\n%s", want, unfused)
		}
	}
}

// TestValidationGating checks that WithColumn output is validated against
// the declared field on every row in every arm: storing a cell into a typed
// column vector is the check, so a mistyped value late in a partition fails
// the action just like a mistyped first value.
func TestValidationGating(t *testing.T) {
	schema := storage.MustSchema(storage.Field{Name: "x", Type: storage.TypeInt})
	rows := make([]storage.Row, 10)
	for i := range rows {
		rows[i] = storage.Row{int64(i)}
	}
	y := storage.Field{Name: "y", Type: storage.TypeInt}
	bad := refFromRows("vals", schema, rows, 1).
		WithColumn(y, func(r Record) (storage.Value, error) {
			if r.Int("x") == 7 {
				return "not an int", nil
			}
			return r.Int("x"), nil
		})
	badFirst := refFromRows("vals", schema, rows, 1).
		WithColumn(y, func(r Record) (storage.Value, error) { return "nope", nil })
	ctx := context.Background()
	for _, arm := range engineArms(t) {
		for name, plan := range map[string]*Dataset{"late": bad, "first": badFirst} {
			_, err := arm.e.Collect(ctx, plan)
			if err == nil {
				t.Errorf("%s: mistyped %s row must fail the action", arm.name, name)
				continue
			}
			if !strings.Contains(err.Error(), "with_column output") || !strings.Contains(err.Error(), "expects int, got string") {
				t.Errorf("%s: %s-row error = %v, want with_column output context and the type mismatch", arm.name, name, err)
			}
		}
	}
}

// TestVectorizedJoinMatchesRowJoin drives both join strategies through every
// arm and compares against the reference's nested-loop join, including
// left-join null extension.
func TestVectorizedJoinMatchesRowJoin(t *testing.T) {
	facts := storage.MustSchema(
		storage.Field{Name: "k", Type: storage.TypeInt},
		storage.Field{Name: "v", Type: storage.TypeFloat},
	)
	dims := storage.MustSchema(
		storage.Field{Name: "k", Type: storage.TypeInt},
		storage.Field{Name: "name", Type: storage.TypeString},
	)
	factRows := make([]storage.Row, 200)
	for i := range factRows {
		factRows[i] = storage.Row{int64(i % 20), float64(i)}
	}
	dimRows := make([]storage.Row, 8)
	for i := range dimRows {
		dimRows[i] = storage.Row{int64(i), "dim"}
	}
	for _, kind := range []JoinType{InnerJoin, LeftJoin} {
		plan := refFromRows("facts", facts, factRows, 4).
			Join(refFromRows("dims", dims, dimRows, 2), "k", "k", kind)
		results := checkArms(t, plan)
		if results["default"].Stats.BroadcastJoins != 1 || results["shuffle-join"].Stats.BroadcastJoins != 0 {
			t.Errorf("kind=%v: broadcast joins = %d (default) / %d (shuffle-join), want 1 / 0", kind,
				results["default"].Stats.BroadcastJoins, results["shuffle-join"].Stats.BroadcastJoins)
		}
	}
}

// TestCountSkipsMaterialization checks Count agrees with Collect without
// requiring row materialisation.
func TestCountSkipsMaterialization(t *testing.T) {
	e := testEngine(t)
	d := vectorChainPlan(t, 500, 4)
	res := collect(t, e, d)
	n, err := e.Count(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(res.Rows)) {
		t.Errorf("Count = %d, Collect rows = %d", n, len(res.Rows))
	}
	if res.Stats.Batches == 0 {
		t.Error("the plan must report batch stats")
	}
}

// TestKeepNonNullSelection pins the typed null filter's kernel: columns
// without a null bitmap leave the selection as it came in (the same slice,
// or no selection at all), and a selection an earlier filter narrowed is
// narrowed again by the bitmaps of the bound columns.
func TestKeepNonNullSelection(t *testing.T) {
	schema := storage.MustSchema(
		storage.Field{Name: "k", Type: storage.TypeInt},
		storage.Field{Name: "tag", Type: storage.TypeString, Nullable: true},
		storage.Field{Name: "v", Type: storage.TypeFloat, Nullable: true},
		storage.Field{Name: "w", Type: storage.TypeBool, Nullable: true},
	)
	rows := make([]storage.Row, 70)
	for i := range rows {
		rows[i] = storage.Row{int64(i), "t", float64(i), i%2 == 0}
		if i%5 == 3 {
			rows[i][2] = nil
		}
		if i == 66 {
			rows[i][3] = nil
		}
	}
	b, err := storage.BatchFromRows(schema, rows)
	if err != nil {
		t.Fatal(err)
	}
	if b.Column(1).HasNulls() || !b.Column(2).HasNulls() {
		t.Fatal("fixture: tag must carry no bitmap and v one")
	}
	if got := keepNonNull(b, nil, []int{0, 1}); got != nil {
		t.Errorf("no bitmap, no selection: got %v, want nil", got)
	}
	earlier := []int32{1, 2, 3, 8, 13, 40, 66, 69}
	if got := keepNonNull(b, earlier, []int{1, 0}); &got[0] != &earlier[0] || len(got) != len(earlier) {
		t.Errorf("no bitmap: selection %v, want the incoming one", got)
	}
	if got := keepNonNull(b, earlier, nil); &got[0] != &earlier[0] {
		t.Errorf("no columns: selection %v, want the incoming one", got)
	}
	want := []int32{1, 2, 40, 69}
	if got := keepNonNull(b, earlier, []int{2, 1, 3}); !slices.Equal(got, want) {
		t.Errorf("chained selection: got %v, want %v", got, want)
	}
	var all []int32
	for i := range rows {
		if i%5 != 3 {
			all = append(all, int32(i))
		}
	}
	if got := keepNonNull(b, nil, []int{2}); !slices.Equal(got, all) {
		t.Errorf("no selection: got %v, want %v", got, all)
	}
	kept := []int32{0, 1, 2}
	if got := keepNonNull(b, kept, []int{2, 3}); &got[0] != &kept[0] {
		t.Errorf("every selected row kept: got %v, want the incoming selection", got)
	}
}

// TestMapStringColumnOncePerRun pins the mask kernel's reuse: fn runs once
// per run of equal adjacent non-null cells (a null between two equal cells
// does not split their run) and never on a null, with or without a selection
// vector, and every output cell is fn of its input.
func TestMapStringColumnOncePerRun(t *testing.T) {
	schema := storage.MustSchema(storage.Field{Name: "s", Type: storage.TypeString, Nullable: true})
	cells := []storage.Value{"a", "a", nil, "a", "b", "b", "a", nil, nil, "c", "c", "", "", "c"}
	rows := make([]storage.Row, len(cells))
	for i, v := range cells {
		rows[i] = storage.Row{v}
	}
	b, err := storage.BatchFromRows(schema, rows)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		sel   []int32
		calls int
	}{
		{"every row", nil, 6}, // a b a c "" c
		{"selection", []int32{0, 2, 3, 5, 7, 9, 10, 11, 13}, 5}, // a a b c c "" c
	} {
		calls := 0
		fn := func(s string) string { calls++; return "m:" + s }
		out := mapStringColumn(b.Column(0), b.Len(), tc.sel, fn)
		if calls != tc.calls {
			t.Errorf("%s: fn called %d times, want %d", tc.name, calls, tc.calls)
		}
		row := 0
		_ = eachSel(b.Len(), tc.sel, func(i int) error {
			switch {
			case cells[i] == nil && !out.Null(row):
				t.Errorf("%s: row %d: null cell mapped to %q", tc.name, row, out.Str(row))
			case cells[i] != nil && (out.Null(row) || out.Str(row) != "m:"+cells[i].(string)):
				t.Errorf("%s: row %d = %q, want %q", tc.name, row, out.Str(row), "m:"+cells[i].(string))
			}
			row++
			return nil
		})
	}
}
