package dataflow

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/storage"
)

func salesSchema() *storage.Schema {
	return storage.MustSchema(
		storage.Field{Name: "id", Type: storage.TypeInt},
		storage.Field{Name: "region", Type: storage.TypeString},
		storage.Field{Name: "amount", Type: storage.TypeFloat},
		storage.Field{Name: "priority", Type: storage.TypeBool, Nullable: true},
	)
}

func salesRows() []storage.Row {
	return []storage.Row{
		{int64(1), "north", 10.0, true},
		{int64(2), "south", 20.0, false},
		{int64(3), "north", 30.0, nil},
		{int64(4), "east", 40.0, true},
		{int64(5), "south", 50.0, false},
		{int64(6), "north", 60.0, true},
	}
}

func salesDataset(t *testing.T) *Dataset {
	t.Helper()
	d := FromRows("sales", salesSchema(), salesRows(), 3)
	if d.Err() != nil {
		t.Fatalf("FromRows: %v", d.Err())
	}
	return d
}

func TestFromRowsValidation(t *testing.T) {
	if err := FromRows("x", nil, nil, 1).Err(); !errors.Is(err, ErrNoSource) {
		t.Errorf("nil schema err = %v, want ErrNoSource", err)
	}
	bad := []storage.Row{{"wrong", "north", 1.0, nil}}
	if err := FromRows("x", salesSchema(), bad, 1).Err(); err == nil {
		t.Error("invalid rows must be rejected")
	}
	// Negative partition counts are clamped to 1.
	d := FromRows("x", salesSchema(), salesRows(), -3)
	if d.Err() != nil {
		t.Errorf("negative partitions should clamp, got %v", d.Err())
	}
}

func TestFromTableSnapshot(t *testing.T) {
	tbl, err := storage.NewTable("sales", salesSchema(), storage.WithPartitions(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.AppendAll(salesRows()); err != nil {
		t.Fatal(err)
	}
	d := FromTable(tbl)
	if d.Err() != nil {
		t.Fatalf("FromTable: %v", d.Err())
	}
	// Mutating the table after the snapshot must not change the plan source.
	if err := tbl.Append(storage.Row{int64(7), "west", 70.0, nil}); err != nil {
		t.Fatal(err)
	}
	src := d.node.(*sourceNode)
	total := 0
	for _, b := range src.batches {
		total += len(b.Rows())
	}
	if total != 6 {
		t.Errorf("snapshot rows = %d, want 6", total)
	}
	if FromTable(nil).Err() == nil {
		t.Error("FromTable(nil) must be invalid")
	}
}

// salesTable builds a two-partition sales table of n rows, every third
// priority null.
func salesTable(t *testing.T, n int) *storage.Table {
	t.Helper()
	tbl, err := storage.NewTable("sales", salesSchema(), storage.WithPartitions(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		var priority storage.Value
		if i%3 != 0 {
			priority = i%2 == 0
		}
		row := storage.Row{int64(i), []string{"north", "south", "east"}[i%3], float64(i % 100), priority}
		if err := tbl.Append(row); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

// TestFromTableAllocsIndependentOfRows pins FromTable to an O(partitions)
// snapshot: it allocates the same on a 10-row and a 10,000-row table.
func TestFromTableAllocsIndependentOfRows(t *testing.T) {
	small, large := salesTable(t, 10), salesTable(t, 10_000)
	a := testing.AllocsPerRun(50, func() { _ = FromTable(small) })
	b := testing.AllocsPerRun(50, func() { _ = FromTable(large) })
	if a != b {
		t.Errorf("FromTable allocates %v times on 10 rows, %v on 10,000", a, b)
	}
}

// TestFromTableConcurrentAppend collects a plan over a table snapshot while
// another goroutine appends rows, nulls included, to the same table: the
// plan's output must not change. Under the race detector (make race) it also
// checks that appends never write memory a snapshot reads; the writer never
// signals the reader, since that would order their accesses and hide a race.
func TestFromTableConcurrentAppend(t *testing.T) {
	tbl := salesTable(t, 1000)
	e := testEngine(t)
	plan := FromTable(tbl).
		Filter("priority set", func(r Record) (bool, error) { return !r.IsNull("priority"), nil }).
		GroupBy("region").Agg(Count(), Sum("amount"))
	want := collect(t, e, plan)

	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for i := 1000; i < 50_000; i++ {
			select {
			case <-stop:
				return
			default:
			}
			var priority storage.Value
			if i%2 == 0 {
				priority = true
			}
			if err := tbl.Append(storage.Row{int64(i), "west", 1.0, priority}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 5; i++ {
		assertSameResult(t, fmt.Sprintf("collect %d during appends", i), collect(t, e, plan), want)
	}
	close(stop)
	<-done
	if tbl.NumRows() <= 1000 {
		t.Errorf("table has %d rows after the appends", tbl.NumRows())
	}
}

func TestRecordAccessors(t *testing.T) {
	rec := Record{schema: salesSchema(), row: salesRows()[0]}
	if rec.Int("id") != 1 || rec.String("region") != "north" || rec.Float("amount") != 10.0 || !rec.Bool("priority") {
		t.Errorf("record accessors misbehave: %+v", rec)
	}
	if rec.Value("missing") != nil || !rec.IsNull("missing") {
		t.Error("missing column must read as null")
	}
	if rec.IsNull("id") {
		t.Error("id must not be null")
	}
	if rec.Schema() != rec.schema {
		t.Error("Schema accessor misbehaves")
	}
}

func TestErrorPropagationThroughBuilder(t *testing.T) {
	d := FromTable(nil) // invalid source
	chained := d.Filter("x", func(Record) (bool, error) { return true, nil }).
		Project("id").
		FilterNonNull("id set", []string{"id"})
	if chained.Err() == nil {
		t.Error("builder must propagate the original error")
	}
	if chained.Schema() != nil {
		t.Error("invalid plan must have nil schema")
	}
	if !strings.Contains(chained.Explain(), "invalid") {
		t.Errorf("Explain of invalid plan = %q", chained.Explain())
	}
	var nilDS *Dataset
	if nilDS.Err() == nil {
		t.Error("nil dataset must report an error")
	}
}

func TestBuilderValidation(t *testing.T) {
	d := salesDataset(t)
	if d.Filter("nil", nil).Err() == nil {
		t.Error("nil filter fn must fail")
	}
	if d.Project("ghost").Err() == nil {
		t.Error("projecting unknown column must fail")
	}
	if d.WithColumn(storage.Field{Name: "id", Type: storage.TypeInt}, func(Record) (storage.Value, error) { return nil, nil }).Err() == nil {
		t.Error("duplicate derived column name must fail")
	}
	if d.WithColumn(storage.Field{Name: "y", Type: storage.TypeInt}, nil).Err() == nil {
		t.Error("nil column fn must fail")
	}
	if d.Sort().Err() == nil {
		t.Error("sort without orders must fail")
	}
	if d.Sort(SortOrder{Column: "ghost"}).Err() == nil {
		t.Error("sort on unknown column must fail")
	}
	if d.GroupBy().Agg(Count()).Err() == nil {
		t.Error("group by without keys must fail")
	}
	if d.GroupBy("ghost").Agg(Count()).Err() == nil {
		t.Error("group by unknown key must fail")
	}
	if d.GroupBy("region").Agg().Err() == nil {
		t.Error("agg without aggregations must fail")
	}
	if d.GroupBy("region").Agg(Sum("ghost")).Err() == nil {
		t.Error("aggregating unknown column must fail")
	}
	if d.GroupBy("region").Agg(Aggregation{Kind: AggSum}).Err() == nil {
		t.Error("aggregation without column must fail")
	}
	other := FromRows("other", storage.MustSchema(storage.Field{Name: "x", Type: storage.TypeInt}), nil, 1)
	if d.Join(other, "ghost", "x", InnerJoin).Err() == nil {
		t.Error("join on unknown left key must fail")
	}
	if d.Join(other, "id", "ghost", InnerJoin).Err() == nil {
		t.Error("join on unknown right key must fail")
	}
	if d.Join(other, "id", "x", JoinType(99)).Err() == nil {
		t.Error("unsupported join type must fail")
	}
}

// TestMapStringsPlanValidation pins MapStrings' plan-build contract: the
// column indices bind once, unknown, non-string and repeated columns fail
// the plan with ErrBadPlan, and the output schema is the input schema.
func TestMapStringsPlanValidation(t *testing.T) {
	d := salesDataset(t)
	upper := strings.ToUpper
	for name, bad := range map[string]*Dataset{
		"unknown column": d.MapStrings("m", []string{"ghost"}, upper),
		"int column":     d.MapStrings("m", []string{"id"}, upper),
		"repeated":       d.MapStrings("m", []string{"region", "region"}, upper),
		"no columns":     d.MapStrings("m", nil, upper),
		"nil function":   d.MapStrings("m", []string{"region"}, nil),
	} {
		if err := bad.Err(); !errors.Is(err, ErrBadPlan) {
			t.Errorf("%s: Err() = %v, want ErrBadPlan", name, err)
		}
	}
	if err := d.MapStrings("m", []string{"ghost"}, upper).Err(); !errors.Is(err, storage.ErrUnknownField) {
		t.Errorf("unknown column: Err() = %v, want it to wrap ErrUnknownField", err)
	}
	ok := d.MapStrings("upper-case regions", []string{"region"}, upper)
	if ok.Err() != nil || !ok.Schema().Equal(d.Schema()) {
		t.Fatalf("MapStrings: err %v, schema %s, want the input schema", ok.Err(), ok.Schema())
	}
	if got := ok.Explain(); !strings.HasPrefix(got, "MapStrings(upper-case regions [region])") {
		t.Errorf("Explain = %q", got)
	}
}

func TestFilterNonNullPlanValidation(t *testing.T) {
	d := salesDataset(t)
	bad := d.FilterNonNull("drop", []string{"priority", "ghost"})
	if err := bad.Err(); !errors.Is(err, ErrBadPlan) || !errors.Is(err, storage.ErrUnknownField) {
		t.Errorf("unknown column: Err() = %v, want ErrBadPlan wrapping ErrUnknownField", err)
	}
	e := testEngine(t)
	for _, tc := range []struct {
		cols []string
		want int64
	}{
		{nil, 6},                        // no columns keeps every row
		{[]string{"id", "amount"}, 6},   // no bitmap on either column
		{[]string{"priority", "id"}, 5}, // row 3 is null
		{[]string{"priority", "priority"}, 5},
	} {
		plan := d.FilterNonNull("drop rows with missing required values", tc.cols)
		if got := plan.Explain(); !strings.HasPrefix(got, "Filter(drop rows with missing required values)") {
			t.Errorf("%v: Explain = %q", tc.cols, got)
		}
		n, err := e.Count(context.Background(), plan)
		if err != nil || n != tc.want {
			t.Errorf("%v: Count = %d, %v, want %d", tc.cols, n, err, tc.want)
		}
	}
}

func TestJoinSchemaPrefixesCollidingColumns(t *testing.T) {
	left := salesDataset(t)
	right := FromRows("regions", storage.MustSchema(
		storage.Field{Name: "region", Type: storage.TypeString},
		storage.Field{Name: "manager", Type: storage.TypeString},
	), []storage.Row{{"north", "anna"}}, 1)
	j := left.Join(right, "region", "region", InnerJoin)
	if j.Err() != nil {
		t.Fatalf("join: %v", j.Err())
	}
	s := j.Schema()
	if !s.Has("right_region") || !s.Has("manager") {
		t.Errorf("join schema = %v", s.Names())
	}
}

func TestExplain(t *testing.T) {
	d := salesDataset(t).
		Filter("amount > 15", func(r Record) (bool, error) { return r.Float("amount") > 15, nil }).
		GroupBy("region").Agg(Count(), Sum("amount"))
	plan := d.Explain()
	for _, want := range []string{"GroupBy", "Filter", "Source(sales"} {
		if !strings.Contains(plan, want) {
			t.Errorf("Explain missing %q:\n%s", want, plan)
		}
	}
	var empty *Dataset
	if empty.Explain() != "<invalid plan>" {
		t.Errorf("nil Explain = %q", empty.Explain())
	}
}

func TestAggregationNaming(t *testing.T) {
	if Count().OutputName() != "count" {
		t.Errorf("Count output = %q", Count().OutputName())
	}
	if Sum("amount").OutputName() != "sum_amount" {
		t.Errorf("Sum output = %q", Sum("amount").OutputName())
	}
	if Avg("x").Named("mean_x").OutputName() != "mean_x" {
		t.Errorf("Named output = %q", Avg("x").Named("mean_x").OutputName())
	}
	kinds := []AggKind{AggCount, AggSum, AggAvg}
	for _, k := range kinds {
		if k.String() == "" || strings.HasPrefix(k.String(), "agg(") {
			t.Errorf("AggKind(%d).String() = %q", k, k.String())
		}
	}
	if JoinType(42).String() == "" || InnerJoin.String() != "inner" || LeftJoin.String() != "left" {
		t.Error("JoinType.String misbehaves")
	}
}

func TestGroupByOutputSchema(t *testing.T) {
	d := salesDataset(t).GroupBy("region").Agg(Count(), Avg("amount"), Sum("id"), Sum("priority"))
	if d.Err() != nil {
		t.Fatal(d.Err())
	}
	s := d.Schema()
	want := []string{"region", "count", "avg_amount", "sum_id", "sum_priority"}
	got := s.Names()
	if len(got) != len(want) {
		t.Fatalf("schema = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("schema[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	if f, _ := s.FieldByName("count"); f.Type != storage.TypeInt {
		t.Error("count must be int")
	}
	if f, _ := s.FieldByName("avg_amount"); f.Type != storage.TypeFloat {
		t.Error("avg must be float")
	}
	if f, _ := s.FieldByName("sum_id"); f.Type != storage.TypeFloat {
		t.Error("sum of int column must be float")
	}
}

// TestAggRejectsUnknownKinds holds Agg to the three aggregation kinds: any
// other AggKind value, including the values 3–6 that min, max,
// count-distinct and stddev once held, fails the plan instead of producing
// an all-null column.
func TestAggRejectsUnknownKinds(t *testing.T) {
	for _, k := range []AggKind{-1, 3, 4, 5, 6} {
		d := salesDataset(t).GroupBy("region").Agg(Count(), Aggregation{Kind: k, Column: "amount"})
		if !errors.Is(d.Err(), ErrBadPlan) {
			t.Errorf("AggKind(%d): Err() = %v, want ErrBadPlan", int(k), d.Err())
		}
	}
}
