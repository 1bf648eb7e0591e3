package dataflow

// batches_test.go covers the engine's columnar hand-off: CollectBatches, the
// unboxed form of Collect, and FromBatches, the source that adopts batches as
// partitions.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/storage"
)

func TestCollectBatchesMatchesCollect(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		plan := genPlan(seed, -1)
		e := testEngine(t)
		res, err := e.Collect(context.Background(), plan)
		if err != nil {
			t.Fatalf("seed %d: Collect: %v", seed, err)
		}
		br, err := e.CollectBatches(context.Background(), plan)
		if err != nil {
			t.Fatalf("seed %d: CollectBatches: %v", seed, err)
		}
		var rows []storage.Row
		for _, b := range br.Batches {
			rows = append(rows, b.Rows()...)
		}
		if br.Len() != len(res.Rows) || !reflect.DeepEqual(rows, res.Rows) {
			t.Fatalf("seed %d: CollectBatches holds %d rows (Len %d), Collect %d, or the cells differ",
				seed, len(rows), br.Len(), len(res.Rows))
		}
		if !br.Schema.Equal(res.Schema) {
			t.Fatalf("seed %d: schema %s, Collect %s", seed, br.Schema, res.Schema)
		}
		br.Stats.WallTime, res.Stats.WallTime = 0, 0
		if br.Stats != res.Stats {
			t.Fatalf("seed %d: stats %+v, Collect %+v", seed, br.Stats, res.Stats)
		}
	}
}

// nullableSchema has a non-nullable key, nullable columns of every type, and
// a "tie" column with few distinct values for sorts with ties.
func nullableSchema() *storage.Schema {
	return storage.MustSchema(
		storage.Field{Name: "id", Type: storage.TypeInt},
		storage.Field{Name: "tie", Type: storage.TypeInt},
		storage.Field{Name: "score", Type: storage.TypeFloat, Nullable: true},
		storage.Field{Name: "name", Type: storage.TypeString, Nullable: true},
		storage.Field{Name: "ok", Type: storage.TypeBool, Nullable: true},
		storage.Field{Name: "at", Type: storage.TypeTime, Nullable: true},
	)
}

func nullableRows(n, base int) []storage.Row {
	rows := make([]storage.Row, n)
	for i := range rows {
		id := base + i
		row := storage.Row{int64(id), int64(id % 3), float64(id) / 4, fmt.Sprintf("n%d", id%5), id%2 == 0, int64(1000 * id)}
		row[2+id%4] = nil
		rows[i] = row
	}
	return rows
}

func TestFromBatchesMatchesFromRows(t *testing.T) {
	schema := nullableSchema()
	chunks := [][]storage.Row{nullableRows(7, 0), nil, nullableRows(5, 7), nullableRows(9, 12)}
	var rows []storage.Row
	var batches []*storage.ColumnBatch
	for _, c := range chunks {
		b, err := storage.BatchFromRows(schema, c)
		if err != nil {
			t.Fatal(err)
		}
		batches = append(batches, b)
		rows = append(rows, c...)
	}
	plans := map[string]func(*Dataset) *Dataset{
		"narrow": func(d *Dataset) *Dataset {
			return d.Filter("score not 2", func(r Record) (bool, error) { return r.Float("score") != 2, nil }).
				MapStrings("tag", []string{"name"}, func(s string) string { return "t:" + s }).
				Project("id", "name", "score")
		},
		"sort ties": func(d *Dataset) *Dataset { return d.Sort(SortOrder{Column: "tie"}) },
		"group by": func(d *Dataset) *Dataset {
			return d.GroupBy("tie").Agg(Count(), Sum("score"), Sum("at"))
		},
	}
	for _, in := range []struct {
		name    string
		batches []*storage.ColumnBatch
		rows    []storage.Row
	}{
		{"batches", batches, rows},
		{"empty batch", batches[1:2], nil},
		{"no batches", nil, nil},
	} {
		for name, build := range plans {
			label := in.name + "/" + name
			got, err := testEngine(t).Collect(context.Background(), build(FromBatches("b", schema, in.batches)))
			if err != nil {
				t.Fatalf("%s: FromBatches: %v", label, err)
			}
			want, err := testEngine(t).Collect(context.Background(), build(FromRows("b", schema, in.rows, 1)))
			if err != nil {
				t.Fatalf("%s: FromRows: %v", label, err)
			}
			if name == "group by" {
				if g, w := refCanonical(got.Rows), refCanonical(want.Rows); !reflect.DeepEqual(g, w) {
					t.Fatalf("%s: %v, FromRows %v", label, g, w)
				}
				continue
			}
			if len(got.Rows) != len(want.Rows) || (len(want.Rows) > 0 && !reflect.DeepEqual(got.Rows, want.Rows)) {
				t.Fatalf("%s: %v, FromRows %v", label, got.Rows, want.Rows)
			}
		}
	}

	explained := testEngine(t).Explain(FromBatches("prepared", schema, batches))
	if !strings.Contains(explained, "Source(prepared, partitions=4, rows=21)") {
		t.Fatalf("Explain does not count the batch rows:\n%s", explained)
	}
}

func TestFromBatchesRejectsBadInput(t *testing.T) {
	schema := nullableSchema()
	good, err := storage.BatchFromRows(schema, nullableRows(3, 0))
	if err != nil {
		t.Fatal(err)
	}
	other := storage.MustSchema(storage.Field{Name: "id", Type: storage.TypeInt})
	mismatched, err := storage.BatchFromRows(other, []storage.Row{{int64(1)}})
	if err != nil {
		t.Fatal(err)
	}
	cols := make([]storage.Column, schema.Len())
	for i := range cols {
		cols[i] = good.Column(i).Gather([]int32{0, 1, 2})
	}
	ids := storage.NewColumnBuilder(storage.TypeInt, 3)
	ids.AppendInt(1)
	ids.AppendNull(1) // a null in the non-nullable key
	ids.AppendInt(3)
	cols[0] = ids
	invalid, err := storage.BatchOfColumns(schema, 3, cols)
	if err != nil {
		t.Fatal(err)
	}
	for name, batches := range map[string][]*storage.ColumnBatch{
		"mismatched schema": {good, mismatched},
		"invalid batch":     {invalid},
		"nil batch":         {nil},
	} {
		d := FromBatches("b", schema, batches)
		if !errors.Is(d.Err(), ErrBadPlan) {
			t.Errorf("%s: Err() = %v, want ErrBadPlan", name, d.Err())
		}
	}
	if !errors.Is(FromBatches("b", nil, nil).Err(), ErrNoSource) {
		t.Error("FromBatches with a nil schema must fail with ErrNoSource")
	}
}
