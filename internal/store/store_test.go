package store

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/storage"
)

func testSchema(t *testing.T) *storage.Schema {
	t.Helper()
	s, err := storage.NewSchema(
		storage.Field{Name: "id", Type: storage.TypeInt},
		storage.Field{Name: "score", Type: storage.TypeFloat},
		storage.Field{Name: "region", Type: storage.TypeString},
	)
	if err != nil {
		t.Fatalf("schema: %v", err)
	}
	return s
}

func testRows(n, base int) []storage.Row {
	rows := make([]storage.Row, n)
	for i := 0; i < n; i++ {
		rows[i] = storage.Row{
			int64(base + i),
			float64(base+i) / 4,
			fmt.Sprintf("region-%02d", (base+i)%7),
		}
	}
	return rows
}

func rowsEqual(t *testing.T, got, want []storage.Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("row count: got %d want %d", len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("row %d: got %v want %v", i, got[i], want[i])
		}
	}
}

func TestSaveReadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer s.Close()

	schema := testSchema(t)
	want := testRows(1000, 0)
	if err := s.SaveRows("metrics", schema, want); err != nil {
		t.Fatalf("save: %v", err)
	}
	got, err := s.Rows("metrics")
	if err != nil {
		t.Fatalf("rows: %v", err)
	}
	rowsEqual(t, got, want)

	infos := s.Tables()
	if len(infos) != 1 || infos[0].Name != "metrics" || infos[0].Rows != 1000 {
		t.Fatalf("tables: %+v", infos)
	}
	if infos[0].Bytes <= 0 || infos[0].Segments == 0 {
		t.Fatalf("table info missing sizes: %+v", infos[0])
	}
}

func TestReopenPersists(t *testing.T) {
	dir := t.TempDir()
	schema := testSchema(t)
	want := testRows(500, 10)

	s, err := Open(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := s.SaveRows("metrics", schema, want); err != nil {
		t.Fatalf("save: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	got, err := s2.Rows("metrics")
	if err != nil {
		t.Fatalf("rows after reopen: %v", err)
	}
	rowsEqual(t, got, want)
	schema2, err := s2.Schema("metrics")
	if err != nil {
		t.Fatalf("schema: %v", err)
	}
	if !schema2.Equal(schema) {
		t.Fatalf("schema not round-tripped: got %v want %v", schema2, schema)
	}
}

func TestReplaceAndDrop(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer s.Close()
	schema := testSchema(t)

	if err := s.SaveRows("t", schema, testRows(100, 0)); err != nil {
		t.Fatalf("save v1: %v", err)
	}
	v2 := testRows(50, 1000)
	if err := s.SaveRows("t", schema, v2); err != nil {
		t.Fatalf("save v2: %v", err)
	}
	got, err := s.Rows("t")
	if err != nil {
		t.Fatalf("rows: %v", err)
	}
	rowsEqual(t, got, v2)

	if err := s.Drop("t"); err != nil {
		t.Fatalf("drop: %v", err)
	}
	if s.Has("t") {
		t.Fatal("table still present after drop")
	}
	if _, err := s.Rows("t"); err == nil {
		t.Fatal("expected error reading dropped table")
	}

	// Reopen: the drop must be durable and old segments swept.
	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if s2.Has("t") {
		t.Fatal("dropped table resurrected on reopen")
	}
}

func TestZoneMapSegmentSkipping(t *testing.T) {
	dir := t.TempDir()
	// Small segments so a selective filter has whole segments to skip.
	s, err := Open(dir, WithSegmentRows(100), WithFrameRows(50))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer s.Close()
	schema := testSchema(t)
	// Sorted ids 0..999 across ~10 segments of 100 rows each.
	if err := s.SaveRows("sorted", schema, testRows(1000, 0)); err != nil {
		t.Fatalf("save: %v", err)
	}

	var rows int
	stats, err := s.Scan("sorted", Filter{{Col: "id", Op: OpGE, Value: int64(950)}}, func(b *storage.ColumnBatch) error {
		rows += b.Len()
		return nil
	})
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	if stats.SegmentsSkipped == 0 {
		t.Fatalf("selective scan skipped no segments: %+v", stats)
	}
	if rows == 0 || rows >= 1000 {
		t.Fatalf("scan saw %d rows, want a pruned subset containing matches", rows)
	}
	if v := s.Metrics().Snapshot().CounterValue("store.segments.skipped"); v == 0 {
		t.Fatal("store.segments.skipped counter not incremented")
	}

	// The pruned scan must still return every matching row.
	seen := map[int64]bool{}
	if _, err := s.Scan("sorted", Filter{{Col: "id", Op: OpGE, Value: int64(950)}}, func(b *storage.ColumnBatch) error {
		col := b.Column(0)
		for i := 0; i < b.Len(); i++ {
			if col.Int(i) >= 950 {
				seen[col.Int(i)] = true
			}
		}
		return nil
	}); err != nil {
		t.Fatalf("scan: %v", err)
	}
	for id := int64(950); id < 1000; id++ {
		if !seen[id] {
			t.Fatalf("pruned scan lost matching row id=%d", id)
		}
	}
}

func TestZoneMapFrameSkipping(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, WithSegmentRows(1000), WithFrameRows(100))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer s.Close()
	schema := testSchema(t)
	if err := s.SaveRows("sorted", schema, testRows(1000, 0)); err != nil {
		t.Fatalf("save: %v", err)
	}
	stats, err := s.Scan("sorted", Filter{{Col: "id", Op: OpLE, Value: int64(10)}}, func(b *storage.ColumnBatch) error { return nil })
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	if stats.FramesSkipped == 0 {
		t.Fatalf("selective scan skipped no frames: %+v", stats)
	}
}

// TestZoneMapExactIntBounds saves ids one past ±2^53, where float64 rounds
// onto the predicate value, and requires the scan that matches each to
// return it: zones compare int bounds as ints.
func TestZoneMapExactIntBounds(t *testing.T) {
	const p53 = int64(1) << 53
	for _, tc := range []struct {
		id   int64
		pred Pred
	}{
		{p53 + 1, Pred{Col: "id", Op: OpGT, Value: p53}},
		{-(p53 + 1), Pred{Col: "id", Op: OpLT, Value: -p53}},
	} {
		s, err := Open("/db", WithFS(NewFaultFS()))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.SaveRows("t", testSchema(t), []storage.Row{{tc.id, 1.0, "r"}}); err != nil {
			t.Fatal(err)
		}
		var ids []int64
		stats, err := s.Scan("t", Filter{tc.pred}, func(b *storage.ColumnBatch) error {
			for i := 0; i < b.Len(); i++ {
				ids = append(ids, b.Column(0).Int(i))
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(ids) != 1 || ids[0] != tc.id {
			t.Errorf("scan id %s %d over a table holding id %d returned %v (%+v)", tc.pred.Op, tc.pred.Value, tc.id, ids, stats)
		}
		s.Close()
	}
}

func TestCheckpointBoundsWALAndPersists(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, WithCheckpointEvery(1000))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer s.Close()
	schema := testSchema(t)
	// Replace the same table repeatedly: the WAL accumulates dead history
	// that the checkpoint's snapshot folds away.
	for i := 0; i < 10; i++ {
		if err := s.SaveRows("t", schema, testRows(10, i*10)); err != nil {
			t.Fatalf("save %d: %v", i, err)
		}
	}
	if err := s.SaveRows("keep", schema, testRows(10, 500)); err != nil {
		t.Fatalf("save keep: %v", err)
	}
	preLen := s.walLen
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if s.walLen >= preLen {
		t.Fatalf("checkpoint did not shrink wal: %d -> %d", preLen, s.walLen)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen after checkpoint: %v", err)
	}
	defer s2.Close()
	if got := len(s2.Tables()); got != 2 {
		t.Fatalf("tables after checkpoint reopen: got %d want 2", got)
	}
	got, err := s2.Rows("t")
	if err != nil {
		t.Fatalf("rows: %v", err)
	}
	rowsEqual(t, got, testRows(10, 90))
}

func TestAutoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, WithCheckpointEvery(3))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer s.Close()
	schema := testSchema(t)
	for i := 0; i < 7; i++ {
		if err := s.SaveRows(fmt.Sprintf("t%d", i), schema, testRows(5, 0)); err != nil {
			t.Fatalf("save %d: %v", i, err)
		}
	}
	if v := s.Metrics().Snapshot().CounterValue("store.wal.checkpoints"); v == 0 {
		t.Fatal("auto checkpoint never fired")
	}
}

func TestEmptyTable(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer s.Close()
	schema := testSchema(t)
	if err := s.SaveRows("empty", schema, nil); err != nil {
		t.Fatalf("save empty: %v", err)
	}
	got, err := s.Rows("empty")
	if err != nil {
		t.Fatalf("rows: %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("empty table has %d rows", len(got))
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if !s2.Has("empty") {
		t.Fatal("empty table lost on reopen")
	}
}

func TestReadTableBitIdentical(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, WithSegmentRows(64))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer s.Close()
	schema := testSchema(t)
	want := testRows(333, 7)
	if err := s.SaveRows("t", schema, want); err != nil {
		t.Fatalf("save: %v", err)
	}
	tbl, err := s.ReadTable("t")
	if err != nil {
		t.Fatalf("read table: %v", err)
	}
	// Table routes appends across partitions, so compare against a table
	// built by appending the same rows in the same order.
	wantTbl, err := storage.NewTable("t", schema)
	if err != nil {
		t.Fatalf("new table: %v", err)
	}
	if _, err := wantTbl.AppendAll(want); err != nil {
		t.Fatalf("append: %v", err)
	}
	rowsEqual(t, tbl.Rows(), wantTbl.Rows())
}

func TestOnFaultFSWithoutFaults(t *testing.T) {
	ffs := NewFaultFS()
	s, err := Open("/db", WithFS(ffs), WithSegmentRows(50))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	schema := testSchema(t)
	want := testRows(200, 0)
	if err := s.SaveRows("t", schema, want); err != nil {
		t.Fatalf("save: %v", err)
	}
	// Simulate clean power loss: everything was fsynced, so a reopen on the
	// post-crash state must see the table intact.
	ffs.Crash()
	ffs.Reset()
	s2, err := Open("/db", WithFS(ffs))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	got, err := s2.Rows("t")
	if err != nil {
		t.Fatalf("rows: %v", err)
	}
	rowsEqual(t, got, want)
}

func TestParsePred(t *testing.T) {
	schema := testSchema(t)
	cases := []struct {
		expr string
		want Pred
	}{
		{"id>=10", Pred{Col: "id", Op: OpGE, Value: int64(10)}},
		{"id<5", Pred{Col: "id", Op: OpLT, Value: int64(5)}},
		{"score<=2.5", Pred{Col: "score", Op: OpLE, Value: 2.5}},
		{"region=region-03", Pred{Col: "region", Op: OpEq, Value: "region-03"}},
		// The column ends at the leftmost '<', '>' or '=': a value may hold
		// operator characters.
		{"s<a=b", Pred{Col: "s", Op: OpLT, Value: "a=b"}},
		{"s>x<=y", Pred{Col: "s", Op: OpGT, Value: "x<=y"}},
	}
	for _, c := range cases {
		got, err := ParsePred(c.expr, schema)
		if err != nil {
			t.Fatalf("parse %q: %v", c.expr, err)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Fatalf("parse %q: got %+v want %+v", c.expr, got, c.want)
		}
	}
	// Neither an expression without an operator nor a number followed by
	// other text parses.
	for _, expr := range []string{"nonsense", "id>=12abc"} {
		if got, err := ParsePred(expr, schema); err == nil {
			t.Errorf("parse %q: got %+v, want an error", expr, got)
		}
	}
}
