package storage

import (
	"errors"
	"reflect"
	"strings"
	"testing"
)

func batchSchema(t *testing.T) *Schema {
	t.Helper()
	return MustSchema(
		Field{Name: "id", Type: TypeInt},
		Field{Name: "score", Type: TypeFloat, Nullable: true},
		Field{Name: "name", Type: TypeString},
		Field{Name: "ok", Type: TypeBool, Nullable: true},
		Field{Name: "at", Type: TypeTime, Nullable: true},
	)
}

func batchRows() []Row {
	return []Row{
		{int64(1), 1.5, "a", true, int64(1000)},
		{int64(2), nil, "b", false, nil},
		{int64(3), -2.25, "c", nil, int64(3000)},
	}
}

func TestBatchRoundTrip(t *testing.T) {
	schema := batchSchema(t)
	rows := batchRows()
	b, err := BatchFromRows(schema, rows)
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != len(rows) || b.Width() != schema.Len() {
		t.Fatalf("batch %dx%d, want %dx%d", b.Len(), b.Width(), len(rows), schema.Len())
	}
	for i, want := range rows {
		if got := b.Row(i); !reflect.DeepEqual(got, want) {
			t.Errorf("Row(%d) = %v, want %v", i, got, want)
		}
	}
	if got := b.Rows(); !reflect.DeepEqual(got, rows) {
		t.Errorf("Rows() = %v, want %v", got, rows)
	}
}

func TestBatchValidation(t *testing.T) {
	schema := batchSchema(t)
	cases := []struct {
		name string
		row  Row
		want string
	}{
		{"arity", Row{int64(1)}, "values, schema has"},
		{"type", Row{"one", 1.5, "a", true, int64(1)}, "expects int"},
		{"null", Row{nil, 1.5, "a", true, int64(1)}, "not nullable"},
	}
	for _, tc := range cases {
		b := NewColumnBatch(schema, 1)
		err := b.AppendRow(tc.row)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: AppendRow error = %v, want containing %q", tc.name, err, tc.want)
		}
	}
}

func TestBatchTypedAccessors(t *testing.T) {
	schema := batchSchema(t)
	b, err := BatchFromRows(schema, batchRows())
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := b.FloatAt(0, 1); !ok || v != 1.5 {
		t.Errorf("FloatAt(0,1) = %v,%v", v, ok)
	}
	if _, ok := b.FloatAt(1, 1); ok {
		t.Error("FloatAt over null must report !ok")
	}
	if v, ok := b.FloatAt(0, 0); !ok || v != 1 {
		t.Errorf("FloatAt over int = %v,%v", v, ok)
	}
	if v, ok := b.IntAt(2, 4); !ok || v != 3000 {
		t.Errorf("IntAt(2,4) = %v,%v", v, ok)
	}
	if v, ok := b.BoolAt(0, 3); !ok || !v {
		t.Errorf("BoolAt(0,3) = %v,%v", v, ok)
	}
	if got := b.StringAt(1, 2); got != "b" {
		t.Errorf("StringAt(1,2) = %q", got)
	}
	if got := b.StringAt(0, 0); got != "1" {
		t.Errorf("StringAt over int = %q", got)
	}
	if !b.NullAt(1, 1) || b.NullAt(0, 0) || !b.NullAt(0, 99) {
		t.Error("NullAt mismatch")
	}
	// Accessor semantics must match the boxed As* helpers cell by cell.
	for i := 0; i < b.Len(); i++ {
		for c := 0; c < b.Width(); c++ {
			v := b.Value(i, c)
			if f, ok := AsFloat(v); true {
				if gf, gok := b.FloatAt(i, c); gf != f || gok != ok {
					t.Errorf("FloatAt(%d,%d) = %v,%v want %v,%v", i, c, gf, gok, f, ok)
				}
			}
			if s := AsString(v); b.StringAt(i, c) != s {
				t.Errorf("StringAt(%d,%d) = %q want %q", i, c, b.StringAt(i, c), s)
			}
		}
	}
}

func TestBatchGatherProjectHead(t *testing.T) {
	schema := batchSchema(t)
	rows := batchRows()
	b, err := BatchFromRows(schema, rows)
	if err != nil {
		t.Fatal(err)
	}
	g := b.Gather([]int32{2, 0})
	if g.Len() != 2 || !reflect.DeepEqual(g.Row(0), rows[2]) || !reflect.DeepEqual(g.Row(1), rows[0]) {
		t.Errorf("Gather rows = %v / %v", g.Row(0), g.Row(1))
	}
	// Column.Gather is the one-column form: nulls and values follow the
	// selection.
	sel := []int32{1, 2, 1}
	for c := 0; c < b.Width(); c++ {
		col := b.Column(c).Gather(sel)
		for j, i := range sel {
			if got, want := col.Value(j), rows[i][c]; got != want {
				t.Errorf("column %d Gather row %d = %v, want %v", c, j, got, want)
			}
		}
	}
	projected, err := schema.Project("name", "id")
	if err != nil {
		t.Fatal(err)
	}
	p := b.ProjectCols(projected, []int{2, 0})
	if p.Len() != 3 || !reflect.DeepEqual(p.Row(1), Row{"b", int64(2)}) {
		t.Errorf("ProjectCols row = %v", p.Row(1))
	}
	h := b.Head(2)
	if h.Len() != 2 || !reflect.DeepEqual(h.Rows(), rows[:2]) {
		t.Errorf("Head rows = %v", h.Rows())
	}
	if b.Head(10) != b {
		t.Error("Head beyond length must return the batch itself")
	}
}

func TestBatchAppendJoined(t *testing.T) {
	left := MustSchema(Field{Name: "k", Type: TypeInt}, Field{Name: "v", Type: TypeFloat})
	right := MustSchema(Field{Name: "name", Type: TypeString, Nullable: true})
	out := MustSchema(
		Field{Name: "k", Type: TypeInt},
		Field{Name: "v", Type: TypeFloat},
		Field{Name: "name", Type: TypeString, Nullable: true},
	)
	lb, err := BatchFromRows(left, []Row{{int64(1), 2.5}, {int64(2), 3.5}})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := BatchFromRows(right, []Row{{"x"}})
	if err != nil {
		t.Fatal(err)
	}
	o := NewColumnBatch(out, 2)
	o.AppendJoined(lb, 1, rb, 0)
	o.AppendNullExtended(lb, 0)
	want := []Row{{int64(2), 3.5, "x"}, {int64(1), 2.5, nil}}
	if !reflect.DeepEqual(o.Rows(), want) {
		t.Errorf("joined rows = %v, want %v", o.Rows(), want)
	}
}

// TestBatchKeyEncoding verifies that batch-encoded keys are byte-identical to
// row-encoded keys, so hashes and map keys computed on either side of a
// shuffle agree.
func TestBatchKeyEncoding(t *testing.T) {
	schema := batchSchema(t)
	rows := batchRows()
	b, err := BatchFromRows(schema, rows)
	if err != nil {
		t.Fatal(err)
	}
	for _, cols := range [][]string{nil, {"id"}, {"name", "score"}, {"ok", "at", "id"}} {
		enc, err := NewKeyEncoder(schema, cols...)
		if err != nil {
			t.Fatal(err)
		}
		check := enc.Clone()
		for i, r := range rows {
			rowKey := append([]byte(nil), enc.Key(r)...)
			batchKey := check.BatchKey(b, i)
			if string(rowKey) != string(batchKey) {
				t.Errorf("cols %v row %d: row key %x != batch key %x", cols, i, rowKey, batchKey)
			}
			if enc.Hash(r) != check.BatchHash(b, i) {
				t.Errorf("cols %v row %d: hash mismatch", cols, i)
			}
		}
	}
}

func TestValidateBatch(t *testing.T) {
	schema := batchSchema(t)
	valid, err := BatchFromRows(schema, batchRows())
	if err != nil {
		t.Fatal(err)
	}
	// A dictionary-backed batch: a v2 frame decoded with its string
	// dictionary kept on the column.
	dictSchema := MustSchema(Field{Name: "s", Type: TypeString, Nullable: true})
	var dictRows []Row
	for i := 0; i < 64; i++ {
		dictRows = append(dictRows, Row{[]Value{"beta", "alpha", nil, "beta"}[i%4]})
	}
	src, err := BatchFromRows(dictSchema, dictRows)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeBatch(dictSchema, EncodeBatchOpts(nil, src, CodecOptions{Compress: true}))
	if err != nil {
		t.Fatal(err)
	}
	if decoded.Column(0).Dict() == nil {
		t.Fatal("decoded v2 string column carries no dictionary")
	}
	for name, b := range map[string]*ColumnBatch{
		"built":   valid,
		"head":    valid.Head(1),
		"empty":   NewColumnBatch(schema, 0),
		"dict":    decoded,
		"gather":  decoded.Gather([]int32{3, 0}),
		"project": valid.ProjectCols(MustSchema(schema.Field(2)), []int{2}),
	} {
		if err := ValidateBatch(b); err != nil {
			t.Errorf("%s: ValidateBatch = %v, want nil", name, err)
		}
	}

	// withCol returns a copy of the valid batch with column c replaced.
	withCol := func(c int, mutate func(col *Column)) *ColumnBatch {
		cols := append([]Column(nil), valid.cols...)
		mutate(&cols[c])
		return &ColumnBatch{schema: schema, cols: cols, n: valid.n}
	}
	withDict := func(mutate func(col *Column)) *ColumnBatch {
		col := decoded.cols[0]
		col.dict = append([]string(nil), col.dict...)
		col.codes = append([]uint32(nil), col.codes...)
		col.strs = append([]string(nil), col.strs...)
		mutate(&col)
		return &ColumnBatch{schema: dictSchema, cols: []Column{col}, n: decoded.n}
	}
	cases := map[string]*ColumnBatch{
		"nil":             nil,
		"column count":    {schema: schema, cols: valid.cols[:2], n: valid.n},
		"column type":     withCol(0, func(c *Column) { c.typ = TypeFloat; c.floats = []float64{1, 2, 3} }),
		"short column":    withCol(2, func(c *Column) { c.strs = c.strs[:2] }),
		"non-null null":   withCol(0, func(c *Column) { c.nulls = nil; c.nulls.set(1) }),
		"long row count":  {schema: schema, cols: valid.cols, n: valid.n + 1},
		"dict order":      withDict(func(c *Column) { c.dict[0], c.dict[1] = c.dict[1], c.dict[0] }),
		"dict code range": withDict(func(c *Column) { c.codes[1] = uint32(len(c.dict)) }),
		"dict mismatch":   withDict(func(c *Column) { c.strs[0] = "zz" }),
		"short codes":     withDict(func(c *Column) { c.codes = c.codes[:1] }),
	}
	for name, b := range cases {
		if err := ValidateBatch(b); !errors.Is(err, ErrInvalidBatch) {
			t.Errorf("%s: ValidateBatch = %v, want ErrInvalidBatch", name, err)
		}
	}
	// A null past Len in a shared longer vector is not the view's concern.
	nulled := withCol(0, func(c *Column) { c.nulls = nil; c.nulls.set(2) })
	if err := ValidateBatch(nulled.Head(2)); err != nil {
		t.Errorf("head view above a trailing null: ValidateBatch = %v", err)
	}
}

func TestAppendRangeMatchesGather(t *testing.T) {
	schema := batchSchema(t)
	src, err := BatchFromRows(schema, append(batchRows(), batchRows()...))
	if err != nil {
		t.Fatal(err)
	}
	dense, err := BatchFromRows(schema, []Row{
		{int64(7), 0.5, "x", true, int64(1)},
		{int64(8), 1.5, "y", false, int64(2)},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range []*ColumnBatch{src, dense, src.Head(4)} {
		for lo := 0; lo <= in.Len(); lo++ {
			for hi := lo; hi <= in.Len(); hi++ {
				got := NewColumnBatch(schema, 0)
				got.AppendRange(dense, 0, 1) // a non-empty prefix shifts the destination rows
				got.AppendRange(in, lo, hi)
				want := NewColumnBatch(schema, 0)
				want.AppendGather(dense, []int32{0})
				var sel []int32
				for i := lo; i < hi; i++ {
					sel = append(sel, int32(i))
				}
				want.AppendGather(in, sel)
				if !reflect.DeepEqual(got.Rows(), want.Rows()) {
					t.Fatalf("AppendRange(%d, %d) = %v, gather %v", lo, hi, got.Rows(), want.Rows())
				}
				if err := ValidateBatch(got); err != nil {
					t.Fatalf("AppendRange(%d, %d): %v", lo, hi, err)
				}
			}
		}
	}
}
