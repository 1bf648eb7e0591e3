package storage

import (
	"testing"
)

func groupTestBatch(t *testing.T) (*Schema, *ColumnBatch) {
	t.Helper()
	schema := MustSchema(
		Field{Name: "k", Type: TypeString, Nullable: true},
		Field{Name: "v", Type: TypeFloat},
	)
	rows := []Row{
		{"a", 1.0},
		{"b", 2.0},
		{"a", 3.0},
		{nil, 4.0},
		{"b", 5.0},
		{nil, 6.0},
		{"c", 7.0},
	}
	b, err := BatchFromRows(schema, rows)
	if err != nil {
		t.Fatal(err)
	}
	return schema, b
}

func TestGroupTableDenseFirstSeenIDs(t *testing.T) {
	schema, b := groupTestBatch(t)
	enc, err := NewKeyEncoder(schema, "k")
	if err != nil {
		t.Fatal(err)
	}
	keySchema := MustSchema(Field{Name: "k", Type: TypeString, Nullable: true})
	table := NewGroupTable(keySchema, []int{0}, enc, 0)

	ids := table.MapBatch(b, nil)
	want := []int32{0, 1, 0, 2, 1, 2, 3}
	if len(ids) != len(want) {
		t.Fatalf("ids = %v, want %v", ids, want)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("ids = %v, want %v", ids, want)
		}
	}
	if table.Groups() != 4 {
		t.Fatalf("Groups() = %d, want 4", table.Groups())
	}

	// Key rows carry the first-seen key values in id order.
	kr := table.KeyRows()
	if kr.Len() != 4 {
		t.Fatalf("KeyRows len = %d, want 4", kr.Len())
	}
	wantKeys := []Value{"a", "b", nil, "c"}
	for g, w := range wantKeys {
		if got := kr.Value(g, 0); got != w {
			t.Errorf("group %d key = %v, want %v", g, got, w)
		}
	}

	// Hashes match the encoder's row hashes for the same keys, and each
	// group's key row encodes to its key.
	rowEnc := enc.Clone()
	keyEnc, err := NewKeyEncoder(keySchema, "k")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for i := 0; i < b.Len(); i++ {
		k := string(rowEnc.BatchKey(b, i))
		if _, ok := seen[k]; ok {
			continue
		}
		g := int(ids[i])
		seen[k] = g
		if string(keyEnc.BatchKey(kr, g)) != k {
			t.Errorf("group %d key row mismatch", g)
		}
		if table.Hash(g) != fnv64a(k) {
			t.Errorf("group %d Hash = %d, want %d", g, table.Hash(g), fnv64a(k))
		}
	}
}

func TestGroupTableMapBatchReusesScratch(t *testing.T) {
	schema, b := groupTestBatch(t)
	enc, err := NewKeyEncoder(schema, "k")
	if err != nil {
		t.Fatal(err)
	}
	keySchema := MustSchema(Field{Name: "k", Type: TypeString, Nullable: true})
	table := NewGroupTable(keySchema, []int{0}, enc, 0)
	scratch := make([]int32, 0, 64)
	ids := table.MapBatch(b, scratch)
	ids2 := table.MapBatch(b, ids)
	// Second pass sees only existing groups and reuses the scratch backing.
	if table.Groups() != 4 {
		t.Fatalf("Groups() after re-map = %d, want 4", table.Groups())
	}
	if &ids2[0] != &ids[0] {
		t.Error("MapBatch did not reuse the scratch slice")
	}
}

func TestGroupTableMemSize(t *testing.T) {
	schema, b := groupTestBatch(t)
	enc, err := NewKeyEncoder(schema, "k")
	if err != nil {
		t.Fatal(err)
	}
	keySchema := MustSchema(Field{Name: "k", Type: TypeString, Nullable: true})
	table := NewGroupTable(keySchema, []int{0}, enc, 0)
	if table.MemSize() != 0 {
		t.Errorf("empty table MemSize = %d, want 0", table.MemSize())
	}
	table.MapBatch(b, nil)
	if table.MemSize() <= 0 {
		t.Errorf("populated table MemSize = %d, want > 0", table.MemSize())
	}
}

func TestBatchOfColumns(t *testing.T) {
	schema := MustSchema(
		Field{Name: "g", Type: TypeInt},
		Field{Name: "avg", Type: TypeFloat, Nullable: true},
	)
	gc := NewColumnBuilder(TypeInt, 2)
	gc.AppendInt(7)
	gc.AppendInt(8)
	ac := NewColumnBuilder(TypeFloat, 2)
	ac.AppendFloat(1.5)
	ac.AppendNull(1)
	b, err := BatchOfColumns(schema, 2, []Column{gc, ac})
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 2 {
		t.Fatalf("Len = %d, want 2", b.Len())
	}
	if v := b.Value(0, 1); v != 1.5 {
		t.Errorf("cell (0,1) = %v, want 1.5", v)
	}
	if v := b.Value(1, 1); v != nil {
		t.Errorf("cell (1,1) = %v, want nil", v)
	}
	if v := b.Value(1, 0); v != int64(8) {
		t.Errorf("cell (1,0) = %v, want 8", v)
	}

	// Type mismatches against the schema are rejected.
	if _, err := BatchOfColumns(schema, 2, []Column{ac, gc}); err == nil {
		t.Error("BatchOfColumns accepted mistyped columns")
	}
	if _, err := BatchOfColumns(schema, 2, []Column{gc}); err == nil {
		t.Error("BatchOfColumns accepted wrong column count")
	}
}
