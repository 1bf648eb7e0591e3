package storage

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// tableFuzzSchema has one column of every type, all nullable but the first.
var tableFuzzSchema = MustSchema(
	Field{Name: "id", Type: TypeInt},
	Field{Name: "n", Type: TypeInt, Nullable: true},
	Field{Name: "x", Type: TypeFloat, Nullable: true},
	Field{Name: "s", Type: TypeString, Nullable: true},
	Field{Name: "b", Type: TypeBool, Nullable: true},
	Field{Name: "t", Type: TypeTime, Nullable: true},
)

// tableFuzzRow draws a valid row of tableFuzzSchema: small value domains so
// hash keys repeat, a null in about one nullable cell in five, and floats
// that include -0.0, NaN and the infinities.
func tableFuzzRow(rng *rand.Rand, id int64) Row {
	floats := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 1.5, -2}
	r := Row{
		id,
		int64(rng.Intn(7) - 3),
		floats[rng.Intn(len(floats))],
		[]string{"", "a", "b", "ab"}[rng.Intn(4)],
		rng.Intn(2) == 0,
		int64(1_700_000_000_000 + rng.Intn(5)),
	}
	for c := 1; c < len(r); c++ {
		if rng.Intn(5) == 0 {
			r[c] = nil
		}
	}
	return r
}

// sameCell compares two boxed cells by dynamic type and value, floats by
// their bits (so NaN equals NaN and -0.0 differs from 0.0).
func sameCell(a, b Value) bool {
	fa, aok := a.(float64)
	fb, bok := b.(float64)
	if aok || bok {
		return aok && bok && math.Float64bits(fa) == math.Float64bits(fb)
	}
	return a == b
}

// sameRows reports the first difference between got and want, or "".
func sameRows(got, want []Row) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if len(got[i]) != len(want[i]) {
			return fmt.Sprintf("row %d has %d cells, want %d", i, len(got[i]), len(want[i]))
		}
		for c := range got[i] {
			if !sameCell(got[i][c], want[i][c]) {
				return fmt.Sprintf("row %d cell %d = %#v, want %#v", i, c, got[i][c], want[i][c])
			}
		}
	}
	return ""
}

// FuzzTableBatches drives a Table with a random mix of row appends (some of
// them invalid), batch appends and snapshots over 1 to 8 partitions, keyed on
// any column or round robin. After every step, Partition, Rows, Scan, NumRows
// and the boxed batches of every earlier snapshot must equal a plain [][]Row
// model that routes each appended row as row Append documents: round robin,
// or HashPartition of the key cell.
func FuzzTableBatches(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(40))
	f.Add(int64(2), uint8(3), uint8(60))
	f.Add(int64(3), uint8(0x2f), uint8(80))
	f.Add(int64(4), uint8(0x57), uint8(100))
	f.Fuzz(func(t *testing.T, seed int64, shape, steps uint8) {
		rng := rand.New(rand.NewSource(seed))
		parts := 1 + int(shape&7)
		opts := []TableOption{WithPartitions(parts)}
		key := -1
		if shape&8 != 0 {
			key = int(shape>>4) % tableFuzzSchema.Len()
			opts = append(opts, WithPartitionKey(tableFuzzSchema.Field(key).Name))
		}
		tbl, err := NewTable("fuzz", tableFuzzSchema, opts...)
		if err != nil {
			t.Fatal(err)
		}

		model := make([][]Row, parts)
		rr := 0
		add := func(r Row) {
			p := rr
			if key >= 0 {
				p = HashPartition(r[key], parts)
			} else {
				rr = (rr + 1) % parts
			}
			model[p] = append(model[p], r)
		}
		type snapshot struct {
			batches []*ColumnBatch
			want    [][]Row
		}
		var snaps []snapshot
		var id int64

		for step := 0; step < int(steps); step++ {
			switch op := rng.Intn(8); {
			case op < 3:
				r := tableFuzzRow(rng, id)
				id++
				if err := tbl.Append(r); err != nil {
					t.Fatalf("step %d: Append: %v", step, err)
				}
				add(r)
			case op == 3:
				// An invalid row (a null id or a cell of the wrong type) or a
				// batch over another schema: rejected, the table unchanged.
				r := tableFuzzRow(rng, id)
				switch rng.Intn(3) {
				case 0:
					r[0] = nil
				case 1:
					r[1+rng.Intn(len(r)-1)] = struct{}{}
				default:
					b, err := BatchFromRows(MustSchema(Field{Name: "id", Type: TypeInt}), []Row{{id}})
					if err != nil {
						t.Fatal(err)
					}
					if err := tbl.AppendBatch(b); err == nil {
						t.Fatalf("step %d: AppendBatch accepted a batch over another schema", step)
					}
					r = nil
				}
				if r != nil && tbl.Append(r) == nil {
					t.Fatalf("step %d: Append accepted invalid row %#v", step, r)
				}
			case op < 6:
				rows := make([]Row, rng.Intn(20))
				for i := range rows {
					rows[i] = tableFuzzRow(rng, id)
					id++
				}
				b, err := BatchFromRows(tableFuzzSchema, rows)
				if err != nil {
					t.Fatal(err)
				}
				if err := tbl.AppendBatch(b); err != nil {
					t.Fatalf("step %d: AppendBatch: %v", step, err)
				}
				for _, r := range rows {
					add(r)
				}
			default:
				want := make([][]Row, parts)
				for p := range model {
					want[p] = append([]Row(nil), model[p]...)
				}
				snaps = append(snaps, snapshot{tbl.Snapshot(), want})
			}

			var all []Row
			for p := 0; p < parts; p++ {
				got, err := tbl.Partition(p)
				if err != nil {
					t.Fatal(err)
				}
				if d := sameRows(got, model[p]); d != "" {
					t.Fatalf("step %d: Partition(%d): %s", step, p, d)
				}
				all = append(all, model[p]...)
			}
			if n := tbl.NumRows(); n != len(all) {
				t.Fatalf("step %d: NumRows = %d, want %d", step, n, len(all))
			}
			if d := sameRows(tbl.Rows(), all); d != "" {
				t.Fatalf("step %d: Rows: %s", step, d)
			}
			var scanned []Row
			tbl.Scan(func(r Row) bool { scanned = append(scanned, r); return true })
			if d := sameRows(scanned, all); d != "" {
				t.Fatalf("step %d: Scan: %s", step, d)
			}
			for s, snap := range snaps {
				if len(snap.batches) != parts {
					t.Fatalf("step %d: snapshot %d has %d batches, want %d", step, s, len(snap.batches), parts)
				}
				for p, b := range snap.batches {
					if err := ValidateBatch(b); err != nil {
						t.Fatalf("step %d: snapshot %d partition %d: %v", step, s, p, err)
					}
					if d := sameRows(b.Rows(), snap.want[p]); d != "" {
						t.Fatalf("step %d: snapshot %d partition %d: %s", step, s, p, d)
					}
				}
			}
		}
	})
}
