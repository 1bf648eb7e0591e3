package storage

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// keyFuzzTypes are the column types FuzzKeyTable keys on.
var keyFuzzTypes = []FieldType{TypeInt, TypeTime, TypeFloat, TypeString, TypeBool}

// keyFuzzValue draws a cell of type t from a small pool, so that keys repeat
// within a batch and across the build and probe sides: nulls, -0 and +0,
// NaNs with different payloads, the empty string, ints equal to times.
// With nulls false it draws no null.
func keyFuzzValue(rng *rand.Rand, t FieldType, nulls bool) Value {
	if nulls && rng.Intn(5) == 0 {
		return nil
	}
	switch t {
	case TypeInt, TypeTime:
		return []int64{0, 1, -1, 7, math.MaxInt64}[rng.Intn(5)]
	case TypeFloat:
		return []float64{
			0, math.Copysign(0, -1), 1, -1, 2.5,
			math.NaN(),
			math.Float64frombits(0x7ff8000000000001),
			math.Float64frombits(0xfff8000000000002),
		}[rng.Intn(8)]
	case TypeString:
		return []string{"", "a", "b", "ab", "\x00", "a\x00b"}[rng.Intn(6)]
	default:
		return rng.Intn(2) == 0
	}
}

// keyFuzzBatch builds a batch of n rows whose key columns have the given
// types, with one non-key column in front of them, so the key columns do not
// start at index 0. It returns the batch, its key column names and indices.
func keyFuzzBatch(t *testing.T, rng *rand.Rand, types []FieldType, n int, nulls bool) (*ColumnBatch, []string, []int) {
	t.Helper()
	fields := []Field{{Name: "pad", Type: TypeInt}}
	var names []string
	var idx []int
	for c, typ := range types {
		name := fmt.Sprintf("k%d", c)
		fields = append(fields, Field{Name: name, Type: typ, Nullable: true})
		names = append(names, name)
		idx = append(idx, c+1)
	}
	schema := MustSchema(fields...)
	rows := make([]Row, n)
	for i := range rows {
		r := Row{int64(i)}
		for _, typ := range types {
			r = append(r, keyFuzzValue(rng, typ, nulls))
		}
		rows[i] = r
	}
	b, err := BatchFromRows(schema, rows)
	if err != nil {
		t.Fatal(err)
	}
	return b, names, idx
}

func keyFuzzEncoder(t *testing.T, b *ColumnBatch, names []string) *KeyEncoder {
	t.Helper()
	enc, err := NewKeyEncoder(b.Schema(), names...)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// denseIDs is the oracle: first-seen dense ids over the encoded key bytes.
type denseIDs struct {
	ids  map[string]int32
	keys [][]byte
}

func (d *denseIDs) id(k []byte) int32 {
	if id, ok := d.ids[string(k)]; ok {
		return id
	}
	id := int32(len(d.keys))
	d.ids[string(k)] = id
	d.keys = append(d.keys, append([]byte(nil), k...))
	return id
}

// FuzzKeyTable holds the typed key table to the byte encoding it replaced:
// over random batches of one to three key columns, GroupTable's ids are the
// dense first-seen ids of a map over AppendBatchKey bytes and its hashes the
// FNV-1a hashes of those bytes, and a JoinTable probe returns exactly the
// build rows with equal bytes, in build-row order. A forced-collision arm
// gives every row the same hash, so only the typed comparison separates
// keys.
func FuzzKeyTable(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 42, 99} {
		f.Add(seed, uint16(64), uint8(seed))
	}
	f.Add(int64(7), uint16(0), uint8(0))
	f.Add(int64(8), uint16(1000), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, rows uint16, shape uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := int(rows) % 600
		types := make([]FieldType, 1+int(shape)%3)
		for c := range types {
			types[c] = keyFuzzTypes[rng.Intn(len(keyFuzzTypes))]
		}
		// One shape in four has no nulls, so that a decoded single string key
		// takes the dictionary code cache below.
		b, names, idx := keyFuzzBatch(t, rng, types, n, shape&24 != 0)
		enc := keyFuzzEncoder(t, b, names)
		keyFields := make([]Field, len(types))
		for c, typ := range types {
			keyFields[c] = Field{Name: names[c], Type: typ, Nullable: true}
		}
		keySchema := MustSchema(keyFields...)
		keyEnc := keyFuzzEncoder(t, NewColumnBatch(keySchema, 0), names)

		oracle := &denseIDs{ids: map[string]int32{}}
		want := make([]int32, n)
		keyBytes := make([][]byte, n)
		for i := range want {
			keyBytes[i] = enc.AppendBatchKey(nil, b, i)
			want[i] = oracle.id(keyBytes[i])
			if got, w := enc.BatchHash(b, i), HashBytes64(keyBytes[i]); got != w {
				t.Fatalf("row %d: BatchHash %#x, want %#x", i, got, w)
			}
		}

		// GroupTable, mapped in random sub-ranges, then once more whole
		// (every key already seen).
		hint := 0
		if shape&4 != 0 {
			hint = n
		}
		table := NewGroupTable(keySchema, idx, enc, hint)
		var got []int32
		var scratch []int32
		for lo := 0; lo < n; {
			hi := min(n, lo+1+rng.Intn(300))
			scratch = table.MapRange(b, lo, hi, scratch)
			got = append(got, scratch...)
			lo = hi
		}
		if !slices.Equal(got, want) {
			t.Fatalf("group ids %v, want %v", got, want)
		}
		if again := table.MapBatch(b, nil); !slices.Equal(again, want) {
			t.Fatalf("re-mapped group ids %v, want %v", again, want)
		}
		if table.Groups() != len(oracle.keys) {
			t.Fatalf("Groups() = %d, want %d", table.Groups(), len(oracle.keys))
		}
		for g, k := range oracle.keys {
			if h := table.Hash(g); h != HashBytes64(k) {
				t.Fatalf("group %d: Hash %#x, want %#x", g, h, HashBytes64(k))
			}
			if kr := keyEnc.AppendBatchKey(nil, table.KeyRows(), g); !bytes.Equal(kr, k) {
				t.Fatalf("group %d: key row encodes to %x, want %x", g, kr, k)
			}
		}

		// A dictionary-backed copy of the batch (a decoded spill frame) takes
		// the code-cache path when its one key column is a null-free string.
		dec, err := DecodeBatch(b.Schema(), EncodeBatchOpts(nil, b, CodecOptions{Compress: true}))
		if err != nil {
			t.Fatal(err)
		}
		if ids := NewGroupTable(keySchema, idx, enc, 0).MapBatch(dec, nil); !slices.Equal(ids, want) {
			t.Fatalf("decoded-frame group ids %v, want %v", ids, want)
		}

		// Forced collisions: one hash for every key.
		const collide = 0x9e3779b97f4a7c15
		kt := newKeyTable(keySchema, 0)
		for i := 0; i < n; i++ {
			if id := kt.findOrInsert(b, idx, i, collide); id != want[i] {
				t.Fatalf("colliding insert row %d: id %d, want %d", i, id, want[i])
			}
		}
		for i := 0; i < n; i++ {
			if id := kt.find(b, idx, i, collide); id != want[i] {
				t.Fatalf("colliding find row %d: id %d, want %d", i, id, want[i])
			}
		}

		// Join: a probe side whose key columns are of the build side's type
		// or another one (int meets time, float, string...).
		probeTypes := slices.Clone(types)
		for c := range probeTypes {
			if rng.Intn(3) == 0 {
				probeTypes[c] = keyFuzzTypes[rng.Intn(len(keyFuzzTypes))]
			}
		}
		p, pNames, pIdx := keyFuzzBatch(t, rng, probeTypes, rng.Intn(200), true)
		pEnc := keyFuzzEncoder(t, p, pNames)
		wantRows := make([][]int32, p.Len())
		for i := range wantRows {
			k := pEnc.AppendBatchKey(nil, p, i)
			for j := 0; j < n; j++ {
				if bytes.Equal(k, keyBytes[j]) {
					wantRows[i] = append(wantRows[i], int32(j))
				}
			}
		}
		check := func(arm string, jt *JoinTable, ids []int32) {
			t.Helper()
			if len(ids) != p.Len() {
				t.Fatalf("%s: %d probe ids for %d rows", arm, len(ids), p.Len())
			}
			for i, g := range ids {
				var rows []int32
				if g >= 0 {
					rows = jt.Rows(g)
				}
				if len(rows) == 0 && len(wantRows[i]) == 0 {
					continue
				}
				if !slices.Equal(rows, wantRows[i]) {
					t.Fatalf("%s: probe row %d matched build rows %v, want %v", arm, i, rows, wantRows[i])
				}
			}
		}
		jt := NewJoinTable(b, enc)
		check("hashed", jt, jt.Probe(p, pEnc, nil))
		same := make([]uint64, max(n, p.Len()))
		for i := range same {
			same[i] = collide
		}
		cjt := newJoinTable(b, idx, same[:n])
		check("colliding", cjt, cjt.probe(p, pIdx, 0, same[:p.Len()], nil))
	})
}
