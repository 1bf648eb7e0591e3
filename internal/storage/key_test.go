package storage

import (
	"bytes"
	"errors"
	"hash/fnv"
	"math"
	"testing"
	"testing/quick"
)

func keyTestSchema(t *testing.T) *Schema {
	t.Helper()
	return MustSchema(
		Field{Name: "id", Type: TypeInt},
		Field{Name: "name", Type: TypeString, Nullable: true},
		Field{Name: "score", Type: TypeFloat},
		Field{Name: "active", Type: TypeBool},
	)
}

func TestNewKeyEncoderUnknownColumn(t *testing.T) {
	s := keyTestSchema(t)
	if _, err := NewKeyEncoder(s, "id", "ghost"); !errors.Is(err, ErrUnknownField) {
		t.Fatalf("unknown column error = %v, want ErrUnknownField", err)
	}
	if _, err := NewKeyEncoder(nil, "id"); err == nil {
		t.Fatal("nil schema with columns must fail")
	}
	if _, err := NewKeyEncoder(nil); err == nil {
		t.Fatal("nil schema without columns must fail")
	}
}

func TestKeyEncoderInjective(t *testing.T) {
	s := keyTestSchema(t)
	enc, err := NewKeyEncoder(s, "id", "name")
	if err != nil {
		t.Fatal(err)
	}
	rows := []Row{
		{int64(1), "a", 0.5, true},
		{int64(1), "b", 0.5, true},
		{int64(2), "a", 0.5, true},
		{int64(1), nil, 0.5, true},
		{int64(1), "", 0.5, true}, // null and empty string must differ
	}
	seen := map[string]int{}
	for i, r := range rows {
		k := string(enc.Key(r))
		if j, dup := seen[k]; dup {
			t.Errorf("rows %d and %d collide on key %q", i, j, k)
		}
		seen[k] = i
	}
	// Same key columns, different non-key columns: keys must match.
	a := enc.Key(Row{int64(7), "x", 1.0, true})
	ka := append([]byte(nil), a...)
	b := enc.Key(Row{int64(7), "x", 2.0, false})
	if !bytes.Equal(ka, b) {
		t.Error("key must depend only on the key columns")
	}
}

// TestKeyEncoderTypeTagged guards the injectivity property the old
// AsString+Join rendering lacked: equal renderings of different types (e.g.
// int64(5) vs "5") must encode differently, and multi-column keys must not be
// ambiguous under concatenation.
func TestKeyEncoderTypeTagged(t *testing.T) {
	if bytes.Equal(AppendKeyValue(nil, int64(5)), AppendKeyValue(nil, "5")) {
		t.Error("int64(5) and \"5\" must encode differently")
	}
	if bytes.Equal(AppendKeyValue(nil, true), AppendKeyValue(nil, "true")) {
		t.Error("bool and string renderings must encode differently")
	}
	// ("ab","c") vs ("a","bc") — a separator-based string key would collide
	// without escaping; the length-prefixed encoding must not.
	ab := AppendKeyValue(AppendKeyValue(nil, "ab"), "c")
	a := AppendKeyValue(AppendKeyValue(nil, "a"), "bc")
	if bytes.Equal(ab, a) {
		t.Error(`("ab","c") and ("a","bc") must encode differently`)
	}
}

// TestKeyEncoderNegativeZero guards the float normalisation: -0.0 and 0.0
// are equal under Go == and CompareValues, so they must produce identical key
// bytes (and hashes) on both the row and the batch encoding paths — otherwise
// group-by/distinct/join split them into two groups while sort orders them as
// one value.
func TestKeyEncoderNegativeZero(t *testing.T) {
	negZero := math.Copysign(0, -1)
	if !bytes.Equal(AppendKeyValue(nil, negZero), AppendKeyValue(nil, 0.0)) {
		t.Error("-0.0 and 0.0 must produce identical key bytes")
	}
	// Distinct non-zero values must still be distinct.
	if bytes.Equal(AppendKeyValue(nil, -1.0), AppendKeyValue(nil, 1.0)) {
		t.Error("-1.0 and 1.0 must produce different key bytes")
	}

	s := keyTestSchema(t)
	enc, err := NewKeyEncoder(s, "score")
	if err != nil {
		t.Fatal(err)
	}
	rowNeg := Row{int64(1), "a", negZero, true}
	rowPos := Row{int64(2), "b", 0.0, false}
	kNeg := append([]byte(nil), enc.Key(rowNeg)...)
	if !bytes.Equal(kNeg, enc.Key(rowPos)) {
		t.Error("row encoder must key -0.0 and 0.0 identically")
	}
	if enc.Hash(rowNeg) != enc.Hash(rowPos) {
		t.Error("row encoder must hash -0.0 and 0.0 identically")
	}

	batch, err := BatchFromRows(s, []Row{rowNeg, rowPos})
	if err != nil {
		t.Fatal(err)
	}
	bNeg := append([]byte(nil), enc.BatchKey(batch, 0)...)
	if !bytes.Equal(bNeg, enc.BatchKey(batch, 1)) {
		t.Error("batch encoder must key -0.0 and 0.0 identically")
	}
	if !bytes.Equal(bNeg, kNeg) {
		t.Error("batch and row encodings of the key must stay byte-identical")
	}
	if enc.BatchHash(batch, 0) != enc.BatchHash(batch, 1) {
		t.Error("batch encoder must hash -0.0 and 0.0 identically")
	}
}

func TestKeyEncoderHashDeterministic(t *testing.T) {
	s := keyTestSchema(t)
	enc, err := NewKeyEncoder(s, "id", "name", "score")
	if err != nil {
		t.Fatal(err)
	}
	clone := enc.Clone()
	r := Row{int64(42), "abc", 3.25, false}
	if enc.Hash(r) != clone.Hash(r) {
		t.Error("clone must hash identically")
	}
	for _, s := range []string{"", "shuffle", "\x00\xff key"} {
		if HashBytes64([]byte(s)) != fnv64a(s) {
			t.Errorf("HashBytes64(%q) must agree with hash/fnv's FNV-1a", s)
		}
	}
}

// fnv64a is the standard library's 64-bit FNV-1a hash of s: the oracle for
// HashBytes64 and GroupTable.Hash.
func fnv64a(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

func TestKeyEncoderSteadyStateAllocFree(t *testing.T) {
	s := keyTestSchema(t)
	enc, err := NewKeyEncoder(s, "id", "name")
	if err != nil {
		t.Fatal(err)
	}
	r := Row{int64(9), "warm-up grows the buffer", 1.0, true}
	enc.Hash(r)
	allocs := testing.AllocsPerRun(100, func() { enc.Hash(r) })
	if allocs > 0 {
		t.Errorf("Hash allocates %.1f objects per row after warm-up, want 0", allocs)
	}
	seen := map[string]struct{}{string(enc.Key(r)): {}}
	allocs = testing.AllocsPerRun(100, func() {
		if _, ok := seen[string(enc.Key(r))]; !ok {
			t.Error("lookup missed")
		}
	})
	if allocs > 0 {
		t.Errorf("map lookup via string(Key) allocates %.1f objects, want 0", allocs)
	}
}

func TestPartitionOfHashProperties(t *testing.T) {
	fn := func(h uint64, n int) bool {
		if n < 0 {
			n = -n
		}
		n = n%64 + 1
		p := PartitionOfHash(h, n)
		return p >= 0 && p < n && p == PartitionOfHash(h, n)
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Error(err)
	}
	if PartitionOfHash(12345, 0) != 0 || PartitionOfHash(12345, 1) != 0 {
		t.Error("n <= 1 must map to partition 0")
	}
}
