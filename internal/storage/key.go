package storage

// key.go implements the binary key encoder used by the dataflow engine's
// shuffle machinery. Wide operators (group-by, join, distinct, sort-range
// partitioning) key every input row; rendering those keys with AsString plus
// strings.Join allocates two strings per row and dominated shuffle profiles.
// A KeyEncoder instead appends a type-tagged, self-delimiting binary encoding
// of the key columns into a reusable buffer, and can reduce it to a 64-bit
// FNV-1a hash without allocating at all.
//
// The encoding is injective: two rows produce the same bytes iff their key
// columns hold equal values of the same dynamic type. Because schemas are
// typed per column, this matches the engine's equality semantics; unlike the
// old string rendering it does not conflate int64(5) with "5" across
// differently-typed columns.

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Key encoding type tags. Each encoded value starts with its tag; fixed-width
// types follow with a fixed payload, variable-width types with a uvarint
// length prefix, which keeps the concatenation of several values
// self-delimiting (no separator byte that string keys would need escaping
// for).
const (
	keyTagNull byte = iota
	keyTagString
	keyTagInt
	keyTagFloat
	keyTagBool
	keyTagOther
)

// FNV-1a 64-bit parameters (FNV is also what HashPartition uses, in its
// 32-bit string form).
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// HashBytes64 returns the 64-bit FNV-1a hash of b.
func HashBytes64(b []byte) uint64 {
	h := fnvOffset64
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return h
}

// PartitionOfHash maps a 64-bit hash onto one of n partitions.
func PartitionOfHash(h uint64, n int) int {
	if n <= 1 {
		return 0
	}
	return int(h % uint64(n))
}

// floatKeyBits returns the bit pattern keyed for a float value. Negative zero
// is normalised to positive zero first: -0.0 == 0.0 under Go equality and
// CompareValues, but their raw Float64bits differ, and keying the raw bits
// used to split the two values into distinct groups (group-by/distinct/join)
// while sort treated them as one value. NaN deliberately stays keyed by its
// raw bits: CompareValues has no total order for NaN (it reports NaN "equal"
// to every float), so bitwise identity is the only grouping that is at least
// self-consistent.
func floatKeyBits(f float64) uint64 {
	if f == 0 {
		f = 0
	}
	return math.Float64bits(f)
}

// AppendKeyValue appends the binary key encoding of a single value to dst and
// returns the extended slice.
func AppendKeyValue(dst []byte, v Value) []byte {
	switch x := v.(type) {
	case nil:
		return append(dst, keyTagNull)
	case string:
		dst = append(dst, keyTagString)
		dst = binary.AppendUvarint(dst, uint64(len(x)))
		return append(dst, x...)
	case int64:
		dst = append(dst, keyTagInt)
		return binary.BigEndian.AppendUint64(dst, uint64(x))
	case float64:
		dst = append(dst, keyTagFloat)
		return binary.BigEndian.AppendUint64(dst, floatKeyBits(x))
	case bool:
		if x {
			return append(dst, keyTagBool, 1)
		}
		return append(dst, keyTagBool, 0)
	default:
		// Unknown dynamic types never pass ValidateRow, but keep the encoding
		// total rather than panicking on hand-built rows.
		s := fmt.Sprintf("%v", x)
		dst = append(dst, keyTagOther)
		dst = binary.AppendUvarint(dst, uint64(len(s)))
		return append(dst, s...)
	}
}

// KeyEncoder encodes a fixed set of key columns of rows sharing one schema.
// The zero value is not usable; construct with NewKeyEncoder. An encoder owns
// a reusable buffer and is NOT safe for concurrent use — clone one per task
// with Clone (clones share only the immutable column indices).
type KeyEncoder struct {
	// idx holds the key column positions.
	idx []int
	buf []byte
}

// NewKeyEncoder returns an encoder for the named columns of schema s. With no
// columns every row has the same, empty key. Unknown columns are rejected
// here, at plan/build time, instead of panicking row-by-row during execution.
func NewKeyEncoder(s *Schema, cols ...string) (*KeyEncoder, error) {
	if s == nil {
		return nil, fmt.Errorf("%w: key encoder needs a schema", ErrEmptySchema)
	}
	idx := make([]int, len(cols))
	for i, c := range cols {
		j := s.IndexOf(c)
		if j < 0 {
			return nil, fmt.Errorf("%w: key column %q not in schema %s", ErrUnknownField, c, s)
		}
		idx[i] = j
	}
	return &KeyEncoder{idx: idx}, nil
}

// Clone returns an encoder over the same columns with its own buffer, for use
// from another goroutine.
func (e *KeyEncoder) Clone() *KeyEncoder { return &KeyEncoder{idx: e.idx} }

// AppendKey appends the encoded key of r to dst and returns the extended
// slice.
func (e *KeyEncoder) AppendKey(dst []byte, r Row) []byte {
	for _, j := range e.idx {
		var v Value
		if j < len(r) {
			v = r[j]
		}
		dst = AppendKeyValue(dst, v)
	}
	return dst
}

// Key encodes the key of r into the encoder's reusable buffer. The returned
// slice is only valid until the next Key/Hash call; callers that retain it
// must copy (string(key) — Go map index expressions over string(key) do not
// allocate).
func (e *KeyEncoder) Key(r Row) []byte {
	e.buf = e.AppendKey(e.buf[:0], r)
	return e.buf
}

// Hash returns the 64-bit FNV-1a hash of r's encoded key, reusing the
// encoder's buffer (steady-state allocation free).
func (e *KeyEncoder) Hash(r Row) uint64 {
	return HashBytes64(e.Key(r))
}

// appendBatchValue appends the key encoding of cell (row, col) of a columnar
// batch, reading the typed vector directly. The bytes produced are identical
// to AppendKeyValue over the equivalent boxed value, so row-encoded and
// batch-encoded keys compare and hash interchangeably.
func appendBatchValue(dst []byte, b *ColumnBatch, row, col int) []byte {
	if col < 0 || col >= b.Width() {
		return append(dst, keyTagNull)
	}
	c := b.Column(col)
	if c.Null(row) {
		return append(dst, keyTagNull)
	}
	switch c.Type() {
	case TypeInt, TypeTime:
		dst = append(dst, keyTagInt)
		return binary.BigEndian.AppendUint64(dst, uint64(c.Int(row)))
	case TypeFloat:
		dst = append(dst, keyTagFloat)
		return binary.BigEndian.AppendUint64(dst, floatKeyBits(c.Float(row)))
	case TypeString:
		s := c.Str(row)
		dst = append(dst, keyTagString)
		dst = binary.AppendUvarint(dst, uint64(len(s)))
		return append(dst, s...)
	case TypeBool:
		if c.Bool(row) {
			return append(dst, keyTagBool, 1)
		}
		return append(dst, keyTagBool, 0)
	default:
		return append(dst, keyTagNull)
	}
}

// AppendBatchKey appends the encoded key of batch row i to dst, reading the
// key columns from the typed vectors without materialising a Row.
func (e *KeyEncoder) AppendBatchKey(dst []byte, b *ColumnBatch, i int) []byte {
	for _, col := range e.idx {
		dst = appendBatchValue(dst, b, i, col)
	}
	return dst
}

// BatchKey encodes the key of batch row i into the encoder's reusable buffer.
// Like Key, the returned slice is only valid until the next Key/Hash call.
func (e *KeyEncoder) BatchKey(b *ColumnBatch, i int) []byte {
	e.buf = e.AppendBatchKey(e.buf[:0], b, i)
	return e.buf
}

// BatchHash returns the 64-bit FNV-1a hash of batch row i's encoded key,
// reusing the encoder's buffer.
func (e *KeyEncoder) BatchHash(b *ColumnBatch, i int) uint64 {
	return HashBytes64(e.BatchKey(b, i))
}
