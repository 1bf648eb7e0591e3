package storage

// key.go defines the engine's key encoding and key hash. A key is the
// concatenation of a type-tagged, self-delimiting binary encoding of each key
// column's value; two rows have equal keys iff their key columns hold equal
// values of the same key type. The hash of a key is the 64-bit FNV-1a hash
// of those bytes. The shuffles partition by it (PartitionOfHash), and the
// group and join tables keep it per key and place keys in slots by it
// (mix64).
//
// The engine never builds the bytes on its hot paths: FNV-1a is a byte-stream
// fold, so BatchHash and BatchHashes fold each cell's tag, length prefix and
// payload straight into the running state, column by column, and produce the
// hash of the bytes AppendBatchKey would have written. Key equality is
// decided on the typed cells (keyCellsEqual) under the same rule the bytes
// express. The byte encoding itself (Key, BatchKey, AppendBatchKey) remains
// as the definition the tests hold the folds and the tables to, and for the
// row-mode callers that key boxed rows.
//
// Because schemas are typed per column, the encoding matches the engine's
// equality semantics; unlike a string rendering it does not conflate
// int64(5) with "5" across differently-typed columns.

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

// mix64 runs h through a 64-bit avalanche mixer (the Murmur3 finalizer), so
// that every input bit reaches every output bit. The raw low bits of a key
// hash already chose its shuffle bucket (PartitionOfHash is h % n), and
// FNV-1a barely stirs the bits above 32 for short keys: anything else that
// splits keys by hash (the hash-table slots) mixes first.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// fnvByte folds one byte into an FNV-1a state.
func fnvByte(h uint64, c byte) uint64 {
	return (h ^ uint64(c)) * fnvPrime64
}

// fnvUint64 folds v's eight big-endian bytes into an FNV-1a state.
func fnvUint64(h, v uint64) uint64 {
	h = (h ^ v>>56) * fnvPrime64
	h = (h ^ v>>48&0xff) * fnvPrime64
	h = (h ^ v>>40&0xff) * fnvPrime64
	h = (h ^ v>>32&0xff) * fnvPrime64
	h = (h ^ v>>24&0xff) * fnvPrime64
	h = (h ^ v>>16&0xff) * fnvPrime64
	h = (h ^ v>>8&0xff) * fnvPrime64
	return (h ^ v&0xff) * fnvPrime64
}

// fnvString folds s's uvarint length prefix and bytes into an FNV-1a state.
func fnvString(h uint64, s string) uint64 {
	x := uint64(len(s))
	for x >= 0x80 {
		h = fnvByte(h, byte(x)|0x80)
		x >>= 7
	}
	h = fnvByte(h, byte(x))
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}

// keyTag returns the key type tag of a non-null cell of a column of type t:
// time keys like int, and a column of no key type keys every cell as null,
// as appendBatchValue does.
func keyTag(t FieldType) byte {
	switch t {
	case TypeInt, TypeTime:
		return keyTagInt
	case TypeFloat:
		return keyTagFloat
	case TypeString:
		return keyTagString
	case TypeBool:
		return keyTagBool
	default:
		return keyTagNull
	}
}

// cellTag returns the key type tag of cell i of c.
func cellTag(c *Column, i int) byte {
	if c.nulls.get(i) {
		return keyTagNull
	}
	return keyTag(c.typ)
}

// foldCell folds the key encoding of cell i of c into an FNV-1a state: the
// hash of appendBatchValue's bytes, without writing them.
func foldCell(h uint64, c *Column, i int) uint64 {
	tag := cellTag(c, i)
	h = fnvByte(h, tag)
	switch tag {
	case keyTagInt:
		return fnvUint64(h, uint64(c.ints[i]))
	case keyTagFloat:
		return fnvUint64(h, floatKeyBits(c.floats[i]))
	case keyTagString:
		return fnvString(h, c.strs[i])
	case keyTagBool:
		if c.bools[i] {
			return fnvByte(h, 1)
		}
		return fnvByte(h, 0)
	default:
		return h
	}
}

// foldColumn folds column col of b, rows [lo, lo+len(hs)), into hs, one
// state per row. The type dispatch runs once per column; columns with nulls
// take the per-cell fold.
func foldColumn(hs []uint64, b *ColumnBatch, col, lo int) {
	if col < 0 || col >= len(b.cols) {
		for j := range hs {
			hs[j] = fnvByte(hs[j], keyTagNull)
		}
		return
	}
	c := &b.cols[col]
	tag := keyTag(c.typ)
	if len(c.nulls) > 0 || tag == keyTagNull {
		for j := range hs {
			hs[j] = foldCell(hs[j], c, lo+j)
		}
		return
	}
	switch tag {
	case keyTagInt:
		for j, v := range c.ints[lo : lo+len(hs)] {
			hs[j] = fnvUint64(fnvByte(hs[j], keyTagInt), uint64(v))
		}
	case keyTagFloat:
		for j, v := range c.floats[lo : lo+len(hs)] {
			hs[j] = fnvUint64(fnvByte(hs[j], keyTagFloat), floatKeyBits(v))
		}
	case keyTagString:
		for j, v := range c.strs[lo : lo+len(hs)] {
			hs[j] = fnvString(fnvByte(hs[j], keyTagString), v)
		}
	case keyTagBool:
		for j, v := range c.bools[lo : lo+len(hs)] {
			var x byte
			if v {
				x = 1
			}
			hs[j] = fnvByte(fnvByte(hs[j], keyTagBool), x)
		}
	}
}

// keyCellsEqual reports whether cell i of a and cell j of k encode to the
// same key bytes: both null; or the same key type and value, where time
// equals int, -0 equals +0, a NaN equals only a NaN of the same bits, and an
// int never equals a float.
func keyCellsEqual(a *Column, i int, k *Column, j int) bool {
	tag := cellTag(a, i)
	if tag != cellTag(k, j) {
		return false
	}
	switch tag {
	case keyTagInt:
		return a.ints[i] == k.ints[j]
	case keyTagFloat:
		return floatKeyBits(a.floats[i]) == floatKeyBits(k.floats[j])
	case keyTagString:
		return a.strs[i] == k.strs[j]
	case keyTagBool:
		return a.bools[i] == k.bools[j]
	default:
		return true
	}
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

// KeyEncoder encodes and hashes a fixed set of key columns of rows sharing
// one schema. The zero value is not usable; construct with NewKeyEncoder.
// Key and BatchKey write into a reusable buffer and are NOT safe for
// concurrent use (clone one per goroutine with Clone, which shares only the
// immutable column indices); the batch hash methods write no encoder state
// and may be called from any number of goroutines.
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
// folded cell by cell without encoding it.
func (e *KeyEncoder) BatchHash(b *ColumnBatch, i int) uint64 {
	h := fnvOffset64
	for _, col := range e.idx {
		if col < 0 || col >= len(b.cols) {
			h = fnvByte(h, keyTagNull)
			continue
		}
		h = foldCell(h, &b.cols[col], i)
	}
	return h
}

// BatchPartitions writes the shuffle partition of every row i of b,
// PartitionOfHash(BatchHash(b, i), n), into parts (len(parts) == b.Len()),
// hashing a chunk of rows at a time.
func (e *KeyEncoder) BatchPartitions(b *ColumnBatch, n int, parts []int32) {
	var hs [hashChunkRows]uint64
	for lo := 0; lo < len(parts); lo += len(hs) {
		chunk := hs[:min(len(parts)-lo, len(hs))]
		e.BatchHashes(b, lo, chunk)
		for j, h := range chunk {
			parts[lo+j] = int32(PartitionOfHash(h, n))
		}
	}
}

// BatchHashes writes BatchHash of rows [lo, lo+len(hs)) of b into hs,
// folding the key columns one after the other over the whole range.
func (e *KeyEncoder) BatchHashes(b *ColumnBatch, lo int, hs []uint64) {
	for j := range hs {
		hs[j] = fnvOffset64
	}
	for _, col := range e.idx {
		foldColumn(hs, b, col, lo)
	}
}
