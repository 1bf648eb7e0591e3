package storage

// frame_oracle_test.go keeps the batch encoder as it was before FrameEncoder:
// it builds every column's raw payload next to its compact one and keeps the
// shorter, allocating its dictionary and scratch per column. It is the oracle
// FuzzFrameEncoderRange holds the encoder's bytes to.

import (
	"encoding/binary"
	"math"
	"sort"
)

func naiveEncodeBatchOpts(dst []byte, b *ColumnBatch, opts CodecOptions) []byte {
	if !opts.Compress || b.n > maxFrameRows {
		return naiveEncodeBatch(dst, b)
	}
	dst = append(dst, batchMagic, batchVersion2, 0)
	return naiveFrameBody(dst, b)
}

// naiveFrameBody appends the v2 body: row/column counts then each column as
// a (type, encoding, payload-length, payload) record.
func naiveFrameBody(dst []byte, b *ColumnBatch) []byte {
	dst = binary.AppendUvarint(dst, uint64(b.n))
	dst = binary.AppendUvarint(dst, uint64(len(b.cols)))
	var scratch, raw []byte
	for c := range b.cols {
		col := &b.cols[c]
		enc := encRaw
		scratch = naiveNullSection(scratch[:0], col, b.n)
		switch col.typ {
		case TypeInt, TypeTime:
			raw = naiveRawValues(raw[:0], col, b.n)
			mark := len(scratch)
			scratch = naiveDeltaInts(scratch, col.ints[:b.n])
			if len(scratch)-mark < len(raw) {
				enc = encDelta
			} else {
				scratch = append(scratch[:mark], raw...)
			}
		case TypeString:
			raw = naiveRawValues(raw[:0], col, b.n)
			mark := len(scratch)
			scratch = naiveDictStrings(scratch, col.strs[:b.n])
			if len(scratch)-mark < len(raw) {
				enc = encDict
			} else {
				scratch = append(scratch[:mark], raw...)
			}
		case TypeBool:
			raw = naiveRawValues(raw[:0], col, b.n)
			mark := len(scratch)
			scratch = naiveRLEBools(scratch, col.bools[:b.n])
			if len(scratch)-mark < len(raw) {
				enc = encRLE
			} else {
				scratch = append(scratch[:mark], raw...)
			}
		default: // floats (and anything future) stay raw
			scratch = naiveRawValues(scratch, col, b.n)
		}
		dst = append(dst, byte(col.typ), enc)
		dst = binary.AppendUvarint(dst, uint64(len(scratch)))
		dst = append(dst, scratch...)
	}
	return dst
}

// naiveNullSection encodes col's null bitmap over rows [0, n) in whichever
// of the raw/RLE forms is smaller (or a single mode byte when the column has
// no nulls in range).
func naiveNullSection(dst []byte, col *Column, n int) []byte {
	words := (n + 63) / 64
	if words > len(col.nulls) {
		words = len(col.nulls)
	}
	// Mask stray bits past n (Head views share a longer parent bitmap) and
	// drop trailing all-zero words so an effectively null-free column costs
	// one byte.
	masked := make(nullBitmap, words)
	for w := 0; w < words; w++ {
		word := col.nulls[w]
		if hi := n - w*64; hi < 64 {
			word &= (1 << uint(hi)) - 1
		}
		masked[w] = word
	}
	for len(masked) > 0 && masked[len(masked)-1] == 0 {
		masked = masked[:len(masked)-1]
	}
	if len(masked) == 0 {
		return append(dst, nullsNone)
	}
	var raw []byte
	raw = binary.AppendUvarint(raw, uint64(len(masked)))
	for _, w := range masked {
		raw = binary.LittleEndian.AppendUint64(raw, w)
	}
	// RLE over row status: alternating run lengths, first run non-null.
	var runs []byte
	nRuns := 0
	i := 0
	for i < n {
		status := masked.get(i)
		j := i
		for j < n && masked.get(j) == status {
			j++
		}
		if nRuns == 0 && status {
			// First run must be non-null by convention; emit a zero-length
			// non-null run ahead of a leading null run.
			runs = binary.AppendUvarint(runs, 0)
			nRuns++
		}
		runs = binary.AppendUvarint(runs, uint64(j-i))
		nRuns++
		i = j
	}
	var rle []byte
	rle = binary.AppendUvarint(rle, uint64(nRuns))
	rle = append(rle, runs...)
	if len(rle) < len(raw) {
		dst = append(dst, nullsRLE)
		return append(dst, rle...)
	}
	dst = append(dst, nullsRaw)
	return append(dst, raw...)
}

// naiveRawValues encodes col's value vector exactly as v1 does (spill.go's
// value layout), without the null bitmap prefix.
func naiveRawValues(dst []byte, col *Column, n int) []byte {
	switch col.typ {
	case TypeInt, TypeTime:
		for i := 0; i < n; i++ {
			dst = binary.BigEndian.AppendUint64(dst, uint64(col.ints[i]))
		}
	case TypeFloat:
		for i := 0; i < n; i++ {
			dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(col.floats[i]))
		}
	case TypeBool:
		packed := make([]byte, (n+7)/8)
		for i := 0; i < n; i++ {
			if col.bools[i] {
				packed[i>>3] |= 1 << uint(i&7)
			}
		}
		dst = append(dst, packed...)
	case TypeString:
		for i := 0; i < n; i++ {
			dst = binary.AppendUvarint(dst, uint64(len(col.strs[i])))
			dst = append(dst, col.strs[i]...)
		}
	}
	return dst
}

// naiveDeltaInts encodes vals as zig-zag varints of the first value and each
// successive delta.
func naiveDeltaInts(dst []byte, vals []int64) []byte {
	prev := int64(0)
	for _, v := range vals {
		dst = binary.AppendUvarint(dst, zigzag(v-prev))
		prev = v
	}
	return dst
}

// naiveDictStrings encodes vals as a sorted unique-value dictionary followed
// by one uvarint code per row. Sorting makes the encoding deterministic and
// gives decoded frames the sorted-dictionary invariant the code-based
// operator fast paths rely on.
func naiveDictStrings(dst []byte, vals []string) []byte {
	uniq := make(map[string]uint32, len(vals)/4+1)
	for _, s := range vals {
		if _, ok := uniq[s]; !ok {
			uniq[s] = 0
		}
	}
	dict := make([]string, 0, len(uniq))
	for s := range uniq {
		dict = append(dict, s)
	}
	sort.Strings(dict)
	for i, s := range dict {
		uniq[s] = uint32(i)
	}
	dst = binary.AppendUvarint(dst, uint64(len(dict)))
	for _, s := range dict {
		dst = binary.AppendUvarint(dst, uint64(len(s)))
		dst = append(dst, s...)
	}
	for _, s := range vals {
		dst = binary.AppendUvarint(dst, uint64(uniq[s]))
	}
	return dst
}

// naiveRLEBools encodes vals as a first-value byte plus alternating run
// lengths.
func naiveRLEBools(dst []byte, vals []bool) []byte {
	var first byte
	if len(vals) > 0 && vals[0] {
		first = 1
	}
	var runs []byte
	nRuns := 0
	i := 0
	for i < len(vals) {
		j := i
		for j < len(vals) && vals[j] == vals[i] {
			j++
		}
		runs = binary.AppendUvarint(runs, uint64(j-i))
		nRuns++
		i = j
	}
	dst = append(dst, first)
	dst = binary.AppendUvarint(dst, uint64(nRuns))
	return append(dst, runs...)
}

// naiveEncodeBatch is the v1 encoder.
func naiveEncodeBatch(dst []byte, b *ColumnBatch) []byte {
	dst = append(dst, batchMagic, batchVersion)
	dst = binary.AppendUvarint(dst, uint64(b.n))
	dst = binary.AppendUvarint(dst, uint64(len(b.cols)))
	var payload []byte
	for c := range b.cols {
		col := &b.cols[c]
		payload = naiveColumnPayload(payload[:0], col, b.n)
		dst = append(dst, byte(col.typ))
		dst = binary.AppendUvarint(dst, uint64(len(payload)))
		dst = append(dst, payload...)
	}
	return dst
}

// naiveColumnPayload encodes the first n rows of col (vectors may be longer
// than n for Head views, which share parent storage).
func naiveColumnPayload(dst []byte, col *Column, n int) []byte {
	// Null bitmap: only the words covering rows [0,n), with stray bits past n
	// in the last word masked off (a Head view shares its parent's bitmap).
	words := (n + 63) / 64
	if words > len(col.nulls) {
		words = len(col.nulls)
	}
	dst = binary.AppendUvarint(dst, uint64(words))
	for w := 0; w < words; w++ {
		word := col.nulls[w]
		if hi := n - w*64; hi < 64 {
			word &= (1 << uint(hi)) - 1
		}
		dst = binary.LittleEndian.AppendUint64(dst, word)
	}
	switch col.typ {
	case TypeInt, TypeTime:
		for i := 0; i < n; i++ {
			dst = binary.BigEndian.AppendUint64(dst, uint64(col.ints[i]))
		}
	case TypeFloat:
		for i := 0; i < n; i++ {
			dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(col.floats[i]))
		}
	case TypeBool:
		packed := make([]byte, (n+7)/8)
		for i := 0; i < n; i++ {
			if col.bools[i] {
				packed[i>>3] |= 1 << uint(i&7)
			}
		}
		dst = append(dst, packed...)
	case TypeString:
		for i := 0; i < n; i++ {
			dst = binary.AppendUvarint(dst, uint64(len(col.strs[i])))
			dst = append(dst, col.strs[i]...)
		}
	}
	return dst
}
