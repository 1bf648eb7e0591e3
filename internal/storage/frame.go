package storage

// frame.go implements version 2 of the batch codec: compressed spill frames.
// Where the v1 layout (spill.go) writes fixed 8-byte ints/floats and full
// length-prefixed strings per row, v2 picks a lightweight per-column encoding
// and falls back to the raw v1 payload whenever the encoding does not win:
//
//   - string columns dictionary-encode: a sorted unique-value dictionary per
//     frame followed by one uvarint code per row. Because the dictionary is
//     sorted, code order equals string order and code equality equals string
//     equality within the frame, which is what lets the dataflow layer run
//     group-by/distinct/sort fast paths directly on codes (batch.go keeps the
//     dictionary and codes on the decoded Column);
//   - int/time columns delta-encode: zig-zag varints of the first value and
//     the successive differences, so sorted ids and timestamps shrink to a
//     byte or two per row;
//   - bool columns and null bitmaps run-length encode;
//   - float columns stay raw (IEEE-754 bit exactness is the codec contract
//     and floats rarely compress without loss).
//
// A v2 frame's header carries a flags byte after the version; no flag is
// defined, so it is always zero and DecodeBatch rejects any other value.
// DecodeBatch (spill.go) dispatches on the version byte, so v1 frames written
// by older spill files still decode.
//
// One encoder writes every frame of both versions: FrameEncoder encodes rows
// [lo, hi) of a batch, so callers encode spans of the batches they hold
// instead of copying rows into per-frame batches first. EncodeBatch and
// EncodeBatchOpts are that encoder over [0, n). It decides each column's
// encoding from computed lengths, builds only the winner, and reuses its
// scratch buffers and dictionary map from frame to frame.
//
// Every encoding decision is deterministic (sorted dictionaries, fixed
// tie-breaks), so re-encoding identical batches yields identical bytes — the
// property the aggregation spill tests rely on.

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// batchVersion2 is the compressed-frame codec version.
const batchVersion2 byte = 2

// Column encoding tags (v2). encRaw payloads use the exact v1 value layout.
const (
	encRaw   byte = 0
	encDict  byte = 1 // strings: sorted dictionary + per-row codes
	encDelta byte = 2 // ints/times: zig-zag varint first value + deltas
	encRLE   byte = 3 // bools: run-length runs
)

// Null-section modes (v2). The null bitmap is framed separately from the
// value payload so it can RLE independently of the value encoding.
const (
	nullsNone byte = 0
	nullsRaw  byte = 1 // uvarint words + little-endian words (v1 layout)
	nullsRLE  byte = 2 // uvarint runs + run lengths, first run non-null
)

// maxFrameRows bounds the row count a v2 frame may declare. The run-length
// and dictionary encodings decouple payload size from row count, so without a
// bound a corrupt frame could declare an absurd row count and drive a huge
// allocation before any per-row data is read. Encoders fall back to v1 (whose
// row count is naturally bounded by payload bytes) for batches past the
// bound; real spill frames are orders of magnitude smaller.
const maxFrameRows = 1 << 24

// CodecOptions selects the batch codec a writer (a spill store, the table
// store's segments) encodes with. The zero value is the v1 raw codec;
// Compress selects the v2 column encodings.
type CodecOptions struct {
	// Compress enables the v2 per-column encodings (dictionary strings,
	// delta ints, RLE bools/null bitmaps, raw fallback).
	Compress bool
}

// EncodeBatchOpts appends the encoding of b under the given codec options:
// the v1 layout when opts.Compress is unset (or the batch is too large for a
// v2 frame), the v2 compressed-frame layout otherwise. DecodeBatch accepts
// either, so readers need no options.
func EncodeBatchOpts(dst []byte, b *ColumnBatch, opts CodecOptions) []byte {
	var e FrameEncoder
	return e.Encode(dst, b, 0, b.n, opts)
}

// FrameEncoder encodes row ranges of column batches as codec frames. It is
// the one encoder behind EncodeBatch, EncodeBatchOpts, the spill store and
// the table store's segments. It keeps its scratch state (the range's null
// words, the dictionary map, the dictionary and its codes) between calls, so
// encoding a stream of frames leaves no per-frame garbage. The zero value is
// ready to use; an encoder must not be used by two goroutines at once.
type FrameEncoder struct {
	nulls  []uint64          // one column's null words over the range, bit 0 = row lo
	sec    []byte            // one column's v2 null section
	runs   []byte            // null-section run lengths
	ids    map[string]uint32 // string → first-seen id; cleared per column
	dict   []string          // unique strings, first-seen order until sorted
	rowIDs []uint32          // first-seen id per row
	codes  []uint32          // first-seen id → sorted dictionary code
}

// Encode appends the frame of rows [lo, hi) of b, 0 ≤ lo ≤ hi ≤ b.Len(),
// under opts. The bytes are those of encoding a copy of just those rows: the
// range's null bits are shifted to start at row lo, and cells under a null
// bit are encoded as stored (batches keep the zero value there).
func (e *FrameEncoder) Encode(dst []byte, b *ColumnBatch, lo, hi int, opts CodecOptions) []byte {
	if !opts.Compress || hi-lo > maxFrameRows {
		return e.appendV1(dst, b, lo, hi)
	}
	dst = append(dst, batchMagic, batchVersion2, 0)
	return e.appendBody(dst, b, lo, hi)
}

// appendV1 appends the v1 layout (spill.go's EncodeBatch): every column raw,
// behind its null words.
func (e *FrameEncoder) appendV1(dst []byte, b *ColumnBatch, lo, hi int) []byte {
	dst = append(dst, batchMagic, batchVersion)
	dst = binary.AppendUvarint(dst, uint64(hi-lo))
	dst = binary.AppendUvarint(dst, uint64(len(b.cols)))
	for c := range b.cols {
		col := &b.cols[c]
		nulls := e.loadNulls(col, lo, hi)
		plen := rawNullsLen(len(nulls)) + rawValuesLen(col, lo, hi)
		dst = slices.Grow(dst, 1+binary.MaxVarintLen64+plen)
		dst = append(dst, byte(col.typ))
		dst = binary.AppendUvarint(dst, uint64(plen))
		dst = appendRawNulls(dst, nulls)
		dst = appendRawValues(dst, col, lo, hi)
	}
	return dst
}

// v1Len returns the length appendV1 would produce for rows [lo, hi) of b
// without encoding them: the "logical" spilled size the spill store reports
// next to the bytes it actually wrote.
func (e *FrameEncoder) v1Len(b *ColumnBatch, lo, hi int) int {
	size := 2 + uvarintLen(uint64(hi-lo)) + uvarintLen(uint64(len(b.cols)))
	for c := range b.cols {
		col := &b.cols[c]
		plen := rawNullsLen(len(e.loadNulls(col, lo, hi))) + rawValuesLen(col, lo, hi)
		size += 1 + uvarintLen(uint64(plen)) + plen
	}
	return size
}

// appendBody appends the v2 body: row/column counts then each column as a
// (type, encoding, payload-length, payload) record. Each column takes the
// smallest of its encodings, the raw payload on a tie. Every length is
// computed before anything is written, so the losing encodings are never
// built.
func (e *FrameEncoder) appendBody(dst []byte, b *ColumnBatch, lo, hi int) []byte {
	dst = binary.AppendUvarint(dst, uint64(hi-lo))
	dst = binary.AppendUvarint(dst, uint64(len(b.cols)))
	for c := range b.cols {
		col := &b.cols[c]
		e.sec = e.appendNullSection(e.sec[:0], col, lo, hi)
		enc, vlen := encRaw, rawValuesLen(col, lo, hi)
		switch col.typ {
		case TypeInt, TypeTime:
			if l := deltaIntsLen(col.ints[lo:hi], vlen); l < vlen {
				enc, vlen = encDelta, l
			}
		case TypeString:
			if l := e.planDict(col.strs[lo:hi], vlen); l < vlen {
				enc, vlen = encDict, l
			}
		case TypeBool:
			if l := rleBoolsLen(col.bools[lo:hi]); l < vlen {
				enc, vlen = encRLE, l
			}
		}
		plen := len(e.sec) + vlen
		dst = slices.Grow(dst, 2+binary.MaxVarintLen64+plen)
		dst = append(dst, byte(col.typ), enc)
		dst = binary.AppendUvarint(dst, uint64(plen))
		dst = append(dst, e.sec...)
		switch enc {
		case encDelta:
			dst = appendDeltaInts(dst, col.ints[lo:hi])
		case encDict:
			dst = e.appendDict(dst)
		case encRLE:
			dst = appendRLEBools(dst, col.bools[lo:hi])
		default: // floats (and anything future) stay raw
			dst = appendRawValues(dst, col, lo, hi)
		}
	}
	return dst
}

// loadNulls fills e.nulls with col's null bits for rows [lo, hi), shifted so
// that bit 0 is row lo, with bits past hi cleared and trailing all-zero words
// dropped: exactly the bitmap a copy of those rows carries, so a range with
// no null costs no word.
func (e *FrameEncoder) loadNulls(col *Column, lo, hi int) []uint64 {
	src, s := col.nulls, uint(lo)&63
	e.nulls = e.nulls[:0]
	for k, w := 0, lo>>6; k<<6 < hi-lo && w < len(src); k, w = k+1, w+1 {
		word := src[w] >> s
		if s != 0 && w+1 < len(src) {
			word |= src[w+1] << (64 - s)
		}
		if rest := hi - lo - k<<6; rest < 64 {
			word &= 1<<uint(rest) - 1
		}
		e.nulls = append(e.nulls, word)
	}
	for len(e.nulls) > 0 && e.nulls[len(e.nulls)-1] == 0 {
		e.nulls = e.nulls[:len(e.nulls)-1]
	}
	return e.nulls
}

// rawNullsLen is the length of the raw null layout of words words.
func rawNullsLen(words int) int { return uvarintLen(uint64(words)) + 8*words }

// appendRawNulls appends the raw null layout: a uvarint word count, then the
// words little-endian.
func appendRawNulls(dst []byte, words []uint64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(words)))
	for _, w := range words {
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	return dst
}

// appendNullSection appends the v2 null section of col over rows [lo, hi):
// one mode byte when no row in range is null, else whichever of the raw and
// run-length forms is smaller.
func (e *FrameEncoder) appendNullSection(dst []byte, col *Column, lo, hi int) []byte {
	words := e.loadNulls(col, lo, hi)
	if len(words) == 0 {
		return append(dst, nullsNone)
	}
	// RLE over row status: alternating run lengths, first run non-null (a
	// leading null run gets a zero-length non-null run ahead of it). Counting
	// stops once the runs alone are as long as the raw form.
	rawLen, n := rawNullsLen(len(words)), hi-lo
	e.runs = e.runs[:0]
	nRuns, null := 0, false
	for i := 0; i < n && len(e.runs) < rawLen; null = !null {
		j := nextNullFlip(words, i, n, null)
		e.runs = binary.AppendUvarint(e.runs, uint64(j-i))
		nRuns++
		i = j
	}
	if uvarintLen(uint64(nRuns))+len(e.runs) < rawLen {
		dst = append(dst, nullsRLE)
		dst = binary.AppendUvarint(dst, uint64(nRuns))
		return append(dst, e.runs...)
	}
	return appendRawNulls(append(dst, nullsRaw), words)
}

// nextNullFlip returns the first row in [i, n) whose null bit differs from
// null, or n. Rows past the end of words are non-null.
func nextNullFlip(words []uint64, i, n int, null bool) int {
	for w := i >> 6; i < n; w++ {
		var word uint64
		if w < len(words) {
			word = words[w]
		}
		if null {
			word = ^word
		}
		if word &= ^uint64(0) << (uint(i) & 63); word != 0 {
			return min(w<<6+bits.TrailingZeros64(word), n)
		}
		i = (w + 1) << 6
	}
	return n
}

// rawValuesLen is the length of col's raw value payload over rows [lo, hi).
func rawValuesLen(col *Column, lo, hi int) int {
	switch col.typ {
	case TypeInt, TypeTime, TypeFloat:
		return 8 * (hi - lo)
	case TypeBool:
		return (hi - lo + 7) / 8
	case TypeString:
		size := 0
		for _, s := range col.strs[lo:hi] {
			size += uvarintLen(uint64(len(s))) + len(s)
		}
		return size
	}
	return 0
}

// appendRawValues appends col's value vector over rows [lo, hi) in the v1
// value layout (spill.go), without the null bitmap.
func appendRawValues(dst []byte, col *Column, lo, hi int) []byte {
	switch col.typ {
	case TypeInt, TypeTime:
		for _, v := range col.ints[lo:hi] {
			dst = binary.BigEndian.AppendUint64(dst, uint64(v))
		}
	case TypeFloat:
		for _, v := range col.floats[lo:hi] {
			dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(v))
		}
	case TypeBool:
		vals := col.bools[lo:hi]
		for i := 0; i < len(vals); i += 8 {
			var packed byte
			for j, v := range vals[i:min(i+8, len(vals))] {
				if v {
					packed |= 1 << uint(j)
				}
			}
			dst = append(dst, packed)
		}
	case TypeString:
		for _, s := range col.strs[lo:hi] {
			dst = binary.AppendUvarint(dst, uint64(len(s)))
			dst = append(dst, s...)
		}
	}
	return dst
}

// zigzag folds signed deltas into unsigned varint space (small magnitudes of
// either sign stay short).
func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// deltaIntsLen returns the length of vals' delta payload, or a length of at
// least limit as soon as it reaches limit.
func deltaIntsLen(vals []int64, limit int) int {
	size, prev := 0, int64(0)
	for _, v := range vals {
		if size += uvarintLen(zigzag(v - prev)); size >= limit {
			return size
		}
		prev = v
	}
	return size
}

// appendDeltaInts encodes vals as zig-zag varints of the first value and each
// successive delta.
func appendDeltaInts(dst []byte, vals []int64) []byte {
	prev := int64(0)
	for _, v := range vals {
		dst = binary.AppendUvarint(dst, zigzag(v-prev))
		prev = v
	}
	return dst
}

// planDict builds vals' dictionary for appendDict and returns the length of
// its payload: a sorted unique-value dictionary followed by one uvarint code
// per row. Sorting makes the encoding deterministic and gives decoded frames
// the sorted-dictionary invariant the code-based operator fast paths rely
// on. Every row's code takes at least one byte, so once uvarint(k) +
// Σ_unique(uvarint(len)+len) + n reaches rawLen the dictionary cannot win:
// planDict then returns that bound without sorting or coding anything.
func (e *FrameEncoder) planDict(vals []string, rawLen int) int {
	if e.ids == nil {
		e.ids = make(map[string]uint32)
	}
	clear(e.ids)
	e.dict, e.rowIDs = e.dict[:0], e.rowIDs[:0]
	uniq := 0
	for _, s := range vals {
		id, ok := e.ids[s]
		if !ok {
			id = uint32(len(e.dict))
			e.ids[s] = id
			e.dict = append(e.dict, s)
			uniq += uvarintLen(uint64(len(s))) + len(s)
			if bound := uvarintLen(uint64(len(e.dict))) + uniq + len(vals); bound >= rawLen {
				return bound
			}
		}
		e.rowIDs = append(e.rowIDs, id)
	}
	e.codes = slices.Grow(e.codes[:0], len(e.dict))[:len(e.dict)]
	slices.Sort(e.dict)
	for code, s := range e.dict {
		e.codes[e.ids[s]] = uint32(code)
	}
	size := uvarintLen(uint64(len(e.dict))) + uniq
	for _, id := range e.rowIDs {
		size += uvarintLen(uint64(e.codes[id]))
	}
	return size
}

// appendDict appends the dictionary payload planDict built.
func (e *FrameEncoder) appendDict(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(e.dict)))
	for _, s := range e.dict {
		dst = binary.AppendUvarint(dst, uint64(len(s)))
		dst = append(dst, s...)
	}
	for _, id := range e.rowIDs {
		dst = binary.AppendUvarint(dst, uint64(e.codes[id]))
	}
	return dst
}

// boolRuns returns the number of runs of equal values in vals and the bytes
// their uvarint lengths take.
func boolRuns(vals []bool) (runs, size int) {
	for i := 0; i < len(vals); runs++ {
		j := i + 1
		for j < len(vals) && vals[j] == vals[i] {
			j++
		}
		size += uvarintLen(uint64(j - i))
		i = j
	}
	return runs, size
}

// rleBoolsLen returns the length of vals' run-length payload.
func rleBoolsLen(vals []bool) int {
	runs, size := boolRuns(vals)
	return 1 + uvarintLen(uint64(runs)) + size
}

// appendRLEBools encodes vals as a first-value byte plus alternating run
// lengths.
func appendRLEBools(dst []byte, vals []bool) []byte {
	var first byte
	if len(vals) > 0 && vals[0] {
		first = 1
	}
	runs, _ := boolRuns(vals)
	dst = append(dst, first)
	dst = binary.AppendUvarint(dst, uint64(runs))
	for i := 0; i < len(vals); {
		j := i + 1
		for j < len(vals) && vals[j] == vals[i] {
			j++
		}
		dst = binary.AppendUvarint(dst, uint64(j-i))
		i = j
	}
	return dst
}

// decodeBatchV2 reconstructs a v2 frame body (the bytes after the flags).
func decodeBatchV2(schema *Schema, data []byte) (*ColumnBatch, error) {
	rows, k := binary.Uvarint(data)
	if k <= 0 {
		return nil, fmt.Errorf("%w: truncated row count", ErrBadBatchEncoding)
	}
	data = data[k:]
	if rows > maxFrameRows {
		return nil, fmt.Errorf("%w: row count %d exceeds frame bound", ErrBadBatchEncoding, rows)
	}
	cols, k := binary.Uvarint(data)
	if k <= 0 {
		return nil, fmt.Errorf("%w: truncated column count", ErrBadBatchEncoding)
	}
	data = data[k:]
	if int(cols) != schema.Len() {
		return nil, fmt.Errorf("%w: batch has %d columns, schema %s has %d",
			ErrBadBatchEncoding, cols, schema, schema.Len())
	}
	n := int(rows)
	b := &ColumnBatch{schema: schema, cols: make([]Column, cols), n: n}
	for c := range b.cols {
		if len(data) < 2 {
			return nil, fmt.Errorf("%w: truncated column %d", ErrBadBatchEncoding, c)
		}
		typ := FieldType(data[0])
		if want := schema.Field(c).Type; typ != want {
			return nil, fmt.Errorf("%w: column %d encoded as %s, schema expects %s",
				ErrBadBatchEncoding, c, typ, want)
		}
		enc := data[1]
		data = data[2:]
		plen, k := binary.Uvarint(data)
		if k <= 0 || uint64(len(data)-k) < plen {
			return nil, fmt.Errorf("%w: truncated column %d payload", ErrBadBatchEncoding, c)
		}
		data = data[k:]
		if err := decodeColumnPayloadV2(&b.cols[c], typ, enc, data[:plen], n); err != nil {
			return nil, fmt.Errorf("column %d: %w", c, err)
		}
		data = data[plen:]
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after frame body", ErrBadBatchEncoding, len(data))
	}
	return b, nil
}

// decodeColumnPayloadV2 decodes one v2 column payload: the null section, then
// the values under the declared encoding.
func decodeColumnPayloadV2(col *Column, typ FieldType, enc byte, data []byte, n int) error {
	col.typ = typ
	rest, err := decodeNullSection(col, data, n)
	if err != nil {
		return err
	}
	data = rest
	switch {
	case enc == encRaw:
		return decodeRawValues(col, typ, data, n)
	case enc == encDelta && (typ == TypeInt || typ == TypeTime):
		return decodeDeltaInts(col, data, n)
	case enc == encDict && typ == TypeString:
		return decodeDictStrings(col, data, n)
	case enc == encRLE && typ == TypeBool:
		return decodeRLEBools(col, data, n)
	default:
		return fmt.Errorf("%w: encoding %d invalid for column type %s", ErrBadBatchEncoding, enc, typ)
	}
}

// decodeNullSection parses the null-section prefix into col.nulls, returning
// the remaining value bytes.
func decodeNullSection(col *Column, data []byte, n int) ([]byte, error) {
	if len(data) < 1 {
		return nil, fmt.Errorf("%w: truncated null section", ErrBadBatchEncoding)
	}
	mode := data[0]
	data = data[1:]
	switch mode {
	case nullsNone:
		return data, nil
	case nullsRaw:
		words, k := binary.Uvarint(data)
		// Division-based bound: a forged word count near 2^64 would overflow
		// a words*8 comparison.
		if k <= 0 || words > uint64(len(data)-k)/8 {
			return nil, fmt.Errorf("%w: truncated null bitmap", ErrBadBatchEncoding)
		}
		data = data[k:]
		if words > uint64(n+63)/64 {
			return nil, fmt.Errorf("%w: null bitmap longer than row count", ErrBadBatchEncoding)
		}
		if words > 0 {
			col.nulls = make(nullBitmap, words)
			for w := range col.nulls {
				col.nulls[w] = binary.LittleEndian.Uint64(data[w*8:])
			}
			data = data[words*8:]
		}
		return data, nil
	case nullsRLE:
		nRuns, k := binary.Uvarint(data)
		if k <= 0 || nRuns > uint64(len(data)-k) {
			return nil, fmt.Errorf("%w: truncated null runs", ErrBadBatchEncoding)
		}
		data = data[k:]
		row := uint64(0)
		null := false
		for r := uint64(0); r < nRuns; r++ {
			l, k := binary.Uvarint(data)
			if k <= 0 {
				return nil, fmt.Errorf("%w: truncated null run %d", ErrBadBatchEncoding, r)
			}
			data = data[k:]
			if l > uint64(n)-row {
				return nil, fmt.Errorf("%w: null runs exceed row count", ErrBadBatchEncoding)
			}
			if null {
				for i := row; i < row+l; i++ {
					col.nulls.set(int(i))
				}
			}
			row += l
			null = !null
		}
		if row != uint64(n) {
			return nil, fmt.Errorf("%w: null runs cover %d of %d rows", ErrBadBatchEncoding, row, n)
		}
		return data, nil
	default:
		return nil, fmt.Errorf("%w: unknown null-section mode %d", ErrBadBatchEncoding, mode)
	}
}

// decodeRawValues decodes a raw (v1-layout) value payload.
func decodeRawValues(col *Column, typ FieldType, data []byte, n int) error {
	switch typ {
	case TypeInt, TypeTime:
		if len(data) != n*8 {
			return fmt.Errorf("%w: int column payload is %d bytes, want %d", ErrBadBatchEncoding, len(data), n*8)
		}
		col.ints = make([]int64, n)
		for i := range col.ints {
			col.ints[i] = int64(binary.BigEndian.Uint64(data[i*8:]))
		}
	case TypeFloat:
		if len(data) != n*8 {
			return fmt.Errorf("%w: float column payload is %d bytes, want %d", ErrBadBatchEncoding, len(data), n*8)
		}
		col.floats = make([]float64, n)
		for i := range col.floats {
			col.floats[i] = math.Float64frombits(binary.BigEndian.Uint64(data[i*8:]))
		}
	case TypeBool:
		if len(data) != (n+7)/8 {
			return fmt.Errorf("%w: bool column payload is %d bytes, want %d", ErrBadBatchEncoding, len(data), (n+7)/8)
		}
		col.bools = make([]bool, n)
		for i := range col.bools {
			col.bools[i] = data[i>>3]&(1<<uint(i&7)) != 0
		}
	case TypeString:
		col.strs = make([]string, n)
		for i := range col.strs {
			l, k := binary.Uvarint(data)
			if k <= 0 || uint64(len(data)-k) < l {
				return fmt.Errorf("%w: truncated string row %d", ErrBadBatchEncoding, i)
			}
			col.strs[i] = string(data[k : k+int(l)])
			data = data[k+int(l):]
		}
		if len(data) != 0 {
			return fmt.Errorf("%w: %d trailing bytes after string column", ErrBadBatchEncoding, len(data))
		}
		return nil
	default:
		return fmt.Errorf("%w: unsupported column type %d", ErrBadBatchEncoding, typ)
	}
	return nil
}

// decodeDeltaInts decodes a zig-zag delta payload. Each row costs at least
// one byte, so the row count is bounded by the payload length before any
// allocation.
func decodeDeltaInts(col *Column, data []byte, n int) error {
	if n > len(data) {
		return fmt.Errorf("%w: delta payload too short for %d rows", ErrBadBatchEncoding, n)
	}
	col.ints = make([]int64, n)
	prev := int64(0)
	for i := 0; i < n; i++ {
		u, k := binary.Uvarint(data)
		if k <= 0 {
			return fmt.Errorf("%w: truncated delta row %d", ErrBadBatchEncoding, i)
		}
		data = data[k:]
		prev += unzigzag(u)
		col.ints[i] = prev
	}
	if len(data) != 0 {
		return fmt.Errorf("%w: %d trailing bytes after delta column", ErrBadBatchEncoding, len(data))
	}
	return nil
}

// decodeDictStrings decodes a dictionary payload, keeping the dictionary and
// the per-row codes on the column (batch.go) so operator fast paths can run
// on codes. The dictionary must be strictly sorted — the invariant the fast
// paths rely on — and every code in range; anything else is a corrupt frame.
func decodeDictStrings(col *Column, data []byte, n int) error {
	dictLen, k := binary.Uvarint(data)
	if k <= 0 || dictLen > uint64(len(data)-k) || dictLen > uint64(n) {
		return fmt.Errorf("%w: bad dictionary length", ErrBadBatchEncoding)
	}
	data = data[k:]
	dict := make([]string, dictLen)
	for i := range dict {
		l, k := binary.Uvarint(data)
		if k <= 0 || uint64(len(data)-k) < l {
			return fmt.Errorf("%w: truncated dictionary entry %d", ErrBadBatchEncoding, i)
		}
		dict[i] = string(data[k : k+int(l)])
		if i > 0 && dict[i] <= dict[i-1] {
			return fmt.Errorf("%w: dictionary not strictly sorted at entry %d", ErrBadBatchEncoding, i)
		}
		data = data[k+int(l):]
	}
	if n > 0 && dictLen == 0 {
		return fmt.Errorf("%w: empty dictionary for %d rows", ErrBadBatchEncoding, n)
	}
	codes := make([]uint32, n)
	col.strs = make([]string, n)
	for i := 0; i < n; i++ {
		u, k := binary.Uvarint(data)
		if k <= 0 || u >= dictLen {
			return fmt.Errorf("%w: bad dictionary code at row %d", ErrBadBatchEncoding, i)
		}
		data = data[k:]
		codes[i] = uint32(u)
		col.strs[i] = dict[u]
	}
	if len(data) != 0 {
		return fmt.Errorf("%w: %d trailing bytes after dictionary column", ErrBadBatchEncoding, len(data))
	}
	col.dict = dict
	col.codes = codes
	return nil
}

// decodeRLEBools decodes a run-length bool payload.
func decodeRLEBools(col *Column, data []byte, n int) error {
	if len(data) < 1 {
		return fmt.Errorf("%w: truncated bool runs", ErrBadBatchEncoding)
	}
	val := data[0] != 0
	data = data[1:]
	nRuns, k := binary.Uvarint(data)
	if k <= 0 || nRuns > uint64(len(data)-k) {
		return fmt.Errorf("%w: truncated bool run count", ErrBadBatchEncoding)
	}
	data = data[k:]
	col.bools = make([]bool, n)
	row := uint64(0)
	for r := uint64(0); r < nRuns; r++ {
		l, k := binary.Uvarint(data)
		if k <= 0 {
			return fmt.Errorf("%w: truncated bool run %d", ErrBadBatchEncoding, r)
		}
		data = data[k:]
		if l > uint64(n)-row {
			return fmt.Errorf("%w: bool runs exceed row count", ErrBadBatchEncoding)
		}
		if val {
			for i := row; i < row+l; i++ {
				col.bools[i] = true
			}
		}
		row += l
		val = !val
	}
	if row != uint64(n) {
		return fmt.Errorf("%w: bool runs cover %d of %d rows", ErrBadBatchEncoding, row, n)
	}
	if len(data) != 0 {
		return fmt.Errorf("%w: %d trailing bytes after bool runs", ErrBadBatchEncoding, len(data))
	}
	return nil
}

// EncodedSizeV1 computes the exact byte length EncodeBatch would produce for
// b without encoding it.
func EncodedSizeV1(b *ColumnBatch) int64 {
	var e FrameEncoder
	return int64(e.v1Len(b, 0, b.n))
}

// uvarintLen returns the encoded length of v as a uvarint.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }
