package store

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"math"
	"strings"

	"repro/internal/storage"
)

// Segment file layout (little-endian):
//
//	+--------+----------------------------------+------------------+---------+
//	| "TSG1" | frames: u32 len | u32 crc | body | footer JSON      | trailer |
//	+--------+----------------------------------+------------------+---------+
//
// Each frame body is one v2-codec batch (storage.EncodeBatchOpts), CRC'd
// independently so a scan can verify exactly what it reads. The trailer is
// u32 footerLen | u32 crc32(footer) | "TSGF"; opening a segment reads the
// trailer, verifies the footer checksum, and trusts nothing else until the
// per-frame CRCs pass at scan time. Segments are immutable: they are written
// once through temp-file + rename and never modified.

var (
	segMagic     = [4]byte{'T', 'S', 'G', '1'}
	segfootMagic = [4]byte{'T', 'S', 'G', 'F'}
)

const (
	segTrailerLen = 12 // u32 footerLen + u32 footerCRC + "TSGF"

	// maxFooterLen bounds the footer allocation against corrupt trailers.
	maxFooterLen = 64 << 20
	// maxSegFrame bounds one frame body allocation against corrupt indexes.
	maxSegFrame = 1 << 28
)

// ZoneMap holds one column's min/max bounds over a frame or a whole segment.
// Pointer fields distinguish "no bound recorded" from a genuine zero value;
// only the pair matching the column type is set. Unpruned means the column
// contributed no usable bounds (bool columns, NaN/Inf floats — which JSON
// cannot encode — or all-null frames) and must never cause a skip.
type ZoneMap struct {
	Col      string   `json:"col"`
	MinInt   *int64   `json:"min_int,omitempty"`
	MaxInt   *int64   `json:"max_int,omitempty"`
	MinFloat *float64 `json:"min_float,omitempty"`
	MaxFloat *float64 `json:"max_float,omitempty"`
	MinStr   *string  `json:"min_str,omitempty"`
	MaxStr   *string  `json:"max_str,omitempty"`
	HasNulls bool     `json:"has_nulls,omitempty"`
	AllNull  bool     `json:"all_null,omitempty"`
	Unpruned bool     `json:"unpruned,omitempty"`
}

// frameInfo locates one frame inside a segment file.
type frameInfo struct {
	Off   int64     `json:"off"`
	Len   int       `json:"len"`
	Rows  int       `json:"rows"`
	CRC   uint32    `json:"crc"`
	Zones []ZoneMap `json:"zones,omitempty"`
}

// bloomMeta serialises the optional per-segment bloom filter.
type bloomMeta struct {
	Col  string `json:"col"`
	K    int    `json:"k"`
	Bits string `json:"bits"` // base64 raw bit array
	N    int    `json:"n"`    // keys inserted, for diagnostics
}

// segmentFooter is the JSON footer at the end of every segment file.
type segmentFooter struct {
	Version int         `json:"version"`
	Fields  []fieldMeta `json:"fields"`
	Frames  []frameInfo `json:"frames"`
	Rows    int         `json:"rows"`
	Zones   []ZoneMap   `json:"zones,omitempty"`
	Bloom   *bloomMeta  `json:"bloom,omitempty"`
}

// --- predicates ---

// PredOp is a comparison operator in a scan filter.
type PredOp int

// Supported scan predicate operators.
const (
	OpEq PredOp = iota
	OpGE
	OpLE
	OpGT
	OpLT
)

func (op PredOp) String() string {
	switch op {
	case OpEq:
		return "="
	case OpGE:
		return ">="
	case OpLE:
		return "<="
	case OpGT:
		return ">"
	case OpLT:
		return "<"
	}
	return "?"
}

// Pred is one column comparison; Value must be int64, float64, or string to
// participate in zone-map pruning (other types scan everything).
type Pred struct {
	Col   string
	Op    PredOp
	Value any
}

// Filter is a conjunction of predicates: a frame or segment may be skipped
// when ANY predicate proves no row can match.
type Filter []Pred

// ParsePred parses "col=v", "col>=v", "col<=v", "col>v", "col<v". The value
// is typed against the schema when one is supplied.
func ParsePred(expr string, schema *storage.Schema) (Pred, error) {
	ops := []struct {
		tok string
		op  PredOp
	}{{">=", OpGE}, {"<=", OpLE}, {"=", OpEq}, {">", OpGT}, {"<", OpLT}}
	for _, o := range ops {
		i := strings.Index(expr, o.tok)
		if i <= 0 {
			continue
		}
		col := strings.TrimSpace(expr[:i])
		raw := strings.TrimSpace(expr[i+len(o.tok):])
		p := Pred{Col: col, Op: o.op}
		if schema != nil && schema.Has(col) {
			f, err := schema.FieldByName(col)
			if err != nil {
				return Pred{}, err
			}
			switch f.Type {
			case storage.TypeInt, storage.TypeTime:
				var v int64
				if _, err := fmt.Sscanf(raw, "%d", &v); err != nil {
					return Pred{}, fmt.Errorf("store: predicate %q: %v", expr, err)
				}
				p.Value = v
			case storage.TypeFloat:
				var v float64
				if _, err := fmt.Sscanf(raw, "%g", &v); err != nil {
					return Pred{}, fmt.Errorf("store: predicate %q: %v", expr, err)
				}
				p.Value = v
			default:
				p.Value = raw
			}
		} else {
			p.Value = raw
		}
		return p, nil
	}
	return Pred{}, fmt.Errorf("store: cannot parse predicate %q (want col=v, col>=v, col<=v, col>v, col<v)", expr)
}

// zonesPrune reports whether the zone maps prove no row in the zone can
// satisfy the filter. Conservative: any doubt returns false (scan it).
func zonesPrune(zones []ZoneMap, filter Filter) bool {
	if len(zones) == 0 || len(filter) == 0 {
		return false
	}
	byCol := make(map[string]*ZoneMap, len(zones))
	for i := range zones {
		byCol[zones[i].Col] = &zones[i]
	}
	for _, p := range filter {
		z, ok := byCol[p.Col]
		if !ok || z.Unpruned {
			continue
		}
		if z.AllNull {
			// No comparison matches a null, so any predicate on an all-null
			// column excludes the whole zone.
			return true
		}
		if zoneExcludes(z, p) {
			return true
		}
	}
	return false
}

func zoneExcludes(z *ZoneMap, p Pred) bool {
	switch v := p.Value.(type) {
	case int64:
		if z.MinInt == nil || z.MaxInt == nil {
			return false
		}
		return rangeExcludes(float64(*z.MinInt), float64(*z.MaxInt), float64(v), p.Op)
	case int:
		if z.MinInt == nil || z.MaxInt == nil {
			return false
		}
		return rangeExcludes(float64(*z.MinInt), float64(*z.MaxInt), float64(v), p.Op)
	case float64:
		if z.MinFloat == nil || z.MaxFloat == nil {
			return false
		}
		return rangeExcludes(*z.MinFloat, *z.MaxFloat, v, p.Op)
	case string:
		if z.MinStr == nil || z.MaxStr == nil {
			return false
		}
		switch p.Op {
		case OpEq:
			return v < *z.MinStr || v > *z.MaxStr
		case OpGE:
			return *z.MaxStr < v
		case OpGT:
			return *z.MaxStr <= v
		case OpLE:
			return *z.MinStr > v
		case OpLT:
			return *z.MinStr >= v
		}
	}
	return false
}

func rangeExcludes(min, max, v float64, op PredOp) bool {
	switch op {
	case OpEq:
		return v < min || v > max
	case OpGE:
		return max < v
	case OpGT:
		return max <= v
	case OpLE:
		return min > v
	case OpLT:
		return min >= v
	}
	return false
}

// buildZones computes one ZoneMap per schema column over rows [lo, hi) of a
// batch.
func buildZones(b *storage.ColumnBatch, start, end int) []ZoneMap {
	schema := b.Schema()
	zones := make([]ZoneMap, schema.Len())
	for c := 0; c < schema.Len(); c++ {
		zones[c] = buildZone(b, c, start, end)
	}
	return zones
}

func buildZone(b *storage.ColumnBatch, c, start, end int) ZoneMap {
	f := b.Schema().Field(c)
	col := b.Column(c)
	z := ZoneMap{Col: f.Name}
	nulls := col.HasNulls()
	seen := 0
	switch f.Type {
	case storage.TypeInt, storage.TypeTime:
		var lo, hi int64
		for i := start; i < end; i++ {
			if nulls && col.Null(i) {
				z.HasNulls = true
				continue
			}
			v := col.Int(i)
			if seen == 0 {
				lo, hi = v, v
			} else if v < lo {
				lo = v
			} else if v > hi {
				hi = v
			}
			seen++
		}
		if seen > 0 {
			z.MinInt, z.MaxInt = &lo, &hi
		}
	case storage.TypeFloat:
		var lo, hi float64
		for i := start; i < end; i++ {
			if nulls && col.Null(i) {
				z.HasNulls = true
				continue
			}
			v := col.Float(i)
			if math.IsNaN(v) || math.IsInf(v, 0) {
				// JSON cannot carry these bounds; give up pruning here.
				z.Unpruned = true
				return z
			}
			if seen == 0 {
				lo, hi = v, v
			} else if v < lo {
				lo = v
			} else if v > hi {
				hi = v
			}
			seen++
		}
		if seen > 0 {
			z.MinFloat, z.MaxFloat = &lo, &hi
		}
	case storage.TypeString:
		var lo, hi string
		for i := start; i < end; i++ {
			if nulls && col.Null(i) {
				z.HasNulls = true
				continue
			}
			v := col.Str(i)
			if seen == 0 {
				lo, hi = v, v
			} else if v < lo {
				lo = v
			} else if v > hi {
				hi = v
			}
			seen++
		}
		if seen > 0 {
			z.MinStr, z.MaxStr = &lo, &hi
		}
	default:
		z.Unpruned = true
		return z
	}
	if seen == 0 {
		z.AllNull = end > start
		z.HasNulls = end > start
	}
	return z
}

// mergeZones widens acc in place with more frames' zones (same column order).
func mergeZones(acc, more []ZoneMap) []ZoneMap {
	if acc == nil {
		out := make([]ZoneMap, len(more))
		copy(out, more)
		return out
	}
	for i := range acc {
		a, m := &acc[i], &more[i]
		if m.Unpruned {
			a.Unpruned = true
		}
		a.HasNulls = a.HasNulls || m.HasNulls
		a.AllNull = a.AllNull && m.AllNull
		a.MinInt = minI64(a.MinInt, m.MinInt)
		a.MaxInt = maxI64(a.MaxInt, m.MaxInt)
		a.MinFloat = minF64(a.MinFloat, m.MinFloat)
		a.MaxFloat = maxF64(a.MaxFloat, m.MaxFloat)
		a.MinStr = minStr(a.MinStr, m.MinStr)
		a.MaxStr = maxStr(a.MaxStr, m.MaxStr)
	}
	return acc
}

func minI64(a, b *int64) *int64 {
	if a == nil {
		return b
	}
	if b == nil || *a <= *b {
		return a
	}
	return b
}

func maxI64(a, b *int64) *int64 {
	if a == nil {
		return b
	}
	if b == nil || *a >= *b {
		return a
	}
	return b
}

func minF64(a, b *float64) *float64 {
	if a == nil {
		return b
	}
	if b == nil || *a <= *b {
		return a
	}
	return b
}

func maxF64(a, b *float64) *float64 {
	if a == nil {
		return b
	}
	if b == nil || *a >= *b {
		return a
	}
	return b
}

func minStr(a, b *string) *string {
	if a == nil {
		return b
	}
	if b == nil || *a <= *b {
		return a
	}
	return b
}

func maxStr(a, b *string) *string {
	if a == nil {
		return b
	}
	if b == nil || *a >= *b {
		return a
	}
	return b
}

// --- bloom filter ---

// bloomBitsPerKey and bloomHashes give ~1% false positives at 10 bits/key.
const (
	bloomBitsPerKey = 10
	bloomHashes     = 7
)

type bloomFilter struct {
	bits []byte
	k    int
	n    int
}

func newBloom(expectedKeys int) *bloomFilter {
	nbits := expectedKeys * bloomBitsPerKey
	if nbits < 64 {
		nbits = 64
	}
	return &bloomFilter{bits: make([]byte, (nbits+7)/8), k: bloomHashes}
}

// hash2 derives the double-hashing pair (FNV-64a over key, then over
// key+salt) used to place k probes.
func bloomHash2(key []byte) (uint64, uint64) {
	h1 := fnv.New64a()
	h1.Write(key)
	a := h1.Sum64()
	h1.Write([]byte{0x9e})
	b := h1.Sum64() | 1 // odd step so probes cycle through all bits
	return a, b
}

func (bf *bloomFilter) add(key []byte) {
	a, b := bloomHash2(key)
	nbits := uint64(len(bf.bits)) * 8
	for i := 0; i < bf.k; i++ {
		bit := (a + uint64(i)*b) % nbits
		bf.bits[bit/8] |= 1 << (bit % 8)
	}
	bf.n++
}

func (bf *bloomFilter) mayContain(key []byte) bool {
	if len(bf.bits) == 0 {
		return true
	}
	a, b := bloomHash2(key)
	nbits := uint64(len(bf.bits)) * 8
	for i := 0; i < bf.k; i++ {
		bit := (a + uint64(i)*b) % nbits
		if bf.bits[bit/8]&(1<<(bit%8)) == 0 {
			return false
		}
	}
	return true
}

// bloomKeyBytes renders one cell of the bloom column as hash input. ok is
// false for nulls and unsupported types (those rows are simply not indexed,
// which is safe: absence of indexing can only cause false positives, and a
// null never equals a predicate value anyway).
func bloomKeyBytes(col *storage.Column, typ storage.FieldType, i int, buf []byte) ([]byte, bool) {
	if col.HasNulls() && col.Null(i) {
		return buf, false
	}
	switch typ {
	case storage.TypeInt, storage.TypeTime:
		return binary.LittleEndian.AppendUint64(buf[:0], uint64(col.Int(i))), true
	case storage.TypeFloat:
		return binary.LittleEndian.AppendUint64(buf[:0], math.Float64bits(col.Float(i))), true
	case storage.TypeString:
		return append(buf[:0], col.Str(i)...), true
	default:
		return buf, false
	}
}

// bloomValueBytes renders a predicate value the same way bloomKeyBytes
// renders cells, so Eq probes line up with inserted keys.
func bloomValueBytes(v any) ([]byte, bool) {
	switch x := v.(type) {
	case int64:
		return binary.LittleEndian.AppendUint64(nil, uint64(x)), true
	case int:
		return binary.LittleEndian.AppendUint64(nil, uint64(int64(x))), true
	case float64:
		return binary.LittleEndian.AppendUint64(nil, math.Float64bits(x)), true
	case string:
		return []byte(x), true
	default:
		return nil, false
	}
}

// --- segment writer ---

// segmentCodec is the codec every segment frame is written with: compressed
// v2 frames (see storage/frame.go).
var segmentCodec = storage.CodecOptions{Compress: true}

// segFrame is one frame of a segment: rows [lo, hi) of a batch and, once
// encoded, its body, CRC and zone maps.
type segFrame struct {
	b      *storage.ColumnBatch
	lo, hi int
	body   []byte
	crc    uint32
	zones  []ZoneMap
}

// encode fills in the frame's body, CRC and zone maps. scratch is the
// encoder's output buffer, returned for reuse; the body is an exact copy.
func (fr *segFrame) encode(enc *storage.FrameEncoder, scratch []byte) []byte {
	scratch = enc.Encode(scratch[:0], fr.b, fr.lo, fr.hi, segmentCodec)
	fr.body = bytes.Clone(scratch)
	fr.crc = crc32.ChecksumIEEE(fr.body)
	fr.zones = buildZones(fr.b, fr.lo, fr.hi)
	return scratch
}

// writeSegment writes encoded frames as one immutable segment at tmpPath,
// fsyncs it, and returns the footer-derived metadata. The caller renames it
// into place and records it in the manifest; until then it is invisible.
func writeSegment(fs FS, tmpPath string, schema *storage.Schema, frames []segFrame, bloomCol string) (ref SegmentRef, footer segmentFooter, err error) {
	f, err := fs.Create(tmpPath)
	if err != nil {
		return ref, footer, err
	}
	// On any error path the temp file is abandoned for recovery GC to sweep.
	defer func() {
		if f != nil {
			_ = f.Close()
		}
	}()

	footer.Version = 1
	footer.Fields = fieldsFromSchema(schema)

	var bloom *bloomFilter
	bloomIdx := -1
	if bloomCol != "" && schema.Has(bloomCol) {
		bloomIdx = schema.IndexOf(bloomCol)
		total := 0
		for _, fr := range frames {
			total += fr.hi - fr.lo
		}
		bloom = newBloom(total)
	}

	if _, err = f.Write(segMagic[:]); err != nil {
		return ref, footer, err
	}
	off := int64(len(segMagic))

	var segZones []ZoneMap
	var keyBuf []byte
	for _, fr := range frames {
		var hdr [8]byte
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(fr.body)))
		binary.LittleEndian.PutUint32(hdr[4:8], fr.crc)
		if _, err = f.Write(hdr[:]); err != nil {
			return ref, footer, err
		}
		if _, err = f.Write(fr.body); err != nil {
			return ref, footer, err
		}
		footer.Frames = append(footer.Frames, frameInfo{
			Off:   off + 8,
			Len:   len(fr.body),
			Rows:  fr.hi - fr.lo,
			CRC:   fr.crc,
			Zones: fr.zones,
		})
		segZones = mergeZones(segZones, fr.zones)
		footer.Rows += fr.hi - fr.lo
		off += 8 + int64(len(fr.body))

		if bloom != nil {
			col := fr.b.Column(bloomIdx)
			typ := schema.Field(bloomIdx).Type
			for i := fr.lo; i < fr.hi; i++ {
				if kb, ok := bloomKeyBytes(col, typ, i, keyBuf); ok {
					keyBuf = kb
					bloom.add(kb)
				}
			}
		}
	}
	footer.Zones = segZones
	if bloom != nil {
		footer.Bloom = &bloomMeta{
			Col:  bloomCol,
			K:    bloom.k,
			Bits: base64.StdEncoding.EncodeToString(bloom.bits),
			N:    bloom.n,
		}
	}

	footJSON, err := json.Marshal(footer)
	if err != nil {
		return ref, footer, err
	}
	footCRC := crc32.ChecksumIEEE(footJSON)
	if _, err = f.Write(footJSON); err != nil {
		return ref, footer, err
	}
	var trailer [segTrailerLen]byte
	binary.LittleEndian.PutUint32(trailer[0:4], uint32(len(footJSON)))
	binary.LittleEndian.PutUint32(trailer[4:8], footCRC)
	copy(trailer[8:], segfootMagic[:])
	if _, err = f.Write(trailer[:]); err != nil {
		return ref, footer, err
	}
	if err = f.Sync(); err != nil {
		return ref, footer, err
	}
	err = f.Close()
	f = nil
	if err != nil {
		return ref, footer, err
	}

	ref = SegmentRef{
		Rows:      footer.Rows,
		Bytes:     off + int64(len(footJSON)) + segTrailerLen,
		FooterCRC: footCRC,
		Zones:     segZones,
		BloomCol:  bloomCol,
	}
	return ref, footer, nil
}

// --- segment reader ---

// errCorrupt marks checksum/format failures that recovery turns into
// quarantine rather than a hard error.
type corruptError struct{ msg string }

func (e *corruptError) Error() string { return "store: corrupt segment: " + e.msg }

func corruptf(format string, args ...any) error {
	return &corruptError{msg: fmt.Sprintf(format, args...)}
}

// readSegmentFooter opens path, verifies the trailer and footer CRC, and
// returns the parsed footer plus the verified CRC. It is the integrity gate
// recovery runs over every referenced segment.
func readSegmentFooter(fs FS, path string) (segmentFooter, uint32, error) {
	f, err := fs.Open(path)
	if err != nil {
		return segmentFooter{}, 0, err
	}
	defer f.Close()
	return decodeSegmentFooter(f)
}

// decodeSegmentFooter parses and verifies the footer of an open segment.
// The returned CRC is the trailer's checksum, already validated against the
// footer bytes, so callers can compare it to the manifest's pinned value.
func decodeSegmentFooter(f ReadFile) (segmentFooter, uint32, error) {
	var footer segmentFooter
	size, err := f.Size()
	if err != nil {
		return footer, 0, err
	}
	if size < int64(len(segMagic))+segTrailerLen {
		return footer, 0, corruptf("file too short (%d bytes)", size)
	}
	var head [4]byte
	if _, err := f.ReadAt(head[:], 0); err != nil {
		return footer, 0, corruptf("reading header: %v", err)
	}
	if head != segMagic {
		return footer, 0, corruptf("bad magic %q", head[:])
	}
	var trailer [segTrailerLen]byte
	if _, err := f.ReadAt(trailer[:], size-segTrailerLen); err != nil {
		return footer, 0, corruptf("reading trailer: %v", err)
	}
	if [4]byte{trailer[8], trailer[9], trailer[10], trailer[11]} != segfootMagic {
		return footer, 0, corruptf("bad trailer magic")
	}
	footLen := int64(binary.LittleEndian.Uint32(trailer[0:4]))
	wantCRC := binary.LittleEndian.Uint32(trailer[4:8])
	if footLen <= 0 || footLen > maxFooterLen || footLen > size-int64(len(segMagic))-segTrailerLen {
		return footer, 0, corruptf("footer length %d out of range", footLen)
	}
	footJSON := make([]byte, footLen)
	if _, err := f.ReadAt(footJSON, size-segTrailerLen-footLen); err != nil {
		return footer, 0, corruptf("reading footer: %v", err)
	}
	if crc32.ChecksumIEEE(footJSON) != wantCRC {
		return footer, 0, corruptf("footer checksum mismatch")
	}
	if err := json.Unmarshal(footJSON, &footer); err != nil {
		return footer, 0, corruptf("footer JSON: %v", err)
	}
	if footer.Version != 1 {
		return footer, 0, corruptf("unsupported segment version %d", footer.Version)
	}
	// Bounds-check the frame index against the file so scans cannot be sent
	// past EOF or into the footer by a hostile index.
	frameEnd := size - segTrailerLen - footLen
	for _, fr := range footer.Frames {
		if fr.Off < int64(len(segMagic))+8 || fr.Len < 0 || fr.Len > maxSegFrame || fr.Off+int64(fr.Len) > frameEnd {
			return footer, 0, corruptf("frame bounds [%d,+%d) out of range", fr.Off, fr.Len)
		}
		if fr.Rows < 0 {
			return footer, 0, corruptf("negative frame rows")
		}
	}
	return footer, wantCRC, nil
}

// segScanStats counts pruning decisions during one segment scan.
type segScanStats struct {
	framesScanned int
	framesSkipped int
	rows          int
}

// segmentBloomSkips reports whether the segment's bloom filter proves an Eq
// predicate on its indexed column cannot match.
func segmentBloomSkips(footer *bloomMeta, filter Filter) bool {
	if footer == nil {
		return false
	}
	bits, err := base64.StdEncoding.DecodeString(footer.Bits)
	if err != nil || len(bits) == 0 || footer.K <= 0 || footer.K > 64 {
		return false
	}
	bf := &bloomFilter{bits: bits, k: footer.K}
	for _, p := range filter {
		if p.Op != OpEq || p.Col != footer.Col {
			continue
		}
		vb, ok := bloomValueBytes(p.Value)
		if ok && !bf.mayContain(vb) {
			return true
		}
	}
	return false
}
