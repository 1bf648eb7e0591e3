package store

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"

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
// contributed no usable bounds (bool columns, NaN/Inf floats, which JSON
// cannot encode, or string bounds that are not valid UTF-8, which JSON
// cannot carry unchanged) and must never cause a skip.
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

// segmentFooter is the JSON footer at the end of every segment file.
type segmentFooter struct {
	Version int         `json:"version"`
	Fields  []fieldMeta `json:"fields"`
	Frames  []frameInfo `json:"frames"`
	Rows    int         `json:"rows"`
	Zones   []ZoneMap   `json:"zones,omitempty"`
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

// ParsePred parses "col=v", "col>=v", "col<=v", "col>v", "col<v". It splits
// at the leftmost '<', '>' or '=', so the value may itself hold operator
// characters and the column may not. The value is typed against the schema
// when one is supplied: an int or time column wants a base-10 int64, a float
// column a float64, and trailing text after the number is an error.
func ParsePred(expr string, schema *storage.Schema) (Pred, error) {
	i := strings.IndexAny(expr, "<>=")
	if i < 0 || strings.TrimSpace(expr[:i]) == "" {
		return Pred{}, fmt.Errorf("store: cannot parse predicate %q (want col=v, col>=v, col<=v, col>v, col<v)", expr)
	}
	p := Pred{Col: strings.TrimSpace(expr[:i])}
	rest := expr[i+1:]
	switch expr[i] {
	case '=':
		p.Op = OpEq
	case '>':
		p.Op = OpGT
		if strings.HasPrefix(rest, "=") {
			p.Op, rest = OpGE, rest[1:]
		}
	case '<':
		p.Op = OpLT
		if strings.HasPrefix(rest, "=") {
			p.Op, rest = OpLE, rest[1:]
		}
	}
	raw := strings.TrimSpace(rest)
	p.Value = raw
	if schema == nil || !schema.Has(p.Col) {
		return p, nil
	}
	f, err := schema.FieldByName(p.Col)
	if err != nil {
		return Pred{}, err
	}
	switch f.Type {
	case storage.TypeInt, storage.TypeTime:
		p.Value, err = strconv.ParseInt(raw, 10, 64)
	case storage.TypeFloat:
		p.Value, err = strconv.ParseFloat(raw, 64)
	}
	if err != nil {
		return Pred{}, fmt.Errorf("store: predicate %q: %w", expr, err)
	}
	return p, nil
}

// zonesPrune reports whether the zone maps prove no row in the zone can
// satisfy the filter. Conservative: any doubt returns false (scan it). Each
// predicate finds its column's zone by a linear scan: a zone list is one
// entry per schema column, and the scan allocates nothing.
func zonesPrune(zones []ZoneMap, filter Filter) bool {
	for _, p := range filter {
		for i := range zones {
			z := &zones[i]
			if z.Col != p.Col {
				continue
			}
			// No comparison matches a null, so any predicate on an all-null
			// column excludes the whole zone.
			if !z.Unpruned && (z.AllNull || zoneExcludes(z, p)) {
				return true
			}
			break
		}
	}
	return false
}

// zoneExcludes reports whether z's bounds prove no row can satisfy p. Each
// value type is compared in its own domain: an int64 bound against an int64
// value, never through float64, which cannot tell 2^53 from 2^53+1.
func zoneExcludes(z *ZoneMap, p Pred) bool {
	switch v := p.Value.(type) {
	case int64:
		return z.MinInt != nil && z.MaxInt != nil && rangeExcludes(*z.MinInt, *z.MaxInt, v, p.Op)
	case int:
		return z.MinInt != nil && z.MaxInt != nil && rangeExcludes(*z.MinInt, *z.MaxInt, int64(v), p.Op)
	case float64:
		return z.MinFloat != nil && z.MaxFloat != nil && rangeExcludes(*z.MinFloat, *z.MaxFloat, v, p.Op)
	case string:
		return z.MinStr != nil && z.MaxStr != nil && rangeExcludes(*z.MinStr, *z.MaxStr, v, p.Op)
	}
	return false
}

// rangeExcludes reports whether no x in [lo, hi] satisfies "x op v". A NaN v
// fails every comparison, so it never excludes.
func rangeExcludes[T cmp.Ordered](lo, hi, v T, op PredOp) bool {
	switch op {
	case OpEq:
		return v < lo || v > hi
	case OpGE:
		return hi < v
	case OpGT:
		return hi <= v
	case OpLE:
		return lo > v
	case OpLT:
		return lo >= v
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
		if !utf8.ValidString(lo) || !utf8.ValidString(hi) {
			// JSON would carry these bounds with U+FFFD in place of the
			// invalid bytes, moving them; give up pruning here.
			z.Unpruned = true
			return z
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
func writeSegment(fs FS, tmpPath string, schema *storage.Schema, frames []segFrame) (ref SegmentRef, footer segmentFooter, err error) {
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

	if _, err = f.Write(segMagic[:]); err != nil {
		return ref, footer, err
	}
	off := int64(len(segMagic))

	var segZones []ZoneMap
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
	}
	footer.Zones = segZones

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
