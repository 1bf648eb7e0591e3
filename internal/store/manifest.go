package store

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"sort"

	"repro/internal/storage"
)

// The manifest is the store's source of truth: which tables are live and
// which segment files make each one up. It is never stored as a mutable
// file; instead an append-only log of CRC-framed records is replayed on
// open. A checkpoint rewrites the log as a single snapshot record through
// temp-file + atomic-rename, so the log is always either the old version or
// the new one, never a mix.
//
// Record framing (little-endian):
//
//	+------+----------------+-----------------+------------+
//	| 0xA7 | uvarint len(p) |  p (op + JSON)  | crc32(p)   |
//	+------+----------------+-----------------+------------+
//
// p[0] is the op code; p[1:] is the op's JSON body. The CRC covers p only.
// Replay stops at the first byte that does not parse as a whole valid
// record: everything before it is the recovered manifest, everything from
// it on is a torn tail to truncate.

const (
	walMagic = 0xA7

	opSnapshot byte = 1 // body: manifestState — replaces all prior state
	opUpsert   byte = 2 // body: TableMeta — create or replace one table
	opDrop     byte = 3 // body: dropBody — remove one table

	// maxWALRecord bounds a single record's payload so a corrupt length
	// prefix cannot make the decoder attempt a huge allocation.
	maxWALRecord = 64 << 20
)

// SegmentRef is a manifest entry pointing at one immutable segment file.
type SegmentRef struct {
	// Name is the file name inside the store's segs/ directory.
	Name string `json:"name"`
	// Rows and Bytes describe the segment for planning and stats.
	Rows  int   `json:"rows"`
	Bytes int64 `json:"bytes"`
	// FooterCRC pins the segment's footer checksum; recovery re-verifies it
	// before trusting the file.
	FooterCRC uint32 `json:"footer_crc"`
	// Zones carries the per-column min/max zone maps for pruning without
	// opening the segment.
	Zones []ZoneMap `json:"zones,omitempty"`
}

// TableMeta is a manifest entry describing one live table.
type TableMeta struct {
	Name     string       `json:"name"`
	Fields   []fieldMeta  `json:"fields"`
	Segments []SegmentRef `json:"segments"`
	Rows     int          `json:"rows"`
}

// fieldMeta round-trips storage.Field through JSON with stable tags.
type fieldMeta struct {
	Name        string `json:"name"`
	Type        int    `json:"type"`
	Sensitivity int    `json:"sensitivity"`
	Nullable    bool   `json:"nullable,omitempty"`
}

func fieldsFromSchema(s *storage.Schema) []fieldMeta {
	out := make([]fieldMeta, s.Len())
	for i := 0; i < s.Len(); i++ {
		f := s.Field(i)
		out[i] = fieldMeta{Name: f.Name, Type: int(f.Type), Sensitivity: int(f.Sensitivity), Nullable: f.Nullable}
	}
	return out
}

func (t TableMeta) schema() (*storage.Schema, error) {
	fields := make([]storage.Field, len(t.Fields))
	for i, f := range t.Fields {
		if f.Type < int(storage.TypeString) || f.Type > int(storage.TypeTime) {
			return nil, fmt.Errorf("store: table %q field %q has invalid type %d", t.Name, f.Name, f.Type)
		}
		fields[i] = storage.Field{
			Name:        f.Name,
			Type:        storage.FieldType(f.Type),
			Sensitivity: storage.Sensitivity(f.Sensitivity),
			Nullable:    f.Nullable,
		}
	}
	return storage.NewSchema(fields...)
}

// manifestState is the replayed, in-memory manifest.
type manifestState struct {
	Tables map[string]TableMeta `json:"tables"`
}

func newManifestState() manifestState {
	return manifestState{Tables: map[string]TableMeta{}}
}

func (m manifestState) clone() manifestState {
	c := newManifestState()
	for k, v := range m.Tables {
		c.Tables[k] = v
	}
	return c
}

// tableNames returns the live table names, sorted.
func (m manifestState) tableNames() []string {
	names := make([]string, 0, len(m.Tables))
	for n := range m.Tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

type dropBody struct {
	Name string `json:"name"`
}

// walRecord is one decoded log record.
type walRecord struct {
	op   byte
	body []byte
}

// appendWALRecord frames op+body into buf and returns the extended buffer.
func appendWALRecord(buf []byte, op byte, body []byte) []byte {
	payload := make([]byte, 0, 1+len(body))
	payload = append(payload, op)
	payload = append(payload, body...)
	buf = append(buf, walMagic)
	buf = binary.AppendUvarint(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(payload))
	return append(buf, crc[:]...)
}

func encodeUpsert(t TableMeta) ([]byte, error) {
	body, err := json.Marshal(t)
	if err != nil {
		return nil, err
	}
	return appendWALRecord(nil, opUpsert, body), nil
}

func encodeDrop(name string) ([]byte, error) {
	body, err := json.Marshal(dropBody{Name: name})
	if err != nil {
		return nil, err
	}
	return appendWALRecord(nil, opDrop, body), nil
}

func encodeSnapshot(m manifestState) ([]byte, error) {
	body, err := json.Marshal(m)
	if err != nil {
		return nil, err
	}
	return appendWALRecord(nil, opSnapshot, body), nil
}

// decodeWAL parses a log image. It returns the records that parsed cleanly,
// the byte offset just past the last good record, and whether a torn or
// corrupt tail followed (torn == goodLen < len(data)).
func decodeWAL(data []byte) (recs []walRecord, goodLen int64, torn bool) {
	off := 0
	for off < len(data) {
		rec, n, ok := decodeOneWALRecord(data[off:])
		if !ok {
			return recs, int64(off), true
		}
		recs = append(recs, rec)
		off += n
	}
	return recs, int64(off), false
}

// decodeOneWALRecord parses a single record at the start of data, returning
// its size in bytes. ok is false for any framing, bounds, or CRC failure.
func decodeOneWALRecord(data []byte) (rec walRecord, n int, ok bool) {
	if len(data) < 1 || data[0] != walMagic {
		return rec, 0, false
	}
	plen, vlen := binary.Uvarint(data[1:])
	if vlen <= 0 || plen == 0 || plen > maxWALRecord {
		return rec, 0, false
	}
	start := 1 + vlen
	end := start + int(plen)
	if end+4 > len(data) {
		return rec, 0, false
	}
	payload := data[start:end]
	want := binary.LittleEndian.Uint32(data[end : end+4])
	if crc32.ChecksumIEEE(payload) != want {
		return rec, 0, false
	}
	rec.op = payload[0]
	rec.body = append([]byte(nil), payload[1:]...)
	return rec, end + 4, true
}

// applyWALRecord folds one record into the state. A false return means the
// record is semantically invalid (bad JSON, unknown op, empty name) and
// replay must stop there, exactly as a CRC failure would at a lower layer.
func applyWALRecord(m *manifestState, rec walRecord) bool {
	switch rec.op {
	case opSnapshot:
		var snap manifestState
		if err := json.Unmarshal(rec.body, &snap); err != nil {
			return false
		}
		if snap.Tables == nil {
			snap.Tables = map[string]TableMeta{}
		}
		*m = snap
	case opUpsert:
		var t TableMeta
		if err := json.Unmarshal(rec.body, &t); err != nil || t.Name == "" {
			return false
		}
		// Duplicate names replay with replace semantics — last wins,
		// matching Catalog.Replace.
		m.Tables[t.Name] = t
	case opDrop:
		var d dropBody
		if err := json.Unmarshal(rec.body, &d); err != nil || d.Name == "" {
			return false
		}
		delete(m.Tables, d.Name)
	default:
		return false
	}
	return true
}

// recoverManifest replays a log image. It returns the recovered state, the
// byte offset just past the last record that was both well-framed and
// semantically valid, and whether a torn/corrupt tail followed. Truncating
// the log to goodLen yields a file whose every byte is a valid record.
func recoverManifest(data []byte) (m manifestState, goodLen int64, torn bool) {
	m = newManifestState()
	off := 0
	for off < len(data) {
		rec, n, ok := decodeOneWALRecord(data[off:])
		if !ok || !applyWALRecord(&m, rec) {
			return m, int64(off), true
		}
		off += n
	}
	return m, int64(off), false
}
