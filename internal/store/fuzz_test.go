package store

import (
	"bytes"
	"encoding/json"
	"flag"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/storage"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// goldenWAL builds the reference manifest-log image the fuzzers seed from:
// a snapshot, an upsert, a replace, and a drop — every record type.
func goldenWAL() []byte {
	schema := storage.MustSchema(
		storage.Field{Name: "id", Type: storage.TypeInt},
		storage.Field{Name: "region", Type: storage.TypeString, Sensitivity: storage.Internal},
		storage.Field{Name: "score", Type: storage.TypeFloat, Nullable: true},
	)
	minID, maxID := int64(1), int64(99)
	meta := TableMeta{
		Name:   "events",
		Fields: fieldsFromSchema(schema),
		Rows:   99,
		Segments: []SegmentRef{{
			Name:      "seg-00000001.seg",
			Rows:      99,
			Bytes:     4096,
			FooterCRC: 0xDEADBEEF,
			Zones:     []ZoneMap{{Col: "id", MinInt: &minID, MaxInt: &maxID}},
			BloomCol:  "region",
		}},
	}
	snap := newManifestState()
	snap.Tables["seed"] = TableMeta{Name: "seed", Fields: fieldsFromSchema(schema)}
	var buf []byte
	if rec, err := encodeSnapshot(snap); err == nil {
		buf = append(buf, rec...)
	}
	if rec, err := encodeUpsert(meta); err == nil {
		buf = append(buf, rec...)
	}
	meta.Rows = 120
	if rec, err := encodeUpsert(meta); err == nil {
		buf = append(buf, rec...)
	}
	if rec, err := encodeDrop("seed"); err == nil {
		buf = append(buf, rec...)
	}
	return buf
}

// goldenSegment writes the reference segment file image through the real
// writer on an in-memory filesystem.
func goldenSegment() ([]byte, error) {
	schema := storage.MustSchema(
		storage.Field{Name: "id", Type: storage.TypeInt},
		storage.Field{Name: "region", Type: storage.TypeString},
		storage.Field{Name: "score", Type: storage.TypeFloat, Nullable: true},
	)
	rows := make([]storage.Row, 64)
	for i := range rows {
		var score storage.Value = float64(i) / 3
		if i%7 == 0 {
			score = nil
		}
		rows[i] = storage.Row{int64(i), []string{"emea", "amer", "apac"}[i%3], score}
	}
	b, err := storage.BatchFromRows(schema, rows)
	if err != nil {
		return nil, err
	}
	frames := []segFrame{{b: b, hi: b.Len()}}
	encodeFrames(frames)
	ffs := NewFaultFS()
	if _, _, err := writeSegment(ffs, "/g.seg", schema, frames, "region"); err != nil {
		return nil, err
	}
	return readAll(ffs, "/g.seg")
}

// TestGoldenFilesUpToDate pins the on-disk formats: the committed golden
// files must match what today's encoders produce. Run with -update to
// regenerate after a deliberate format change.
func TestGoldenFilesUpToDate(t *testing.T) {
	seg, err := goldenSegment()
	if err != nil {
		t.Fatalf("building golden segment: %v", err)
	}
	for _, g := range []struct {
		name string
		data []byte
	}{
		{"wal-basic.golden", goldenWAL()},
		{"segment-small.golden", seg},
	} {
		path := filepath.Join("testdata", g.name)
		if *updateGolden {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, g.data, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		disk, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("reading %s (run `go test ./internal/store -run Golden -update` to create): %v", path, err)
		}
		if !bytes.Equal(disk, g.data) {
			t.Fatalf("%s is stale: encoder output changed; if intentional, regenerate with -update", path)
		}
	}
}

// FuzzDecodeManifest drives the WAL replay path with arbitrary bytes: it
// must never panic, the reported good length must be a true prefix, and
// replaying that prefix must be stable (same state, no torn tail) — the
// exact property recovery relies on after truncating a torn log.
func FuzzDecodeManifest(f *testing.F) {
	wal := goldenWAL()
	f.Add(wal)
	f.Add(wal[:len(wal)/2])
	f.Add(wal[:len(wal)-3])
	if disk, err := os.ReadFile(filepath.Join("testdata", "wal-basic.golden")); err == nil {
		f.Add(disk)
	}
	f.Add([]byte{})
	f.Add([]byte{walMagic})
	f.Add([]byte{walMagic, 0x02, opUpsert, '{'})
	f.Add(append(append([]byte{}, wal...), 0xFF, 0xFF, 0xFF))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, goodLen, torn := recoverManifest(data)
		if goodLen < 0 || goodLen > int64(len(data)) {
			t.Fatalf("goodLen %d out of [0,%d]", goodLen, len(data))
		}
		if !torn && goodLen != int64(len(data)) {
			t.Fatalf("untorn log with goodLen %d != %d", goodLen, len(data))
		}
		// Replaying the good prefix must reproduce the state exactly and
		// report a clean log.
		m2, goodLen2, torn2 := recoverManifest(data[:goodLen])
		if torn2 || goodLen2 != goodLen {
			t.Fatalf("good prefix replays torn=%v goodLen=%d (want clean, %d)", torn2, goodLen2, goodLen)
		}
		j1, _ := json.Marshal(m)
		j2, _ := json.Marshal(m2)
		if !bytes.Equal(j1, j2) {
			t.Fatalf("prefix replay state drifted: %s vs %s", j1, j2)
		}
		// A snapshot of any recovered state must round-trip.
		snap, err := encodeSnapshot(m)
		if err != nil {
			t.Fatalf("snapshot encode: %v", err)
		}
		m3, _, torn3 := recoverManifest(snap)
		if torn3 {
			t.Fatal("snapshot of recovered state replays torn")
		}
		j3, _ := json.Marshal(m3)
		if !bytes.Equal(j1, j3) {
			t.Fatalf("snapshot round-trip drifted: %s vs %s", j1, j3)
		}
	})
}

// FuzzDecodeSegmentFooter drives the segment-open path with arbitrary
// bytes: decodeSegmentFooter must never panic or accept a frame index that
// points outside the file, because recovery runs it over every segment a
// possibly-corrupt manifest references.
func FuzzDecodeSegmentFooter(f *testing.F) {
	seg, err := goldenSegment()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seg)
	f.Add(seg[:len(seg)/2])
	f.Add(seg[:len(seg)-1])
	if disk, err := os.ReadFile(filepath.Join("testdata", "segment-small.golden")); err == nil {
		f.Add(disk)
	}
	corrupt := append([]byte(nil), seg...)
	corrupt[len(corrupt)/2] ^= 0x40
	f.Add(corrupt)
	f.Add([]byte{})
	f.Add([]byte("TSG1"))
	f.Add([]byte("TSG1....TSGF"))

	f.Fuzz(func(t *testing.T, data []byte) {
		footer, crc, err := decodeSegmentFooter(&faultReadFile{data: data})
		if err != nil {
			return
		}
		_ = crc
		size := int64(len(data))
		for _, fr := range footer.Frames {
			if fr.Off < 0 || fr.Len < 0 || fr.Off+int64(fr.Len) > size {
				t.Fatalf("accepted frame [%d,+%d) outside %d-byte file", fr.Off, fr.Len, size)
			}
		}
		// A structurally valid footer must be scannable without panicking:
		// frames either verify and decode, or error out cleanly.
		meta := TableMeta{Name: "fuzz", Fields: footer.Fields}
		schema, err := meta.schema()
		if err != nil {
			return
		}
		for _, fr := range footer.Frames {
			body := data[fr.Off : fr.Off+int64(fr.Len)]
			if crc32.ChecksumIEEE(body) != fr.CRC {
				continue
			}
			if b, err := storage.DecodeBatch(schema, body); err == nil && b.Len() < 0 {
				t.Fatal("negative batch length")
			}
		}
	})
}
