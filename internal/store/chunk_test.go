package store

// chunk_test.go holds SaveTable's re-chunking to its contract: batches of
// any lengths are cut into frames of exactly frameRows rows (the last one may
// be short), grouped into segments, and every segment file is byte for byte
// what the copy-then-encode save path it replaced wrote (oracleSegments).
// A malformed batch is an error, never a dropped frame.

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/storage"
)

// chunkSchema mixes a non-nullable key with nullable columns of every type;
// token is a string column whose cardinality the caller picks.
func chunkSchema() *storage.Schema {
	return storage.MustSchema(
		storage.Field{Name: "id", Type: storage.TypeInt},
		storage.Field{Name: "score", Type: storage.TypeFloat, Nullable: true},
		storage.Field{Name: "region", Type: storage.TypeString, Nullable: true},
		storage.Field{Name: "ok", Type: storage.TypeBool, Nullable: true},
		storage.Field{Name: "at", Type: storage.TypeTime, Nullable: true},
		storage.Field{Name: "token", Type: storage.TypeString, Nullable: true},
	)
}

// chunkRows returns n rows of chunkSchema starting at id base, about one
// nullable cell in five null, with tokens drawn from card values: few values
// favour the dictionary encoding, many the raw one.
func chunkRows(rng *rand.Rand, n, base, card int) []storage.Row {
	rows := make([]storage.Row, n)
	for i := range rows {
		row := storage.Row{
			int64(base + i),
			float64(rng.Intn(1000)) / 8,
			[]string{"emea", "amer", "apac"}[rng.Intn(3)],
			rng.Intn(2) == 0,
			int64(rng.Intn(1 << 20)),
			fmt.Sprintf("tok-%x", rng.Intn(card)),
		}
		for c := 1; c < len(row); c++ {
			if rng.Intn(5) == 0 {
				row[c] = nil
			}
		}
		rows[i] = row
	}
	return rows
}

// TestSaveTableRejectsInvalidBatch is the regression test for the frame the
// row re-chunker used to drop: a six-row batch whose non-nullable column
// holds one null, saved with two-row frames. SaveTable must fail and leave
// the previous version of the table readable.
func TestSaveTableRejectsInvalidBatch(t *testing.T) {
	s, err := Open("/db", WithFS(NewFaultFS()), WithFrameRows(2))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	schema := storage.MustSchema(
		storage.Field{Name: "id", Type: storage.TypeInt},
		storage.Field{Name: "score", Type: storage.TypeFloat, Nullable: true},
	)
	prev := []storage.Row{{int64(10), 1.5}, {int64(11), nil}}
	if err := s.SaveRows("t", schema, prev); err != nil {
		t.Fatal(err)
	}

	ids := storage.NewColumnBuilder(storage.TypeInt, 6)
	scores := storage.NewColumnBuilder(storage.TypeFloat, 6)
	for i := 0; i < 6; i++ {
		if i == 3 {
			ids.AppendNull(i)
		} else {
			ids.AppendInt(int64(i))
		}
		scores.AppendFloat(float64(i))
	}
	bad, err := storage.BatchOfColumns(schema, 6, []storage.Column{ids, scores})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SaveTable("t", schema, []*storage.ColumnBatch{bad}); !errors.Is(err, storage.ErrInvalidBatch) {
		t.Fatalf("SaveTable with a null in a non-nullable column = %v, want ErrInvalidBatch", err)
	}
	got, err := s.Rows("t")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, prev) {
		t.Fatalf("after the failed save the table reads %v, want the previous version %v", got, prev)
	}

	other := storage.MustSchema(storage.Field{Name: "id", Type: storage.TypeInt})
	b, err := storage.BatchFromRows(other, []storage.Row{{int64(1)}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SaveTable("t", schema, []*storage.ColumnBatch{b}); err == nil {
		t.Fatal("SaveTable accepted a batch of another schema")
	}
	if err := s.SaveTable("t", schema, []*storage.ColumnBatch{nil}); !errors.Is(err, storage.ErrInvalidBatch) {
		t.Fatalf("SaveTable with a nil batch = %v, want ErrInvalidBatch", err)
	}
}

// oracleChunks is the re-chunking SaveTable did before frames became spans:
// every frame, straddling or not, is a fresh batch of exactly frameRows rows
// (the last one may be short) copied with AppendRange, and segments close
// once they hold at least segmentRows rows.
func oracleChunks(schema *storage.Schema, batches []*storage.ColumnBatch, frameRows, segmentRows int) [][]*storage.ColumnBatch {
	remaining := 0
	for _, b := range batches {
		remaining += b.Len()
	}
	var segments [][]*storage.ColumnBatch
	var current []*storage.ColumnBatch
	currentRows := 0
	var frame *storage.ColumnBatch
	for _, b := range batches {
		for lo := 0; lo < b.Len(); {
			if frame == nil {
				frame = storage.NewColumnBatch(schema, min(frameRows, remaining))
			}
			hi := min(b.Len(), lo+frameRows-frame.Len())
			frame.AppendRange(b, lo, hi)
			remaining -= hi - lo
			lo = hi
			if frame.Len() < frameRows && remaining > 0 {
				continue
			}
			current = append(current, frame)
			currentRows += frame.Len()
			frame = nil
			if currentRows >= segmentRows || remaining == 0 {
				segments = append(segments, current)
				current, currentRows = nil, 0
			}
		}
	}
	return segments
}

// oracleSegments returns the bytes of every segment file the copy-then-encode
// save path wrote for batches: oracleChunks' copies, each encoded whole with
// storage.EncodeBatchOpts and zone-mapped whole, written by writeSegment.
func oracleSegments(t *testing.T, schema *storage.Schema, batches []*storage.ColumnBatch, frameRows, segmentRows int) [][]byte {
	t.Helper()
	ffs := NewFaultFS()
	var files [][]byte
	for i, chunk := range oracleChunks(schema, batches, frameRows, segmentRows) {
		frames := make([]segFrame, len(chunk))
		for j, b := range chunk {
			body := storage.EncodeBatchOpts(nil, b, segmentCodec)
			frames[j] = segFrame{b: b, hi: b.Len(), body: body, crc: crc32.ChecksumIEEE(body), zones: buildZones(b, 0, b.Len())}
		}
		name := fmt.Sprintf("/oracle-%d.seg", i)
		if _, _, err := writeSegment(ffs, name, schema, frames); err != nil {
			t.Fatal(err)
		}
		data, err := readAll(ffs, name)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, data)
	}
	return files
}

// segmentFiles returns the bytes of a stored table's segment files, in order.
func segmentFiles(t *testing.T, s *Store, name string) [][]byte {
	t.Helper()
	s.mu.Lock()
	refs := s.manifest.Tables[name].Segments
	s.mu.Unlock()
	var files [][]byte
	for _, ref := range refs {
		data, err := readAll(s.fs, s.segPath(ref.Name))
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, data)
	}
	return files
}

// FuzzSaveTableChunking saves random batches — lengths from lens (0 allowed;
// a high bit makes the batch a Head view of a longer one), random frame and
// segment sizes, nullable columns whose nulls fall at any row offset, a
// string column of random cardinality — and checks
// the round trip, the frame sizes, that every segment file equals the
// copy-then-encode oracle's byte for byte, and that the table info equals
// SaveRows' of the same rows.
func FuzzSaveTableChunking(f *testing.F) {
	f.Add(int64(1), []byte{6}, uint8(2), uint8(3), uint8(3))
	f.Add(int64(2), []byte{0, 5, 0, 17, 1}, uint8(4), uint8(9), uint8(200))
	f.Add(int64(3), []byte{200, 130, 7}, uint8(16), uint8(40), uint8(0))
	f.Add(int64(4), []byte{}, uint8(1), uint8(1), uint8(1))
	f.Add(int64(5), []byte{64, 64, 64}, uint8(64), uint8(128), uint8(255))
	f.Add(int64(6), []byte{127, 0, 100, 90}, uint8(99), uint8(250), uint8(40))
	f.Fuzz(func(t *testing.T, seed int64, lens []byte, frameRows, segmentRows, card uint8) {
		if len(lens) > 8 {
			lens = lens[:8]
		}
		fr, sr := 1+int(frameRows)%128, 1+int(segmentRows)
		s, err := Open("/db", WithFS(NewFaultFS()), WithFrameRows(fr), WithSegmentRows(sr))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		schema := chunkSchema()
		rng := rand.New(rand.NewSource(seed))
		var all []storage.Row
		var batches []*storage.ColumnBatch
		for _, l := range lens {
			n, extra := int(l&0x7f), 0
			if l&0x80 != 0 {
				extra = 1 + rng.Intn(70)
			}
			rows := chunkRows(rng, n+extra, len(all), 1+int(card)*8)
			b, err := storage.BatchFromRows(schema, rows)
			if err != nil {
				t.Fatal(err)
			}
			batches = append(batches, b.Head(n))
			all = append(all, rows[:n]...)
		}

		if err := s.SaveTable("batches", schema, batches); err != nil {
			t.Fatalf("SaveTable: %v", err)
		}
		got, err := s.Rows("batches")
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(all) || (len(all) > 0 && !reflect.DeepEqual(got, all)) {
			t.Fatalf("saved %d rows, read back %d (or different cells)", len(all), len(got))
		}
		var frames []int
		if _, err := s.Scan("batches", nil, func(b *storage.ColumnBatch) error {
			frames = append(frames, b.Len())
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i, n := range frames {
			if (i < len(frames)-1 && n != fr) || n == 0 || n > fr {
				t.Fatalf("frame %d of %v holds %d rows, frame size %d", i, frames, n, fr)
			}
		}

		gotFiles := segmentFiles(t, s, "batches")
		wantFiles := oracleSegments(t, schema, batches, fr, sr)
		if len(gotFiles) != len(wantFiles) {
			t.Fatalf("saved %d segment files, the oracle wrote %d", len(gotFiles), len(wantFiles))
		}
		for i := range gotFiles {
			if !bytes.Equal(gotFiles[i], wantFiles[i]) {
				t.Fatalf("segment %d of %d: %d bytes differ from the oracle's %d bytes",
					i, len(gotFiles), len(gotFiles[i]), len(wantFiles[i]))
			}
		}

		if err := s.SaveRows("rows", schema, all); err != nil {
			t.Fatal(err)
		}
		gotInfo, err := s.Info("batches")
		if err != nil {
			t.Fatal(err)
		}
		wantInfo, err := s.Info("rows")
		if err != nil {
			t.Fatal(err)
		}
		gotInfo.Name, wantInfo.Name = "", ""
		if !reflect.DeepEqual(gotInfo, wantInfo) {
			t.Fatalf("SaveTable info %+v, SaveRows info %+v", gotInfo, wantInfo)
		}
	})
}
