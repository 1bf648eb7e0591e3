package storage

import (
	"bytes"
	"testing"
)

// FuzzDecodeBatch drives DecodeBatch with arbitrary bytes: whatever the
// input, the decoder must either return an error (ErrBadBatchEncoding for
// anything structurally wrong) or produce a batch that re-encodes and
// re-decodes consistently — and it must never panic, because spill files are
// the one input the engine reads back from disk. Seeds cover both codec
// versions, a v2 frame with a flag set, and hand-truncated frames; `make
// fuzz` runs a short time-boxed session and CI runs an even shorter smoke.
func FuzzDecodeBatch(f *testing.F) {
	schema := MustSchema(
		Field{Name: "seq", Type: TypeInt},
		Field{Name: "region", Type: TypeString},
		Field{Name: "category", Type: TypeString, Nullable: true},
		Field{Name: "score", Type: TypeFloat, Nullable: true},
		Field{Name: "flag", Type: TypeBool},
	)
	rows := stringHeavyRowsF(200)
	b, err := BatchFromRows(schema, rows)
	if err != nil {
		f.Fatal(err)
	}
	v1 := EncodeBatch(nil, b)
	v2 := EncodeBatchOpts(nil, b, CodecOptions{Compress: true})
	// A v2 frame whose flags byte is set: no flag is defined, so it must
	// be rejected.
	v2f := append([]byte(nil), v2...)
	v2f[2] = 0x01
	f.Add(v1)
	f.Add(v2)
	f.Add(v2f)
	f.Add(v1[:len(v1)/2])
	f.Add(v2[:len(v2)/3])
	f.Add(v2f[:7])
	f.Add([]byte{})
	f.Add([]byte{0xCB})
	f.Add([]byte{0xCB, 0x02, 0x01, 0x05})

	f.Fuzz(func(t *testing.T, data []byte) {
		dec, err := DecodeBatch(schema, data)
		if err != nil {
			return
		}
		// A successful decode must be internally consistent: re-encoding it
		// (both codecs) and decoding again yields the same cells.
		re := EncodeBatchOpts(nil, dec, CodecOptions{Compress: true})
		dec2, err := DecodeBatch(schema, re)
		if err != nil {
			t.Fatalf("re-decode of re-encoded batch failed: %v", err)
		}
		if dec2.Len() != dec.Len() {
			t.Fatalf("re-decode row count %d, want %d", dec2.Len(), dec.Len())
		}
		re2 := EncodeBatchOpts(nil, dec2, CodecOptions{Compress: true})
		if !bytes.Equal(re, re2) {
			t.Fatal("canonical v2 encoding is not a fixed point")
		}
	})
}

// stringHeavyRowsF mirrors frame_test.go's generator without *testing.T (the
// fuzz seed corpus is built in f.Add context).
func stringHeavyRowsF(n int) []Row {
	regions := []string{"emea-central", "emea-west", "amer-north", "amer-south", "apac-east"}
	rows := make([]Row, n)
	for i := range rows {
		var cat Value = "electricity"
		if i%11 == 0 {
			cat = nil
		}
		var score Value = float64(i%97) / 7
		if i%13 == 0 {
			score = nil
		}
		rows[i] = Row{int64(1_000_000 + i), regions[(i/16)%len(regions)], cat, score, (i/32)%2 == 0}
	}
	return rows
}
