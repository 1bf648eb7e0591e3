package storage

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// encoderSchemas are the two schemas FuzzFrameEncoderRange alternates on one
// encoder: every column type, nullable, with two string columns whose values
// overlap, then a narrower schema in another column order.
var encoderSchemas = []*Schema{
	MustSchema(
		Field{Name: "id", Type: TypeInt, Nullable: true},
		Field{Name: "at", Type: TypeTime, Nullable: true},
		Field{Name: "score", Type: TypeFloat, Nullable: true},
		Field{Name: "region", Type: TypeString, Nullable: true},
		Field{Name: "city", Type: TypeString, Nullable: true},
		Field{Name: "ok", Type: TypeBool, Nullable: true},
	),
	MustSchema(
		Field{Name: "city", Type: TypeString, Nullable: true},
		Field{Name: "ok", Type: TypeBool},
		Field{Name: "id", Type: TypeInt},
	),
}

// encoderRows returns n rows of schema. card bounds the distinct strings per
// column, so small values favour the dictionary and large ones the raw
// layout; nullPct is the share of null cells, which come in runs so that
// both null-section forms occur.
func encoderRows(rng *rand.Rand, schema *Schema, n, card, nullPct int) []Row {
	specials := []float64{math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 0}
	sortedInts := rng.Intn(2) == 0
	rows := make([]Row, n)
	nullRun := 0
	for i := range rows {
		row := make(Row, schema.Len())
		for c := 0; c < schema.Len(); c++ {
			f := schema.Field(c)
			if f.Nullable && nullRun > 0 {
				continue
			}
			switch f.Type {
			case TypeInt, TypeTime:
				if sortedInts {
					row[c] = int64(1_000_000 + i*3)
				} else {
					row[c] = rng.Int63() - rng.Int63()
				}
			case TypeFloat:
				if rng.Intn(4) == 0 {
					row[c] = specials[rng.Intn(len(specials))]
				} else {
					row[c] = rng.NormFloat64()
				}
			case TypeString:
				// Overlapping pools across the two string columns, shifted by
				// the column index, with some values longer than 127 bytes.
				k := (rng.Intn(card) + c) % (card + 1)
				row[c] = strings.Repeat("v", k%3*70) + string(rune('a'+k%26)) + string(rune('0'+k/26%10)) + strings.Repeat("x", k/260)
			case TypeBool:
				row[c] = (i/(1+rng.Intn(9)))%2 == 0
			}
		}
		if nullRun > 0 {
			nullRun--
		} else if rng.Intn(100) < nullPct {
			nullRun = rng.Intn(90)
		}
		rows[i] = row
	}
	return rows
}

// FuzzFrameEncoderRange holds FrameEncoder.Encode over rows [lo, hi) of a
// batch to EncodeBatchOpts of a copy of just those rows, and to the encoder
// it replaced (frame_oracle_test.go), under both codec settings. One
// encoder is reused across ranges, codecs and both schemas, so scratch state
// leaking from one column or call into the next shows as different bytes.
func FuzzFrameEncoderRange(f *testing.F) {
	f.Add(int64(1), uint16(300), uint16(0), uint16(300), uint8(4), uint8(10))
	f.Add(int64(2), uint16(500), uint16(65), uint16(430), uint8(200), uint8(30))
	f.Add(int64(3), uint16(129), uint16(63), uint16(64), uint8(1), uint8(0))
	f.Add(int64(4), uint16(2048), uint16(1000), uint16(2048), uint8(255), uint8(5))
	f.Add(int64(5), uint16(0), uint16(0), uint16(0), uint8(3), uint8(50))
	codecs := []CodecOptions{{}, {Compress: true}}
	f.Fuzz(func(t *testing.T, seed int64, rows, lo, hi uint16, card, nullPct uint8) {
		n := int(rows) % 2500
		rng := rand.New(rand.NewSource(seed))
		var enc FrameEncoder
		for round := 0; round < 6; round++ {
			schema := encoderSchemas[round%len(encoderSchemas)]
			b := mustBatch(t, schema, encoderRows(rng, schema, n+rng.Intn(70), 1+int(card), int(nullPct)%60))
			b = b.Head(n) // a view: the bitmap may run past n
			l, h := int(lo)%(n+1), int(hi)%(n+1)
			if round > 0 {
				l, h = rng.Intn(n+1), rng.Intn(n+1)
			}
			if l > h {
				l, h = h, l
			}
			opts := codecs[(round+int(seed&3))%len(codecs)]
			cp := NewColumnBatch(schema, h-l)
			cp.AppendRange(b, l, h)
			prefix := []byte{0xAA, 0xBB}
			got := enc.Encode(append([]byte(nil), prefix...), b, l, h, opts)
			if !bytes.Equal(got[:2], prefix) {
				t.Fatalf("round %d: Encode overwrote the destination's prefix", round)
			}
			got = got[2:]
			if want := EncodeBatchOpts(nil, cp, opts); !bytes.Equal(got, want) {
				t.Fatalf("round %d: rows [%d,%d) of %d under %+v: range encoding differs from EncodeBatchOpts of a copy (%d vs %d bytes)",
					round, l, h, n, opts, len(got), len(want))
			}
			if want := naiveEncodeBatchOpts(nil, cp, opts); !bytes.Equal(got, want) {
				t.Fatalf("round %d: rows [%d,%d) of %d under %+v: range encoding differs from the replaced encoder (%d vs %d bytes)",
					round, l, h, n, opts, len(got), len(want))
			}
			dec, err := DecodeBatch(schema, got)
			if err != nil {
				t.Fatalf("round %d: decode: %v", round, err)
			}
			assertBatchesEqual(t, dec, cp)
		}
	})
}

// TestDecodeBatchCopiesOutOfItsInput overwrites a frame's bytes after
// DecodeBatch and checks that the decoded batch does not change, for every
// column encoding and both codecs: a reader may reuse one frame buffer
// for every frame it decodes.
func TestDecodeBatchCopiesOutOfItsInput(t *testing.T) {
	schema := encoderSchemas[0]
	rng := rand.New(rand.NewSource(7))
	for _, tc := range []struct {
		name string
		rows []Row
	}{
		{"compact", encoderRows(rng, schema, 700, 4, 10)},                       // delta, dictionary, RLE
		{"raw", encoderRows(rand.New(rand.NewSource(8)), schema, 700, 5000, 3)}, // raw strings and ints
	} {
		b := mustBatch(t, schema, tc.rows)
		for _, opts := range []CodecOptions{{}, {Compress: true}} {
			frame := EncodeBatchOpts(nil, b, opts)
			dec, err := DecodeBatch(schema, frame)
			if err != nil {
				t.Fatalf("%s %+v: %v", tc.name, opts, err)
			}
			for i := range frame {
				frame[i] = 0xFF
			}
			assertBatchesEqual(t, dec, b)
		}
	}
}
