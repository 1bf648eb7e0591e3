package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/storage"
)

// A tableSpec declares one generated input table. The generator reads nothing
// but the spec and the seed, so two runs with the same seed measure the same
// bytes; the corpus hash recorded in every result proves it.
type tableSpec struct {
	Name    string
	Rows    int
	Columns []columnSpec
}

// columnSpec declares how one column's cells are drawn.
type columnSpec struct {
	Name string
	Type storage.FieldType
	// Gen selects the distribution:
	//   serial  — the row index (a primary key)
	//   cycle   — row index modulo Card (every key equally often, no RNG)
	//   uniform — a key drawn uniformly from [0, Card)
	//   zipf    — a key drawn Zipf(Skew) from [0, Card): key 0 is the hottest
	Gen  string
	Card int
	Skew float64
	// Step scales a float column: the cell is key × Step (0 means 1). With a
	// power-of-two step, sums of the column are exact in any order, so a
	// reference sum compares bit for bit.
	Step float64
	// Nulls is the share of cells left null.
	Nulls float64
	// Prefix and Width render a key as a string of Width[0]..Width[1] bytes;
	// the width cycles with the key so equal keys render equally in every
	// table that shares the prefix and width (which is how join keys line up).
	Prefix string
	Width  [2]int
}

func (c columnSpec) field() storage.Field {
	return storage.Field{Name: c.Name, Type: c.Type, Nullable: c.Nulls > 0}
}

// keyString renders key k as Prefix plus zero-padded decimal digits, total
// width cycling through Width[0]..Width[1].
func (c columnSpec) keyString(k int64) string {
	w := c.Width[0]
	if span := c.Width[1] - c.Width[0] + 1; span > 1 {
		w += int(k % int64(span))
	}
	digits := strconv.FormatInt(k, 10)
	pad := w - len(c.Prefix) - len(digits)
	if pad < 0 {
		pad = 0
	}
	return c.Prefix + strings.Repeat("0", pad) + digits
}

// corpusHasher folds every generated cell, in generation order, into one
// digest.
type corpusHasher struct {
	h   hash.Hash
	buf [9]byte
}

func newCorpusHasher() *corpusHasher { return &corpusHasher{h: sha256.New()} }

func (c *corpusHasher) cell(v storage.Value) {
	switch x := v.(type) {
	case nil:
		c.h.Write([]byte{0})
	case int64:
		c.buf[0] = 1
		binary.LittleEndian.PutUint64(c.buf[1:], uint64(x))
		c.h.Write(c.buf[:])
	case float64:
		c.buf[0] = 2
		binary.LittleEndian.PutUint64(c.buf[1:], math.Float64bits(x))
		c.h.Write(c.buf[:])
	case string:
		c.buf[0] = 3
		binary.LittleEndian.PutUint64(c.buf[1:], uint64(len(x)))
		c.h.Write(c.buf[:])
		c.h.Write([]byte(x))
	case bool:
		b := byte(4)
		if x {
			b = 5
		}
		c.h.Write([]byte{b})
	default:
		// Any other cell type (the Labs generator's timestamps are int64
		// already) hashes through its canonical string form.
		s := storage.AsString(v)
		c.buf[0] = 6
		binary.LittleEndian.PutUint64(c.buf[1:], uint64(len(s)))
		c.h.Write(c.buf[:])
		c.h.Write([]byte(s))
	}
}

// table folds an existing table (the Labs generator's output) into the hash,
// in partition order.
func (c *corpusHasher) table(t *storage.Table) {
	c.h.Write([]byte(t.Name()))
	t.Scan(func(r storage.Row) bool {
		for _, v := range r {
			c.cell(v)
		}
		return true
	})
}

func (c *corpusHasher) sum() string { return hex.EncodeToString(c.h.Sum(nil))[:16] }

// generate materialises spec as a storage.Table with the given partition
// count, folding every cell into hasher. Each column draws from its own RNG
// stream, derived from the seed, the table's name and the column's position.
func generate(spec tableSpec, seed int64, partitions int, hasher *corpusHasher) (*storage.Table, error) {
	fields := make([]storage.Field, len(spec.Columns))
	draws := make([]func(i int) storage.Value, len(spec.Columns))
	name := fnv.New64a()
	name.Write([]byte(spec.Name))
	streams := rand.New(rand.NewSource(seed ^ int64(name.Sum64())))
	for ci, col := range spec.Columns {
		fields[ci] = col.field()
		draw, err := col.drawer(rand.New(rand.NewSource(streams.Int63())))
		if err != nil {
			return nil, fmt.Errorf("corpus: table %s column %s: %w", spec.Name, col.Name, err)
		}
		draws[ci] = draw
	}
	schema, err := storage.NewSchema(fields...)
	if err != nil {
		return nil, fmt.Errorf("corpus: table %s: %w", spec.Name, err)
	}
	t, err := storage.NewTable(spec.Name, schema, storage.WithPartitions(partitions))
	if err != nil {
		return nil, err
	}
	for i := 0; i < spec.Rows; i++ {
		row := make(storage.Row, len(draws))
		for ci, draw := range draws {
			row[ci] = draw(i)
			hasher.cell(row[ci])
		}
		if err := t.Append(row); err != nil {
			return nil, fmt.Errorf("corpus: %w", err)
		}
	}
	return t, nil
}

// drawer compiles the column spec into a per-row value function.
func (c columnSpec) drawer(rng *rand.Rand) (func(i int) storage.Value, error) {
	if c.Gen != "serial" && c.Card < 1 {
		return nil, fmt.Errorf("generator %q needs card >= 1", c.Gen)
	}
	var key func(i int) int64
	switch c.Gen {
	case "serial":
		key = func(i int) int64 { return int64(i) }
	case "cycle":
		key = func(i int) int64 { return int64(i % c.Card) }
	case "uniform":
		key = func(int) int64 { return rng.Int63n(int64(c.Card)) }
	case "zipf":
		z := rand.NewZipf(rng, c.Skew, 1, uint64(c.Card-1))
		if z == nil {
			return nil, fmt.Errorf("zipf needs skew > 1, got %v", c.Skew)
		}
		key = func(int) int64 { return int64(z.Uint64()) }
	default:
		return nil, fmt.Errorf("unknown generator %q", c.Gen)
	}
	var value func(k int64) storage.Value
	switch {
	case c.Type == storage.TypeInt:
		value = func(k int64) storage.Value { return k }
	case c.Type == storage.TypeFloat:
		step := c.Step
		if step == 0 {
			step = 1
		}
		value = func(k int64) storage.Value { return float64(k) * step }
	case c.Type == storage.TypeString:
		value = func(k int64) storage.Value { return c.keyString(k) }
	default:
		return nil, fmt.Errorf("unsupported column type %s", c.Type)
	}
	if c.Nulls <= 0 {
		return func(i int) storage.Value { return value(key(i)) }, nil
	}
	return func(i int) storage.Value {
		k := key(i) // drawn even for a null cell, so null density does not shift the key stream
		if rng.Float64() < c.Nulls {
			return nil
		}
		return value(k)
	}, nil
}
