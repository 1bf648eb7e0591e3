package dataflow

// sortkey_test.go holds Sort's normalized keys to a boxed oracle: a stable
// sort of row indices under refSortCompare, per key and direction. It covers
// the in-memory selection sort (radix and pdqsort paths), the run merge's
// comparator and the range split, over every column type and the values
// where a word encoding can go wrong: nulls, -0/+0, NaN, infinities, ints
// that round to one float64, and strings that share an 8-byte prefix.

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/storage"
)

// sortKeySchema has one nullable column of every field type.
var sortKeySchema = storage.MustSchema(
	storage.Field{Name: "i", Type: storage.TypeInt, Nullable: true},
	storage.Field{Name: "t", Type: storage.TypeTime, Nullable: true},
	storage.Field{Name: "f", Type: storage.TypeFloat, Nullable: true},
	storage.Field{Name: "s", Type: storage.TypeString, Nullable: true},
	storage.Field{Name: "b", Type: storage.TypeBool, Nullable: true},
)

var (
	sortKeyInts = []int64{0, 1, -1, 7, 1 << 53, 1<<53 + 1, -(1 << 53), -(1<<53 + 1),
		math.MaxInt64, math.MinInt64, math.MaxInt64 - 1}
	sortKeyFloats = []float64{0, math.Copysign(0, -1), 1, -1, 0.5, -0.5, 1 << 53,
		math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(math.NaN(), -1),
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64}
	sortKeyStrings = []string{"", "a", "a\x00", "b", "abcdefg", "abcdefgh", "abcdefgh\x00",
		"abcdefghX", "abcdefghY", "abcdefghXY", "\x00", "\xff\xff\xff\xff\xff\xff\xff\xff\xff", "zz"}
)

// sortKeyRows draws n rows over sortKeySchema from the value pools above,
// with about one null cell in six.
func sortKeyRows(rng *rand.Rand, n int) []storage.Row {
	rows := make([]storage.Row, n)
	for r := range rows {
		row := storage.Row{
			sortKeyInts[rng.Intn(len(sortKeyInts))],
			int64(rng.Intn(5)) * 3_600_000,
			sortKeyFloats[rng.Intn(len(sortKeyFloats))],
			sortKeyStrings[rng.Intn(len(sortKeyStrings))],
			rng.Intn(2) == 0,
		}
		if rng.Intn(2) == 0 {
			row[0] = int64(rng.Intn(9) - 4)
		}
		for c := range row {
			if rng.Intn(6) == 0 {
				row[c] = nil
			}
		}
		rows[r] = row
	}
	return rows
}

// oracleCompare orders two boxed rows under the sort orders.
func oracleCompare(schema *storage.Schema, orders []SortOrder, a, b storage.Row) int {
	for _, o := range orders {
		c := schema.IndexOf(o.Column)
		d := refSortCompare(a[c], b[c])
		if o.Descending {
			d = -d
		}
		if d != 0 {
			return d
		}
	}
	return 0
}

// oracleSelection is the stable sort permutation of rows under the orders.
func oracleSelection(schema *storage.Schema, orders []SortOrder, rows []storage.Row) []int32 {
	sel := make([]int32, len(rows))
	for i := range sel {
		sel[i] = int32(i)
	}
	sort.SliceStable(sel, func(x, y int) bool {
		return oracleCompare(schema, orders, rows[sel[x]], rows[sel[y]]) < 0
	})
	return sel
}

func sign(x int) int { return cmp.Compare(x, 0) }

func FuzzSortKeys(f *testing.F) {
	// keySpec packs up to three keys: the low two bits give the key count
	// minus one (3 reads as 1), then per key three bits of column and one of
	// direction.
	for _, seed := range []struct {
		seed    int64
		size    uint16
		keySpec uint32
	}{
		{1, 0, 0}, {2, 1, 0}, {3, 2, 1<<2 | 1<<5}, {4, 200, 2 << 2},
		{5, 3000, 3 << 2}, {6, 3000, 1 | 3<<2}, {7, 4500, 2 | 2<<2 | 1<<5 | 4<<6 | 1<<9},
		{8, 60, 1 | 4<<2 | 1<<5}, {9, 5000, 1 << 5}, {10, 5000, 3<<2 | 1<<5},
	} {
		f.Add(seed.seed, seed.size, seed.keySpec)
	}
	f.Fuzz(func(t *testing.T, seed int64, size uint16, keySpec uint32) {
		rng := rand.New(rand.NewSource(seed))
		n := int(size) % 6000
		rows := sortKeyRows(rng, n)
		nKeys := int(keySpec&3)%3 + 1
		orders := make([]SortOrder, nKeys)
		for k := range orders {
			bits := keySpec >> (2 + 4*k)
			col := int(bits&7) % sortKeySchema.Len()
			orders[k] = SortOrder{Column: sortKeySchema.Field(col).Name, Descending: bits&8 != 0}
		}
		b, err := storage.BatchFromRows(sortKeySchema, rows)
		if err != nil {
			t.Fatal(err)
		}
		c, err := newBatchComparator(sortKeySchema, orders)
		if err != nil {
			t.Fatal(err)
		}

		got, want := c.sortedSelection(b), oracleSelection(sortKeySchema, orders, rows)
		if len(got) != len(want) {
			t.Fatalf("%v: selection has %d rows, want %d", orders, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%v: selection[%d] = row %d %v, oracle row %d %v",
					orders, i, got[i], rows[got[i]], want[i], rows[want[i]])
			}
		}
		if n == 0 {
			return
		}

		// The merge compares rows of different batches: compare against a
		// gathered copy, whose vectors are separate.
		sorted := b.Gather(want)
		for p := 0; p < 300; p++ {
			x, y := rng.Intn(n), rng.Intn(n)
			wantSign := oracleCompare(sortKeySchema, orders, rows[x], rows[want[y]])
			if got := sign(c.Compare(b, x, sorted, y)); got != wantSign {
				t.Fatalf("%v: Compare(%v, %v) = %d, oracle %d", orders, rows[x], rows[want[y]], got, wantSign)
			}
		}

		// Range split: a row's partition is the number of split points it
		// does not sort before.
		at := make([]int, 1+rng.Intn(7))
		for i := range at {
			at[i] = rng.Intn(n)
		}
		slices.Sort(at)
		points := make([]int32, len(at))
		for i, pos := range at {
			points[i] = want[pos]
		}
		split := newRangeSplit(c, b.Gather(points))
		for r := range rows {
			wantPart := 0
			for _, p := range points {
				if oracleCompare(sortKeySchema, orders, rows[r], rows[p]) >= 0 {
					wantPart++
				}
			}
			if got := split.partition(b, r); got != wantPart {
				t.Fatalf("%v: row %v lands in range partition %d, want %d", orders, rows[r], got, wantPart)
			}
		}
	})
}

// TestSortNaNKeys sorts floats with NaNs, infinities, signed zeros and nulls
// in both directions, in one task and range-partitioned over two, in memory
// and as an external merge under a one-byte budget: every result must be
// the oracle's stable permutation (an id column records it).
func TestSortNaNKeys(t *testing.T) {
	schema := storage.MustSchema(
		storage.Field{Name: "v", Type: storage.TypeFloat, Nullable: true},
		storage.Field{Name: "id", Type: storage.TypeInt},
	)
	pool := []storage.Value{math.NaN(), 3.0, 1.0, 2.0, math.Inf(1), math.Inf(-1),
		0.0, math.Copysign(0, -1), nil, math.Copysign(math.NaN(), -1)}
	// The first rows are [3, NaN, 1, 2], which a comparator treating NaN as
	// equal to everything leaves unsorted.
	rows := []storage.Row{{3.0, int64(0)}, {math.NaN(), int64(1)}, {1.0, int64(2)}, {2.0, int64(3)}}
	rng := rand.New(rand.NewSource(48))
	for i := len(rows); i < 600; i++ {
		rows = append(rows, storage.Row{pool[rng.Intn(len(pool))], int64(i)})
	}
	for _, n := range []int{4, len(rows)} {
		for _, desc := range []bool{false, true} {
			orders := []SortOrder{{Column: "v", Descending: desc}}
			want := oracleSelection(schema, orders, rows[:n])
			for _, arm := range []struct {
				name string
				opts []EngineOption
			}{
				{"one-task", []EngineOption{WithShufflePartitions(1)}},
				{"two-ranges", []EngineOption{WithShufflePartitions(2)}},
				{"one-task-external", []EngineOption{WithShufflePartitions(1), WithMemoryBudget(1)}},
				{"two-ranges-external", []EngineOption{WithShufflePartitions(2), WithMemoryBudget(1)}},
			} {
				name := fmt.Sprintf("n=%d/desc=%v/%s", n, desc, arm.name)
				res, err := spillEngine(t, arm.opts...).Collect(context.Background(),
					refFromRows("nan", schema, rows[:n], 1).Sort(orders...))
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if n > 2*minRowsPerSortPartition && arm.name == "two-ranges" && res.Stats.SortSampledRows == 0 {
					t.Errorf("%s: sort was not range-partitioned", name)
				}
				if len(res.Rows) != n {
					t.Fatalf("%s: %d rows, want %d", name, len(res.Rows), n)
				}
				for i, r := range res.Rows {
					if id := r[1].(int64); id != int64(want[i]) {
						t.Fatalf("%s: row %d is id %d (%v), oracle id %d (%v)",
							name, i, id, r[0], want[i], rows[want[i]][0])
					}
				}
			}
		}
	}
	// Ascending: null, NaN, then -Inf first among the numbers.
	asc := oracleSelection(schema, []SortOrder{{Column: "v"}}, rows[:4])
	if got := []int32{1, 2, 3, 0}; !slices.Equal(asc, got) {
		t.Errorf("oracle orders [3, NaN, 1, 2] as %v, want %v", asc, got)
	}
}
