package store

// prune_test.go holds zone-map pruning to plain-Go oracles over the saved
// rows: whatever Scan skips, the rows it yields, filtered row by row, must be
// exactly the saved rows that pass the same filter; and it must skip exactly
// the segments and frames that the rows themselves prove empty.

import (
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/storage"
)

// pruneSchema has one nullable column of every type a predicate can name.
func pruneSchema() *storage.Schema {
	return storage.MustSchema(
		storage.Field{Name: "i", Type: storage.TypeInt, Nullable: true},
		storage.Field{Name: "t", Type: storage.TypeTime, Nullable: true},
		storage.Field{Name: "f", Type: storage.TypeFloat, Nullable: true},
		storage.Field{Name: "s", Type: storage.TypeString, Nullable: true},
		storage.Field{Name: "b", Type: storage.TypeBool, Nullable: true},
	)
}

// pruneInts are the int and time values a table and a predicate draw from:
// the edges of float64's exact range and of int64.
var pruneInts = []int64{
	0, 1, -1, 7,
	1<<53 - 1, 1 << 53, 1<<53 + 1, 1<<53 + 2,
	-(1<<53 - 1), -(1 << 53), -(1<<53 + 1), -(1<<53 + 2),
	math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1,
}

var pruneFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, 1 << 53, 1<<53 + 2,
	math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64,
	math.SmallestNonzeroFloat64,
}

var pruneStrings = []string{"", "a", "ab", "abc", "abd", "b", "key-0001", "key-0002", "key-01", "é", "true", "false"}

// pruneInt draws from pruneInts or from a few values either side of ±2^53.
func pruneInt(rng *rand.Rand) int64 {
	if rng.Intn(3) == 0 {
		return int64(rng.Intn(2)*2-1)*(1<<53) + int64(rng.Intn(7)-3)
	}
	return pruneInts[rng.Intn(len(pruneInts))]
}

// pruneString draws from pruneStrings or cuts a substring out of raw, which
// the fuzzer mutates freely (invalid UTF-8 included).
func pruneString(rng *rand.Rand, raw []byte) string {
	if len(raw) > 0 && rng.Intn(3) == 0 {
		lo := rng.Intn(len(raw))
		return string(raw[lo : lo+rng.Intn(len(raw)-lo+1)])
	}
	return pruneStrings[rng.Intn(len(pruneStrings))]
}

// pruneRows returns n rows of pruneSchema. Each column runs in blocks of
// random length that are never, sometimes or always null, so small frames
// are often all-null in a column.
func pruneRows(rng *rand.Rand, n int, raw []byte) []storage.Row {
	rows := make([]storage.Row, n)
	for i := range rows {
		rows[i] = storage.Row{
			pruneInt(rng),
			pruneInt(rng),
			pruneFloats[rng.Intn(len(pruneFloats))],
			pruneString(rng, raw),
			rng.Intn(2) == 0,
		}
	}
	for c := range pruneSchema().Len() {
		for lo := 0; lo < n; {
			hi := min(n, lo+1+rng.Intn(12))
			rate := []int{0, 4, 1}[rng.Intn(3)] // null one row in rate; 0 never
			for i := lo; i < hi; i++ {
				if rate > 0 && rng.Intn(rate) == 0 {
					rows[i][c] = nil
				}
			}
			lo = hi
		}
	}
	return rows
}

// prunePred draws a predicate on a random column, its value typed the way
// ParsePred types it against the schema: int64 for int and time columns,
// float64 for floats, the raw string otherwise.
func prunePred(rng *rand.Rand, schema *storage.Schema, raw []byte) Pred {
	f := schema.Field(rng.Intn(schema.Len()))
	p := Pred{Col: f.Name, Op: PredOp(rng.Intn(5))}
	switch f.Type {
	case storage.TypeInt, storage.TypeTime:
		p.Value = pruneInt(rng)
	case storage.TypeFloat:
		p.Value = pruneFloats[rng.Intn(len(pruneFloats))]
	default:
		p.Value = pruneString(rng, raw)
	}
	return p
}

// holds reports "x op v" with Go's own comparison operators: every
// comparison with NaN is false.
func holds[T int64 | float64 | string](x, v T, op PredOp) bool {
	switch op {
	case OpEq:
		return x == v
	case OpGE:
		return x >= v
	case OpLE:
		return x <= v
	case OpGT:
		return x > v
	case OpLT:
		return x < v
	}
	return false
}

// cellHolds reports "x op v" for one cell: a null cell holds nothing, a bool
// cell compares as its strconv text, and a value of another type than the
// cell's holds nothing.
func cellHolds(x storage.Value, v any, op PredOp) bool {
	switch x := x.(type) {
	case int64:
		w, ok := v.(int64)
		return ok && holds(x, w, op)
	case float64:
		w, ok := v.(float64)
		return ok && holds(x, w, op)
	case string:
		w, ok := v.(string)
		return ok && holds(x, w, op)
	case bool:
		w, ok := v.(string)
		return ok && holds(strconv.FormatBool(x), w, op)
	}
	return false
}

// rowMatches is the row-level filter a scan's caller applies.
func rowMatches(schema *storage.Schema, row storage.Row, filter Filter) bool {
	for _, p := range filter {
		if !cellHolds(row[schema.IndexOf(p.Col)], p.Value, p.Op) {
			return false
		}
	}
	return true
}

// provablyEmpty reports whether the cells of column c in rows [lo, hi) prove
// that no row of the span satisfies p, the way bounds can: every cell is
// null; or p is a range comparison with a non-NaN value that no cell
// satisfies; or p is an equality whose value lies below every cell or above
// every cell. A span without recorded bounds (bounded false) proves nothing.
func provablyEmpty(rows []storage.Row, lo, hi, c int, bounded bool, p Pred) bool {
	if !bounded {
		return false
	}
	empty, below, above := true, true, true
	for _, row := range rows[lo:hi] {
		x := row[c]
		if x == nil {
			continue
		}
		if p.Op != OpEq && cellHolds(x, p.Value, p.Op) {
			return false
		}
		empty = false
		below = below && cellHolds(x, p.Value, OpGT)
		above = above && cellHolds(x, p.Value, OpLT)
	}
	if v, ok := p.Value.(float64); ok && math.IsNaN(v) {
		return empty
	}
	return empty || p.Op != OpEq || below || above
}

// boundable reports whether a span records bounds for column c of type typ
// over rows [lo, hi): never for bools, and not past a NaN or infinite float
// (JSON has no spelling for them) or a least or greatest string that is not
// valid UTF-8 (JSON would rewrite it).
func boundable(rows []storage.Row, lo, hi, c int, typ storage.FieldType) bool {
	if typ == storage.TypeBool {
		return false
	}
	var strs []string
	for _, row := range rows[lo:hi] {
		switch x := row[c].(type) {
		case float64:
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return false
			}
		case string:
			strs = append(strs, x)
		}
	}
	return len(strs) == 0 || utf8.ValidString(slices.Min(strs)) && utf8.ValidString(slices.Max(strs))
}

// expectedPruning lays the saved rows out the way SaveTable does — frames of
// frameRows rows, segments closing once they hold segmentRows — and returns
// the ScanStats counts of an exact pruner: a span is skipped when some
// predicate is provably empty over it. A segment can record bounds for a
// column only when each of its frames can.
func expectedPruning(schema *storage.Schema, rows []storage.Row, frameRows, segmentRows int, filter Filter) ScanStats {
	var st ScanStats
	emptyOver := func(lo, hi int, bounded func(c int) bool) bool {
		for _, p := range filter {
			c := schema.IndexOf(p.Col)
			if provablyEmpty(rows, lo, hi, c, bounded(c), p) {
				return true
			}
		}
		return false
	}
	for segLo := 0; segLo < len(rows); {
		segHi := min(len(rows), segLo+(segmentRows+frameRows-1)/frameRows*frameRows)
		var frames [][2]int
		for lo := segLo; lo < segHi; lo += frameRows {
			frames = append(frames, [2]int{lo, min(segHi, lo+frameRows)})
		}
		segBounded := func(c int) bool {
			for _, fr := range frames {
				if !boundable(rows, fr[0], fr[1], c, schema.Field(c).Type) {
					return false
				}
			}
			return true
		}
		if emptyOver(segLo, segHi, segBounded) {
			st.SegmentsSkipped++
		} else {
			st.SegmentsScanned++
			for _, fr := range frames {
				if emptyOver(fr[0], fr[1], func(c int) bool { return boundable(rows, fr[0], fr[1], c, schema.Field(c).Type) }) {
					st.FramesSkipped++
				} else {
					st.FramesScanned++
				}
			}
		}
		segLo = segHi
	}
	return st
}

// sameCell is cell equality with floats compared by their bits, so NaN
// equals itself and -0 differs from +0.
func sameCell(a, b storage.Value) bool {
	if x, ok := a.(float64); ok {
		y, ok := b.(float64)
		return ok && math.Float64bits(x) == math.Float64bits(y)
	}
	return a == b
}

// FuzzScanPruning saves a random table — ints and times at ±2^53 and the
// int64 edges, floats with −0, NaN and ±Inf, strings sharing prefixes or cut
// from the fuzzer's bytes, nullable columns with all-null runs — in small
// frames and segments, then scans it under random conjunctions of one to
// three predicates. The rows a scan yields that pass the row filter must be
// exactly the saved rows that pass it, in order; every segment must be
// counted as scanned or skipped; and the scan must skip exactly the segments
// and frames expectedPruning does.
func FuzzScanPruning(f *testing.F) {
	f.Add(int64(1), []byte("key-0001"), uint8(2), uint8(5), uint8(40))
	f.Add(int64(2), []byte{0xff, 'a', 0xfe}, uint8(1), uint8(1), uint8(17))
	f.Add(int64(3), []byte{}, uint8(7), uint8(23), uint8(200))
	f.Add(int64(4), []byte("ab\x00c"), uint8(3), uint8(8), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, raw []byte, frameRows, segmentRows, n uint8) {
		if len(raw) > 32 {
			raw = raw[:32]
		}
		fr, sr := 1+int(frameRows)%8, 1+int(segmentRows)%24
		s, err := Open("/db", WithFS(NewFaultFS()), WithFrameRows(fr), WithSegmentRows(sr))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		schema := pruneSchema()
		rng := rand.New(rand.NewSource(seed))
		saved := pruneRows(rng, int(n), raw)
		if err := s.SaveRows("p", schema, saved); err != nil {
			t.Fatal(err)
		}
		info, err := s.Info("p")
		if err != nil {
			t.Fatal(err)
		}
		for range 16 {
			filter := make(Filter, 1+rng.Intn(3))
			for i := range filter {
				filter[i] = prunePred(rng, schema, raw)
			}
			var got []storage.Row
			stats, err := s.Scan("p", filter, func(b *storage.ColumnBatch) error {
				for i := 0; i < b.Len(); i++ {
					if row := b.Row(i); rowMatches(schema, row, filter) {
						got = append(got, row)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			var want []storage.Row
			for _, row := range saved {
				if rowMatches(schema, row, filter) {
					want = append(want, row)
				}
			}
			if stats.SegmentsScanned+stats.SegmentsSkipped != info.Segments {
				t.Fatalf("filter %v: %d segments scanned + %d skipped, table has %d",
					filter, stats.SegmentsScanned, stats.SegmentsSkipped, info.Segments)
			}
			exact := expectedPruning(schema, saved, fr, sr, filter)
			exact.Rows = stats.Rows
			if stats != exact {
				t.Fatalf("filter %v: scan pruned %+v, exact pruning %+v", filter, stats, exact)
			}
			if len(got) != len(want) {
				t.Fatalf("filter %v: scan kept %d rows, plain filter %d (%+v)", filter, len(got), len(want), stats)
			}
			for r := range got {
				for c := range got[r] {
					if !sameCell(got[r][c], want[r][c]) {
						t.Fatalf("filter %v: row %d is %v, want %v", filter, r, got[r], want[r])
					}
				}
			}
		}
	})
}

// renderPred writes p the way a -filter flag spells it: the column, the
// operator and the value, its floats in the shortest text that parses back
// to the same bits.
func renderPred(p Pred) string {
	var v string
	switch x := p.Value.(type) {
	case int64:
		v = strconv.FormatInt(x, 10)
	case float64:
		v = strconv.FormatFloat(x, 'g', -1, 64)
	case string:
		v = x
	}
	return p.Col + p.Op.String() + v
}

// predJunk holds suffixes that no rendered int or float extends to another
// number.
var predJunk = []string{"abc", "#", " x", "..", "e", "!1"}

// FuzzParsePred renders random typed predicates over pruneSchema (the values
// prunePred draws, strings cut from the fuzzer's bytes, which may hold
// operator characters) and parses them back: ParsePred must return the same
// column, operator and typed value, and must reject a numeric predicate with
// text after its number. An arbitrary expression must fail or parse to a
// column that holds no operator character.
func FuzzParsePred(f *testing.F) {
	f.Add(int64(1), []byte("a=b"), "s<a=b")
	f.Add(int64(2), []byte("<= x"), "i>=12abc")
	f.Add(int64(3), []byte{0xff, '>', '='}, "s>x<=y")
	f.Fuzz(func(t *testing.T, seed int64, raw []byte, expr string) {
		if len(raw) > 32 {
			raw = raw[:32]
		}
		schema := pruneSchema()
		rng := rand.New(rand.NewSource(seed))
		for range 16 {
			p := prunePred(rng, schema, raw)
			// ParsePred trims the value, and an '=' that follows '<' or '>'
			// belongs to the operator.
			if s, ok := p.Value.(string); ok && (strings.TrimSpace(s) != s ||
				(p.Op == OpLT || p.Op == OpGT) && strings.HasPrefix(s, "=")) {
				continue
			}
			text := renderPred(p)
			got, err := ParsePred(text, schema)
			if err != nil {
				t.Fatalf("ParsePred(%q) of %+v: %v", text, p, err)
			}
			if got.Col != p.Col || got.Op != p.Op || !sameCell(got.Value, p.Value) {
				t.Fatalf("ParsePred(%q) = %+v, want %+v", text, got, p)
			}
			if _, ok := p.Value.(string); !ok {
				text += predJunk[rng.Intn(len(predJunk))]
				if got, err := ParsePred(text, schema); err == nil {
					t.Fatalf("ParsePred(%q) = %+v, want an error for the text after the number", text, got)
				}
			}
		}
		if got, err := ParsePred(expr, schema); err == nil && (got.Col == "" || strings.ContainsAny(got.Col, "<>=")) {
			t.Fatalf("ParsePred(%q) = %+v: the column must be the text before the first operator", expr, got)
		}
	})
}

// TestZonesPruneAllocatesNothing checks that pruning allocates nothing, also
// over more zones than a small map keeps on the stack: it runs once per
// segment and once per frame of every filtered scan.
func TestZonesPruneAllocatesNothing(t *testing.T) {
	zones := make([]ZoneMap, 16)
	for i := range zones {
		lo, hi := int64(i), int64(i+10)
		zones[i] = ZoneMap{Col: "c" + strconv.Itoa(i), MinInt: &lo, MaxInt: &hi}
	}
	// The first predicate holds somewhere in c15's zone; the second excludes
	// c7's, whose minimum is 7.
	filter := Filter{{Col: "c15", Op: OpGE, Value: int64(0)}, {Col: "c7", Op: OpLT, Value: int64(7)}}
	if !zonesPrune(zones, filter) {
		t.Fatal("c7 < 7 must prune a zone with minimum 7")
	}
	if n := testing.AllocsPerRun(100, func() { zonesPrune(zones, filter) }); n != 0 {
		t.Errorf("zonesPrune over %d zones allocated %v times per call, want 0", len(zones), n)
	}
}
