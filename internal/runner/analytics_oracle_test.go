package runner

// analytics_oracle_test.go holds the runner's typed analytics inputs to the
// builders they replaced, kept here unchanged as oracles: the string-keyed
// basket builder of association and the per-row event loop of
// sessionization.

import (
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/storage"
)

// basketsOracle is the basket builder basketsOf replaced: one transaction per
// distinct rendering of the transaction column, in first-seen row order,
// holding the rendered items in row order ("" included; Apriori skips it).
func basketsOracle(batches []*storage.ColumnBatch, txIdx, itemIdx int) [][]string {
	basketOf := map[string]int{}
	var txList [][]string
	for _, b := range batches {
		for i := 0; i < b.Len(); i++ {
			key := b.StringAt(i, txIdx)
			t, ok := basketOf[key]
			if !ok {
				t = len(txList)
				basketOf[key] = t
				txList = append(txList, nil)
			}
			txList[t] = append(txList[t], b.StringAt(i, itemIdx))
		}
	}
	return txList
}

// oracleEvent is the sessionizer's former event object.
type oracleEvent struct {
	UserID    int64
	At        time.Time
	Converted bool
}

// sessionEventsOracle is the per-row event loop intColumn and boolColumn
// replaced.
func sessionEventsOracle(batches []*storage.ColumnBatch, n, userIdx, timeIdx, labelIdx int) []oracleEvent {
	events := make([]oracleEvent, 0, n)
	for _, b := range batches {
		for i := 0; i < b.Len(); i++ {
			var at time.Time
			if ms, ok := b.IntAt(i, timeIdx); ok {
				at = time.UnixMilli(ms).UTC()
			}
			user, _ := b.IntAt(i, userIdx)
			converted, _ := b.BoolAt(i, labelIdx)
			events = append(events, oracleEvent{
				UserID:    user,
				At:        at,
				Converted: converted,
			})
		}
	}
	return events
}

// oracleCells are the cells the fuzz targets draw from, per column type; a
// nil is a null. The floats include -0 beside +0 and two NaNs with different
// payloads, the strings "" and strings that look like other types' values.
var oracleCells = map[storage.FieldType][]storage.Value{
	storage.TypeInt:    {nil, int64(0), int64(1), int64(-1), int64(7), int64(math.MaxInt64), int64(math.MinInt64)},
	storage.TypeTime:   {nil, int64(0), int64(-62135596800000), int64(1488362400000), int64(math.MinInt64)},
	storage.TypeString: {nil, "", "0", "milk", "bread", "NaN", "true"},
	storage.TypeFloat: {nil, 0.0, math.Copysign(0, -1), math.NaN(), math.Float64frombits(0x7ff8000000000001),
		1.5, math.Inf(1), math.Inf(-1)},
	storage.TypeBool: {nil, true, false},
}

var oracleTypes = []storage.FieldType{
	storage.TypeInt, storage.TypeString, storage.TypeFloat, storage.TypeBool, storage.TypeTime,
}

// oracleBatches decodes data into batches of a nullable two-column schema of
// the given types: each two bytes are one row's cells, and a new batch starts
// every per rows.
func oracleBatches(t *testing.T, a, b storage.FieldType, per int, data []byte) []*storage.ColumnBatch {
	t.Helper()
	schema := storage.MustSchema(
		storage.Field{Name: "a", Type: a, Nullable: true},
		storage.Field{Name: "b", Type: b, Nullable: true},
	)
	var batches []*storage.ColumnBatch
	for ; len(data) >= 2; data = data[2:] {
		if len(batches) == 0 || batches[len(batches)-1].Len() == per {
			batches = append(batches, storage.NewColumnBatch(schema, per))
		}
		row := storage.Row{
			oracleCells[a][int(data[0])%len(oracleCells[a])],
			oracleCells[b][int(data[1])%len(oracleCells[b])],
		}
		if err := batches[len(batches)-1].AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}
	return batches
}

// FuzzAssociationBaskets holds basketsOf to the string-keyed builder it
// replaced: over transaction columns of every type, with nulls, "", -0, +0
// and NaNs, and item columns with nulls and "", the baskets must be the
// oracle's, in first-seen order, with the oracle's "" items left out.
func FuzzAssociationBaskets(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(3), []byte{0, 2, 1, 3, 0, 3, 1, 0, 2, 4, 0, 1})
	f.Add(uint8(1), uint8(0), uint8(2), []byte{0, 2, 1, 3, 0, 3, 1, 1, 2, 4})
	f.Add(uint8(2), uint8(0), uint8(4), []byte{1, 2, 2, 3, 3, 4, 4, 2, 0, 3, 1, 4})
	f.Add(uint8(3), uint8(1), uint8(1), []byte{0, 2, 1, 3, 2, 1, 0, 0, 1, 5})
	f.Add(uint8(4), uint8(0), uint8(7), []byte{0, 2, 1, 3, 2, 4, 4, 1, 0, 1})
	f.Fuzz(func(t *testing.T, txType, itemType, per uint8, data []byte) {
		tx := oracleTypes[int(txType)%len(oracleTypes)]
		item := []storage.FieldType{storage.TypeString, storage.TypeInt}[itemType%2]
		batches := oracleBatches(t, tx, item, 1+int(per%8), data)
		var want [][]string
		for _, basket := range basketsOracle(batches, 0, 1) {
			want = append(want, slices.DeleteFunc(basket, func(s string) bool { return s == "" }))
		}
		got := basketsOf(batches, 0, 1)
		if got.Len() != len(want) {
			t.Fatalf("%s × %s: %d baskets, oracle %d: %v", tx, item, got.Len(), len(want), want)
		}
		for k, name := range got.Names {
			if name == "" || slices.Index(got.Names, name) != k {
				t.Fatalf("item names %q are not distinct and non-empty", got.Names)
			}
		}
		for b := range want {
			var names []string
			for _, id := range got.Items[got.Start[b]:got.Start[b+1]] {
				names = append(names, got.Names[id])
			}
			if !slices.Equal(names, want[b]) {
				t.Fatalf("%s × %s: basket %d = %q, oracle %q", tx, item, b, names, want[b])
			}
		}
	})
}

// TestSessionColumnsMatchEventOracle holds the sessionization inputs to the
// event loop they replaced, for a user column of every type, time columns
// with nulls (the zero time) or of a type IntAt converts, a label column of
// every type, and absent time and label columns.
func TestSessionColumnsMatchEventOracle(t *testing.T) {
	data := make([]byte, 0, 2*300)
	for i := 0; i < 300; i++ {
		data = append(data, byte(i*7+i/13), byte(i*5+i/11))
	}
	for _, a := range oracleTypes {
		for _, b := range oracleTypes {
			batches := oracleBatches(t, a, b, 64, data)
			n := len(data) / 2
			for _, cols := range [][3]int{{0, 1, 1}, {1, 0, 0}, {0, -1, 1}, {0, 1, -1}} {
				user, at, label := cols[0], cols[1], cols[2]
				want := sessionEventsOracle(batches, n, user, at, label)
				users := intColumn(batches, n, user, 0)
				times := intColumn(batches, n, at, zeroTimeMs)
				converted := boolColumn(batches, n, label)
				if len(users) != n || len(times) != n || len(converted) != n {
					t.Fatalf("%s × %s %v: %d/%d/%d values for %d rows", a, b, cols, len(users), len(times), len(converted), n)
				}
				for i, ev := range want {
					if users[i] != ev.UserID || times[i] != ev.At.UnixMilli() || converted[i] != ev.Converted {
						t.Fatalf("%s × %s %v row %d: (%d, %d, %v), oracle (%d, %d, %v)", a, b, cols, i,
							users[i], times[i], converted[i], ev.UserID, ev.At.UnixMilli(), ev.Converted)
					}
				}
			}
		}
	}
}
