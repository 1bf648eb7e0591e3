package storage

import (
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"
)

// runsTestSchema is the two-column schema the run-store tests sort on: a
// duplicate-heavy key plus a unique id that makes stability observable.
func runsTestSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema(
		Field{Name: "k", Type: TypeInt, Nullable: true},
		Field{Name: "id", Type: TypeInt},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// cmpByK orders rows by column 0 only (nulls first), so duplicate keys expose
// merge stability through the untouched id column.
func cmpByK(a *ColumnBatch, ai int, b *ColumnBatch, bi int) int {
	return CompareValues(a.Value(ai, 0), b.Value(bi, 0))
}

// buildRuns splits rows into sorted chunks of chunkRows and appends each as a
// run, returning the reference: the stable sort of all rows.
func buildRuns(t *testing.T, s *RunStore, schema *Schema, rows []Row, chunkRows int) []Row {
	t.Helper()
	for off := 0; off < len(rows); off += chunkRows {
		end := off + chunkRows
		if end > len(rows) {
			end = len(rows)
		}
		chunk := append([]Row(nil), rows[off:end]...)
		sort.SliceStable(chunk, func(i, j int) bool {
			return CompareValues(chunk[i][0], chunk[j][0]) < 0
		})
		b, err := BatchFromRows(schema, chunk)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.AppendRun(b); err != nil {
			t.Fatal(err)
		}
	}
	want := append([]Row(nil), rows...)
	sort.SliceStable(want, func(i, j int) bool {
		return CompareValues(want[i][0], want[j][0]) < 0
	})
	return want
}

func mergeAll(t *testing.T, s *RunStore, outRows int) []Row {
	t.Helper()
	var got []Row
	err := s.Merge(cmpByK, outRows, func(b *ColumnBatch) error {
		got = append(got, b.Rows()...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func rowsEqual(t *testing.T, got, want []Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("merged %d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if CompareValues(got[i][0], want[i][0]) != 0 || CompareValues(got[i][1], want[i][1]) != 0 {
			t.Fatalf("row %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestRunStoreMergeMatchesStableSort drives random run counts, run sizes and
// duplicate-heavy keys (with nulls) through resident and fully-spilled stores
// and requires the loser-tree merge to reproduce a global stable sort.
func TestRunStoreMergeMatchesStableSort(t *testing.T) {
	schema := runsTestSchema(t)
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(5000)
		rows := make([]Row, n)
		for i := range rows {
			var k Value
			if rng.Intn(10) > 0 {
				k = int64(rng.Intn(7)) // heavy duplicates force tie-breaking
			}
			rows[i] = Row{k, int64(i)}
		}
		chunk := 1 + rng.Intn(700)
		for _, budget := range []int64{0, 1} {
			s, err := NewRunStore(schema, budget)
			if err != nil {
				t.Fatal(err)
			}
			want := buildRuns(t, s, schema, rows, chunk)
			got := mergeAll(t, s, 1+rng.Intn(600))
			rowsEqual(t, got, want)
			if budget > 0 && n > 0 && s.SpilledBatches() == 0 {
				t.Errorf("seed %d: one-byte budget never spilled a run", seed)
			}
			if budget == 0 && s.SpilledBatches() != 0 {
				t.Errorf("seed %d: unlimited budget must not spill", seed)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestRunStoreSingleRunAndEmpty covers the degenerate merges: no runs at all
// and a single run (k=1 loser tree).
func TestRunStoreSingleRunAndEmpty(t *testing.T) {
	schema := runsTestSchema(t)
	s, err := NewRunStore(schema, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := mergeAll(t, s, 10); len(got) != 0 {
		t.Fatalf("empty store merged %d rows", len(got))
	}
	if err := s.AppendRun(nil); err != nil {
		t.Fatal(err)
	}
	if s.Runs() != 0 {
		t.Fatal("nil/empty runs must not be recorded")
	}
	rows := []Row{{int64(1), int64(0)}, {int64(2), int64(1)}, {int64(2), int64(2)}}
	b, err := BatchFromRows(schema, rows)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AppendRun(b); err != nil {
		t.Fatal(err)
	}
	rowsEqual(t, mergeAll(t, s, 2), rows)
}

// TestRunStoreBudgetBoundsResidency proves the external-sort memory claim:
// with a budget small enough to spill every run, the store's resident
// high-water mark stays under runs × the largest run's footprint — the merge
// holds frames, never whole partitions.
func TestRunStoreBudgetBoundsResidency(t *testing.T) {
	schema := runsTestSchema(t)
	s, err := NewRunStore(schema, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const chunk = 2048
	rows := make([]Row, 16*chunk)
	for i := range rows {
		rows[i] = Row{int64(i % 97), int64(i)}
	}
	var maxRunMem int64
	for off := 0; off < len(rows); off += chunk {
		b, err := BatchFromRows(schema, rows[off:off+chunk])
		if err != nil {
			t.Fatal(err)
		}
		if m := BatchMemSize(b); m > maxRunMem {
			maxRunMem = m
		}
		if err := s.AppendRun(b); err != nil {
			t.Fatal(err)
		}
	}
	got := mergeAll(t, s, chunk)
	if len(got) != len(rows) {
		t.Fatalf("merged %d rows, want %d", len(got), len(rows))
	}
	peak, runs := s.MaxResidentBytes(), int64(s.Runs())
	if peak == 0 {
		t.Fatal("merge must account restored frame bytes")
	}
	if peak > runs*maxRunMem {
		t.Errorf("peak resident %d exceeds runs(%d) × chunk(%d)", peak, runs, maxRunMem)
	}
	// The frame split buys real headroom: one 1024-row frame per run, not one
	// whole 2048-row run per run.
	if half := runs * maxRunMem / 2; peak > half+maxRunMem {
		t.Errorf("peak resident %d suggests whole runs were restored (frame bound %d)", peak, half+maxRunMem)
	}
	if s.RestoredBatches() == 0 {
		t.Error("spilled merge must restore frames")
	}
}

// TestRunStoreCloseRemovesSpillFile checks the temp file lifecycle.
func TestRunStoreCloseRemovesSpillFile(t *testing.T) {
	schema := runsTestSchema(t)
	s, err := NewRunStore(schema, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BatchFromRows(schema, []Row{{int64(1), int64(0)}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AppendRun(b); err != nil {
		t.Fatal(err)
	}
	if s.store.file == nil {
		t.Fatal("budgeted append must open a spill file")
	}
	name := s.store.file.Name()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(name); !os.IsNotExist(err) {
		t.Errorf("spill file %s must be removed on Close", name)
	}
	if err := s.Close(); err != nil {
		t.Errorf("double Close must be a no-op: %v", err)
	}
}

// TestNewRunStoreRequiresSchema pins the constructor contract.
func TestNewRunStoreRequiresSchema(t *testing.T) {
	if _, err := NewRunStore(nil, 0); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("nil schema must be rejected, got %v", err)
	}
}
