package store

import (
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/storage"
)

// waitGoroutines polls until the goroutine count returns to at most base.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines did not settle: %d > baseline %d\n%s",
				runtime.NumGoroutine(), base, buf[:n])
		}
		runtime.Gosched()
		time.Sleep(5 * time.Millisecond)
	}
}

// splitBatches cuts rows into batches of random lengths, some empty.
func splitBatches(t *testing.T, rng *rand.Rand, schema *storage.Schema, rows []storage.Row) []*storage.ColumnBatch {
	t.Helper()
	var out []*storage.ColumnBatch
	for lo := 0; lo <= len(rows); {
		hi := min(len(rows), lo+rng.Intn(300))
		b, err := storage.BatchFromRows(schema, rows[lo:hi])
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
		if hi == len(rows) {
			break
		}
		lo = hi
	}
	return out
}

// TestConcurrentSavesAndScan runs two saves of different tables and a scan
// of a third at once, with more encoding goroutines than CPUs. Every table
// must read back exactly, and no goroutine a save started may outlive it. A
// save that fails validation starts no goroutine at all.
func TestConcurrentSavesAndScan(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	s, err := Open("/db", WithFS(NewFaultFS()), WithFrameRows(64), WithSegmentRows(256))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	schema := chunkSchema()
	rng := rand.New(rand.NewSource(11))
	rowsA := chunkRows(rng, 1500, 0, 40)
	rowsB := chunkRows(rng, 1100, 5000, 5000)
	rowsC := chunkRows(rng, 900, 9000, 3)
	batchesA := splitBatches(t, rng, schema, rowsA)
	batchesB := splitBatches(t, rng, schema, rowsB)
	if err := s.SaveRows("C", schema, rowsC); err != nil {
		t.Fatal(err)
	}

	base := runtime.NumGoroutine()
	var wg sync.WaitGroup
	errs := make([]error, 3)
	var scanned []storage.Row
	wg.Add(3)
	go func() {
		defer wg.Done()
		errs[0] = s.SaveTable("A", schema, batchesA)
	}()
	go func() {
		defer wg.Done()
		errs[1] = s.SaveTable("B", schema, batchesB)
	}()
	go func() {
		defer wg.Done()
		_, errs[2] = s.Scan("C", nil, func(b *storage.ColumnBatch) error {
			for i := 0; i < b.Len(); i++ {
				scanned = append(scanned, b.Row(i))
			}
			return nil
		})
	}()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent call %d: %v", i, err)
		}
	}
	waitGoroutines(t, base)
	if !reflect.DeepEqual(scanned, rowsC) {
		t.Fatalf("the concurrent scan read %d rows, want %d (or different cells)", len(scanned), len(rowsC))
	}
	for name, want := range map[string][]storage.Row{"A": rowsA, "B": rowsB, "C": rowsC} {
		got, err := s.Rows(name)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("table %s reads back %d rows, want %d (or different cells)", name, len(got), len(want))
		}
	}

	// The last batch claims ten rows over three-value columns: validation
	// must reject it before any frame, of it or of the valid batches ahead
	// of it, is encoded. An encoding goroutine would index past its vectors.
	cols := make([]storage.Column, schema.Len())
	for c := range cols {
		cols[c] = storage.NewColumnBuilder(schema.Field(c).Type, 3)
	}
	short, err := storage.BatchOfColumns(schema, 10, cols)
	if err != nil {
		t.Fatal(err)
	}
	base = runtime.NumGoroutine()
	err = s.SaveTable("A", schema, append(batchesB, short))
	if n := runtime.NumGoroutine(); n != base {
		t.Fatalf("a save that failed validation left %d goroutines, baseline %d", n, base)
	}
	if !errors.Is(err, storage.ErrInvalidBatch) {
		t.Fatalf("SaveTable with a short batch = %v, want ErrInvalidBatch", err)
	}
	if got, err := s.Rows("A"); err != nil || !reflect.DeepEqual(got, rowsA) {
		t.Fatalf("after the failed save table A reads %d rows (err %v), want the previous %d", len(got), err, len(rowsA))
	}
}
