package dataflow

// cancel_spill_test.go locks in the spill-store lifecycle under cancellation:
// a budgeted run cancelled mid-shuffle or mid-sort must release every
// PartitionStore/RunStore temp file and leave no engine goroutines behind.
// TMPDIR is pointed at a per-test directory so leaked spill files are
// directly observable.

import (
	"context"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/storage"
)

// spillFiles lists the toreador spill/run temp files present in dir.
func spillFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "toreador-") {
			out = append(out, e.Name())
		}
	}
	return out
}

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

// cancelAfterRows returns a filter predicate that cancels the context once it
// has seen n rows, then keeps passing rows through so in-flight tasks continue
// to exercise the spill path until the cancellation propagates.
func cancelAfterRows(n int64, cancel context.CancelFunc) func(Record) (bool, error) {
	var seen int64
	return func(Record) (bool, error) {
		if atomic.AddInt64(&seen, 1) >= n {
			cancel()
		}
		return true, nil
	}
}

// TestCancelBudgetedShuffleReleasesSpill cancels a budgeted join + group-by
// mid-scan: shuffle partition stores are already spilling when the context
// dies, and every temp file must be released on the error path.
func TestCancelBudgetedShuffleReleasesSpill(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	base := runtime.NumGoroutine()

	schema := spillBenchSchema(t)
	facts := spillBenchData(4000, 64)
	dimSchema := storage.MustSchema(
		storage.Field{Name: "k", Type: storage.TypeInt},
		storage.Field{Name: "label", Type: storage.TypeString},
	)
	dim := make([]storage.Row, 64)
	for i := range dim {
		dim[i] = storage.Row{int64(i), "label-" + string(rune('a'+i%7))}
	}

	e := spillEngine(t, withBroadcastThreshold(-1), WithMemoryBudget(1))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	plan := FromRows("facts", schema, facts, 4).
		Filter("cancel mid-scan", cancelAfterRows(1000, cancel)).
		Join(FromRows("dims", dimSchema, dim, 2), "k", "k", InnerJoin).
		GroupBy("tag").
		Agg(Count(), Sum("v"))

	if _, err := e.Collect(ctx, plan); err == nil {
		t.Fatal("cancelled budgeted run must fail")
	}
	waitGoroutines(t, base)
	if left := spillFiles(t, tmp); len(left) != 0 {
		t.Errorf("cancelled shuffle leaked spill files: %v", left)
	}
}

// TestCancelBudgetedSortReleasesRuns cancels a budgeted multi-key sort
// mid-scan: the external sort's per-partition RunStores must be released even
// when the merge never happens.
func TestCancelBudgetedSortReleasesRuns(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	base := runtime.NumGoroutine()

	schema := spillBenchSchema(t)
	data := spillBenchData(20_000, 137)
	e := spillEngine(t, WithMemoryBudget(1))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	plan := FromRows("s", schema, data, 4).
		Filter("cancel mid-scan", cancelAfterRows(6000, cancel)).
		Sort(SortOrder{Column: "v"}, SortOrder{Column: "k", Descending: true}, SortOrder{Column: "tag"})

	if _, err := e.Collect(ctx, plan); err == nil {
		t.Fatal("cancelled budgeted sort must fail")
	}
	waitGoroutines(t, base)
	if left := spillFiles(t, tmp); len(left) != 0 {
		t.Errorf("cancelled sort leaked run/spill files: %v", left)
	}
}

// TestCompletedBudgetedRunLeavesNoSpill is the control: budgeted plans of
// the same shapes — a shuffled join and an external sort — run to completion
// must also end with an empty TMPDIR, proving the observation method catches
// real leaks rather than vacuously passing.
func TestCompletedBudgetedRunLeavesNoSpill(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)

	schema := spillBenchSchema(t)
	data := spillBenchData(5000, 40)
	dimSchema := storage.MustSchema(
		storage.Field{Name: "k", Type: storage.TypeInt},
		storage.Field{Name: "label", Type: storage.TypeString},
	)
	dim := make([]storage.Row, 40)
	for i := range dim {
		dim[i] = storage.Row{int64(i), "label-" + string(rune('a'+i%7))}
	}
	plans := map[string]*Dataset{
		"shuffled join": FromRows("facts", schema, data, 4).
			Join(FromRows("dims", dimSchema, dim, 2), "k", "k", InnerJoin),
		"external sort": FromRows("s", schema, data, 4).
			Sort(SortOrder{Column: "v"}, SortOrder{Column: "k", Descending: true}),
	}
	e := spillEngine(t, withBroadcastThreshold(-1), WithMemoryBudget(1))
	for name, plan := range plans {
		res, err := e.Collect(context.Background(), plan)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Stats.SpilledBatches == 0 {
			t.Fatalf("%s: control run must actually spill for the leak check to mean anything", name)
		}
	}
	if left := spillFiles(t, tmp); len(left) != 0 {
		t.Errorf("completed budgeted runs left spill files: %v", left)
	}
}
