package dataflow

// spill_fault_test.go holds the spill path to "a fault degrades one action,
// never the process": when the spill file cannot be created, every wide
// operator that spills fails its own Collect with the filesystem error, leaks
// no temp file or goroutine, and the engine runs the same plans correctly once
// the spill directory is usable.

import (
	"context"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/storage"
)

func TestSpillCreateFailureIsLocal(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	// A regular file where the spill directory should be: os.CreateTemp
	// fails on the first spill of every store.
	spillDir := filepath.Join(tmp, "spill")
	if err := os.WriteFile(spillDir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()

	schema := spillBenchSchema(t)
	data := spillBenchData(4000, 64)
	dimSchema := storage.MustSchema(
		storage.Field{Name: "k", Type: storage.TypeInt},
		storage.Field{Name: "label", Type: storage.TypeString},
	)
	dim := make([]storage.Row, 64)
	for i := range dim {
		dim[i] = storage.Row{int64(i), "label-" + string(rune('a'+i%7))}
	}
	// Each arm names the spill file its first spill creates. The sort input
	// is small enough for the one-task sort, so its first spill is a run
	// store's, not the range shuffle's.
	plans := []struct {
		name, file string
		plan       func() *Dataset
	}{
		{"shuffled join", "toreador-spill-", func() *Dataset {
			return refFromRows("facts", schema, data, 4).
				Join(refFromRows("dims", dimSchema, dim, 2), "k", "k", InnerJoin)
		}},
		{"external sort", "toreador-runs-", func() *Dataset {
			return refFromRows("s", schema, data[:200], 4).
				Sort(SortOrder{Column: "v"}, SortOrder{Column: "k", Descending: true}, SortOrder{Column: "tag"})
		}},
		{"non-combined group-by", "toreador-spill-", func() *Dataset {
			return refFromRows("g", schema, data, 4).GroupBy("k").Agg(Count(), Sum("v"), Avg("tag"))
		}},
	}

	e := spillEngine(t, withBroadcastThreshold(-1), WithMapSideCombine(false),
		WithMemoryBudget(1), WithSpillDir(spillDir))
	ctx := context.Background()
	for _, p := range plans {
		_, err := e.Collect(ctx, p.plan())
		var pathErr *fs.PathError
		if !errors.As(err, &pathErr) || !strings.HasPrefix(pathErr.Path, filepath.Join(spillDir, p.file)) {
			t.Fatalf("%s: want an error wrapping os.CreateTemp's *fs.PathError, got %v", p.name, err)
		}
	}
	waitGoroutines(t, base)
	if left := spillFiles(t, tmp); len(left) != 0 {
		t.Errorf("failed spills left temp files: %v", left)
	}

	if err := os.Remove(spillDir); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(spillDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, p := range plans {
		plan := p.plan()
		want, err := reference(plan)
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.Collect(ctx, plan)
		if err != nil {
			t.Fatalf("%s with a usable spill directory: %v", p.name, err)
		}
		if got.Stats.SpilledBatches == 0 {
			t.Errorf("%s: a 1-byte budget must spill", p.name)
		}
		want.check(t, p.name, got)
	}
	if left := spillFiles(t, spillDir); len(left) != 0 {
		t.Errorf("completed runs left spill files: %v", left)
	}
}
