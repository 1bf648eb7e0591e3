package store

import (
	"errors"
	"fmt"
	"hash/crc32"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"repro/internal/storage"
)

// The crash-recovery matrix: run a representative workload once fault-free
// to count filesystem operations, then replay it with a hard crash injected
// at EVERY operation ordinal under each loss model, reopen, and assert the
// recovered manifest is exactly one of the workload's legal states — the
// last acknowledged commit or the one in flight — with every surviving
// table bit-identical to its reference data. A companion matrix injects
// transient errors instead of crashes and additionally checks the store
// keeps working (and committing durably) after the failed call.

type matrixStep struct {
	name string
	run  func(*Store) error
	// apply folds the step's committed effect into the model state.
	apply func(map[string][]storage.Row)
}

func matrixWorkload(t *testing.T) ([]matrixStep, *storage.Schema) {
	t.Helper()
	schema := testSchema(t)
	rowsA := testRows(120, 0)
	rowsB := testRows(80, 1000)
	rowsB2 := testRows(40, 2000)
	rowsC := testRows(60, 3000)
	// D arrives as odd-sized batches, one of them empty: with 16-row frames
	// and 48-row segments its save copies straddling frames, writes several
	// segments and encodes on several goroutines.
	rowsD := testRows(101, 4000)
	var batchesD []*storage.ColumnBatch
	lo := 0
	for _, n := range []int{7, 23, 0, 41, 13, 17} {
		b, err := storage.BatchFromRows(schema, rowsD[lo:lo+n])
		if err != nil {
			t.Fatal(err)
		}
		batchesD = append(batchesD, b)
		lo += n
	}
	return []matrixStep{
		{
			name:  "save-A",
			run:   func(s *Store) error { return s.SaveRows("A", schema, rowsA, WithBloomColumn("region")) },
			apply: func(m map[string][]storage.Row) { m["A"] = rowsA },
		},
		{
			name:  "save-B",
			run:   func(s *Store) error { return s.SaveRows("B", schema, rowsB) },
			apply: func(m map[string][]storage.Row) { m["B"] = rowsB },
		},
		{
			name:  "replace-B",
			run:   func(s *Store) error { return s.SaveRows("B", schema, rowsB2) },
			apply: func(m map[string][]storage.Row) { m["B"] = rowsB2 },
		},
		{
			name:  "drop-A",
			run:   func(s *Store) error { return s.Drop("A") },
			apply: func(m map[string][]storage.Row) { delete(m, "A") },
		},
		{
			name:  "checkpoint",
			run:   func(s *Store) error { return s.Checkpoint() },
			apply: func(m map[string][]storage.Row) {},
		},
		{
			name:  "save-C",
			run:   func(s *Store) error { return s.SaveRows("C", schema, rowsC) },
			apply: func(m map[string][]storage.Row) { m["C"] = rowsC },
		},
		{
			name:  "save-D-batches",
			run:   func(s *Store) error { return s.SaveTable("D", schema, batchesD) },
			apply: func(m map[string][]storage.Row) { m["D"] = rowsD },
		},
	}, schema
}

// matrixStates returns the model state after 0..len(steps) committed steps.
func matrixStates(steps []matrixStep) []map[string][]storage.Row {
	states := make([]map[string][]storage.Row, len(steps)+1)
	states[0] = map[string][]storage.Row{}
	for i, st := range steps {
		next := map[string][]storage.Row{}
		for k, v := range states[i] {
			next[k] = v
		}
		st.apply(next)
		states[i+1] = next
	}
	return states
}

func openMatrixStore(t *testing.T, ffs FS) *Store {
	t.Helper()
	s, err := Open("/db", WithFS(ffs), WithSegmentRows(48), WithFrameRows(16), WithCheckpointEvery(1000))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return s
}

// storeState reads every table back, checksums verifying along the way.
func storeState(t *testing.T, s *Store) map[string][]storage.Row {
	t.Helper()
	out := map[string][]storage.Row{}
	for _, info := range s.Tables() {
		rows, err := s.Rows(info.Name)
		if err != nil {
			t.Fatalf("reading recovered table %q: %v", info.Name, err)
		}
		out[info.Name] = rows
	}
	return out
}

func statesEqual(a, b map[string][]storage.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for name, rows := range a {
		other, ok := b[name]
		if !ok || len(rows) != len(other) {
			return false
		}
		for i := range rows {
			if !reflect.DeepEqual(rows[i], other[i]) {
				return false
			}
		}
	}
	return true
}

func stateNames(m map[string][]storage.Row) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, fmt.Sprintf("%s(%d)", n, len(m[n])))
	}
	sort.Strings(names)
	return names
}

func TestCrashRecoveryMatrix(t *testing.T) {
	steps, _ := matrixWorkload(t)
	states := matrixStates(steps)

	// Fault-free dry run bounds the matrix.
	probe := NewFaultFS()
	s := openMatrixStore(t, probe)
	for _, st := range steps {
		if err := st.run(s); err != nil {
			t.Fatalf("dry run step %s: %v", st.name, err)
		}
	}
	totalOps := probe.Ops()
	if totalOps < 30 {
		t.Fatalf("dry run took only %d ops; matrix would prove little", totalOps)
	}
	// Sanity: a fault-free reopen sees the final state.
	probe.Crash()
	probe.Reset()
	s2, err := Open("/db", WithFS(probe))
	if err != nil {
		t.Fatalf("dry-run reopen: %v", err)
	}
	if !statesEqual(storeState(t, s2), states[len(steps)]) {
		t.Fatalf("dry-run reopen state %v != final %v", stateNames(storeState(t, s2)), stateNames(states[len(steps)]))
	}

	modes := []struct {
		name string
		mode LossMode
	}{{"drop-unsynced", LossAll}, {"keep-half", LossHalf}, {"keep-all", LossNone}}

	for _, m := range modes {
		m := m
		t.Run(m.name, func(t *testing.T) {
			for k := 1; k <= totalOps; k++ {
				ffs := NewFaultFS()
				ffs.SetLossMode(m.mode)
				s := openMatrixStore(t, ffs)
				ffs.CrashAt(ffs.Ops() + k)

				acked := 0
				for _, st := range steps {
					if err := st.run(s); err != nil {
						if !errors.Is(err, ErrCrashed) {
							t.Fatalf("k=%d: step %s failed with non-crash error: %v", k, st.name, err)
						}
						break
					}
					acked++
				}
				if acked == len(steps) {
					t.Fatalf("k=%d: crash point never fired (totalOps drifted?)", k)
				}
				ffs.Crash() // force the loss model even if the failing op absorbed it
				ffs.Reset()

				s2, err := Open("/db", WithFS(ffs))
				if err != nil {
					t.Fatalf("k=%d: reopen after crash in step %s: %v", k, steps[acked].name, err)
				}
				got := storeState(t, s2)
				if !statesEqual(got, states[acked]) && !statesEqual(got, states[acked+1]) {
					t.Fatalf("k=%d mode=%s: crash in step %s recovered to %v, want %v (pre) or %v (post)",
						k, m.name, steps[acked].name, stateNames(got), stateNames(states[acked]), stateNames(states[acked+1]))
				}
				// Durability: everything acknowledged before the crash must
				// be present — states[acked] is exactly that, and both legal
				// states contain it by construction, so reaching here proves
				// it. A second reopen must be stable (recovery idempotent).
				s3, err := Open("/db", WithFS(ffs))
				if err != nil {
					t.Fatalf("k=%d: second reopen: %v", k, err)
				}
				if !statesEqual(storeState(t, s3), got) {
					t.Fatalf("k=%d: recovery not idempotent", k)
				}
			}
		})
	}
}

// opLogFS is a FaultFS that logs every call the store makes: the operation,
// its path and, for a write, the length and checksum of the bytes.
type opLogFS struct {
	*FaultFS
	log *[]string
}

func (fs opLogFS) note(format string, args ...any) {
	*fs.log = append(*fs.log, fmt.Sprintf(format, args...))
}

func (fs opLogFS) MkdirAll(dir string) error {
	fs.note("mkdir %s", dir)
	return fs.FaultFS.MkdirAll(dir)
}

func (fs opLogFS) Create(name string) (File, error) {
	fs.note("create %s", name)
	f, err := fs.FaultFS.Create(name)
	return opLogFile{f, fs}, err
}

func (fs opLogFS) Append(name string) (File, error) {
	fs.note("append %s", name)
	f, err := fs.FaultFS.Append(name)
	return opLogFile{f, fs}, err
}

func (fs opLogFS) Open(name string) (ReadFile, error) {
	fs.note("open %s", name)
	return fs.FaultFS.Open(name)
}

func (fs opLogFS) Rename(oldpath, newpath string) error {
	fs.note("rename %s %s", oldpath, newpath)
	return fs.FaultFS.Rename(oldpath, newpath)
}

func (fs opLogFS) Remove(name string) error {
	fs.note("remove %s", name)
	return fs.FaultFS.Remove(name)
}

func (fs opLogFS) Truncate(name string, size int64) error {
	fs.note("truncate %s %d", name, size)
	return fs.FaultFS.Truncate(name, size)
}

func (fs opLogFS) ReadDir(dir string) ([]string, error) {
	fs.note("readdir %s", dir)
	return fs.FaultFS.ReadDir(dir)
}

func (fs opLogFS) SyncDir(dir string) error {
	fs.note("syncdir %s", dir)
	return fs.FaultFS.SyncDir(dir)
}

type opLogFile struct {
	File
	fs opLogFS
}

func (f opLogFile) Write(p []byte) (int, error) {
	f.fs.note("write %d %08x", len(p), crc32.ChecksumIEEE(p))
	return f.File.Write(p)
}

func (f opLogFile) Sync() error {
	f.fs.note("sync")
	return f.File.Sync()
}

func (f opLogFile) Close() error {
	f.fs.note("close")
	return f.File.Close()
}

// TestCrashRecoveryMatrixOpSequence runs the matrix workload fault-free twice,
// with more goroutines than frames in some saves, and requires the same
// filesystem operation sequence both times: frames are encoded in parallel,
// but the crash and error matrices' ordinals must name the same operation in
// every run.
func TestCrashRecoveryMatrixOpSequence(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	steps, _ := matrixWorkload(t)
	run := func() []string {
		var log []string
		s := openMatrixStore(t, opLogFS{FaultFS: NewFaultFS(), log: &log})
		for _, st := range steps {
			if err := st.run(s); err != nil {
				t.Fatalf("step %s: %v", st.name, err)
			}
		}
		return log
	}
	first, second := run(), run()
	if len(first) < 30 {
		t.Fatalf("the workload made only %d filesystem calls", len(first))
	}
	if !reflect.DeepEqual(first, second) {
		for i := range min(len(first), len(second)) {
			if first[i] != second[i] {
				t.Fatalf("call %d differs between fault-free runs: %q vs %q", i, first[i], second[i])
			}
		}
		t.Fatalf("fault-free runs made %d and %d filesystem calls", len(first), len(second))
	}
}

func TestErrorInjectionMatrix(t *testing.T) {
	steps, _ := matrixWorkload(t)

	probe := NewFaultFS()
	s := openMatrixStore(t, probe)
	for _, st := range steps {
		if err := st.run(s); err != nil {
			t.Fatalf("dry run step %s: %v", st.name, err)
		}
	}
	totalOps := probe.Ops()

	for k := 1; k <= totalOps; k++ {
		ffs := NewFaultFS()
		s := openMatrixStore(t, ffs)
		ffs.FailAt(ffs.Ops()+k, nil)

		// Run the whole workload, tolerating the injected failure: the store
		// must keep accepting commits after a transient error. A failed step
		// may cascade (drop-A cannot succeed if save-A failed), so the model
		// tracks acknowledged steps rather than assuming exactly one miss.
		//
		// modelAcked applies only acknowledged steps. modelWith additionally
		// applies the injected step: without a crash, a record written but
		// not yet fsynced when the error hit is still in the live file, so a
		// reopen may legally surface that one unacknowledged commit.
		modelAcked := map[string][]storage.Row{}
		modelWith := map[string][]storage.Row{}
		injected := false
		for _, st := range steps {
			if err := st.run(s); err != nil {
				if !injected {
					if !errors.Is(err, ErrInjected) {
						t.Fatalf("k=%d: step %s failed with unexpected error: %v", k, st.name, err)
					}
					st.apply(modelWith)
					injected = true
					continue
				}
				if !errors.Is(err, ErrNoTable) {
					t.Fatalf("k=%d: cascading step %s failed with unexpected error: %v", k, st.name, err)
				}
				continue
			}
			st.apply(modelAcked)
			st.apply(modelWith)
		}

		// In-process state must match exactly the acknowledged commits.
		if got := storeState(t, s); !statesEqual(got, modelAcked) {
			t.Fatalf("k=%d: live state %v != acknowledged %v", k, stateNames(got), stateNames(modelAcked))
		}

		// The durable state after a clean reopen must hold every
		// acknowledged commit, plus at most the injected step's.
		s2, err := Open("/db", WithFS(ffs))
		if err != nil {
			t.Fatalf("k=%d: reopen after injected error: %v", k, err)
		}
		if got := storeState(t, s2); !statesEqual(got, modelAcked) && !statesEqual(got, modelWith) {
			t.Fatalf("k=%d: durable state %v != acknowledged %v nor with-injected %v",
				k, stateNames(got), stateNames(modelAcked), stateNames(modelWith))
		}
	}
}
