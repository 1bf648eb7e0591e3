package storage

import (
	"math/rand"
	"os"
	"sort"
	"testing"
)

// spillModelSlot is the model's view of one appended batch: its rows, its
// BatchMemSize and whether the store should have spilled it.
type spillModelSlot struct {
	rows []Row
	mem  int64
	cold bool
}

// FuzzSpillStore drives a PartitionStore over 1 to 4 partitions, budgets from
// none to several batches, both codecs and three frame sizes (one frame per
// slot, the run store's runFrameRows, and a small one that splits most
// slots), with appends of every column type interleaved with EachBatch,
// Partition and FlattenPartition reads. Reads must equal a plain [][]Row
// model, floats by bits. The model also evicts oldest-first, so it knows
// which slots are cold: SpilledBatches must equal the frames it wrote, each
// read must restore exactly the cold frames of its partition, FileBytes must
// equal SpilledBytes, and resident bytes stay within the budget whenever
// every batch fits it. Close must remove the spill file, and a second Close is
// a no-op. A run-store arm then merges the same batches, each sorted as a
// run, through the same budget and frame size, and must equal a stable sort.
func FuzzSpillStore(f *testing.F) {
	// shape: bits 0-1 partitions, 2-3 frame size, 4 compression, 5-7 budget.
	f.Add(int64(1), uint8(0x00), uint8(40))
	f.Add(int64(2), uint8(0x25), uint8(60))
	f.Add(int64(3), uint8(0x5a), uint8(80))
	f.Add(int64(4), uint8(0x6b), uint8(100))
	f.Add(int64(5), uint8(0xf4), uint8(120))
	f.Add(int64(6), uint8(0x99), uint8(120))
	f.Fuzz(func(t *testing.T, seed int64, shape, steps uint8) {
		rng := rand.New(rand.NewSource(seed))
		parts := 1 + int(shape&3)
		frameRows := []int{0, runFrameRows, 7, 0}[shape>>2&3]
		codec := CodecOptions{Compress: shape&16 != 0}
		unit := BatchMemSize(mustBatch(t, tableFuzzSchema, []Row{tableFuzzRow(rng, 0)}))
		budget := []int64{0, 1, 4 * unit, 40 * unit, 400 * unit, 0, 1, 20 * unit}[shape>>5]

		dir := t.TempDir()
		s, err := NewPartitionStore(tableFuzzSchema, parts,
			WithMemoryBudget(budget), WithCodec(codec), WithSpillDir(dir))
		if err != nil {
			t.Fatal(err)
		}
		s.frameRows = frameRows
		frames := func(rows int) int64 {
			if frameRows == 0 {
				return 1
			}
			return int64((rows + frameRows - 1) / frameRows)
		}

		model := make([][]*spillModelSlot, parts)
		var order []*spillModelSlot // resident slots, oldest first
		var resident, maxMem, wrote, restored int64
		var batches []*ColumnBatch
		var id int64

		for step := 0; step < int(steps); step++ {
			p := rng.Intn(parts)
			switch op := rng.Intn(8); {
			case op < 4:
				n := rng.Intn(20)
				if rng.Intn(16) == 0 {
					n = rng.Intn(3 * runFrameRows)
				}
				rows := make([]Row, n)
				for i := range rows {
					rows[i] = tableFuzzRow(rng, id)
					id++
				}
				b := mustBatch(t, tableFuzzSchema, rows)
				if err := s.Append(p, b); err != nil {
					t.Fatalf("step %d: Append: %v", step, err)
				}
				if n == 0 {
					break
				}
				batches = append(batches, b)
				slot := &spillModelSlot{rows: rows, mem: BatchMemSize(b)}
				model[p] = append(model[p], slot)
				order = append(order, slot)
				resident += slot.mem
				maxMem = max(maxMem, slot.mem)
				for budget > 0 && resident > budget && len(order) > 0 {
					order[0].cold = true
					resident -= order[0].mem
					wrote += frames(len(order[0].rows))
					order = order[1:]
				}
				if got := s.SpilledBatches(); got != wrote {
					t.Fatalf("step %d: SpilledBatches = %d, model wrote %d frames", step, got, wrote)
				}
				s.mu.Lock()
				got := s.resident
				s.mu.Unlock()
				if budget > 0 && maxMem <= budget && got > budget {
					t.Fatalf("step %d: resident %d over budget %d", step, got, budget)
				}
			default:
				var want []Row
				var cold int64
				for _, slot := range model[p] {
					want = append(want, slot.rows...)
					if slot.cold {
						cold += frames(len(slot.rows))
					}
				}
				var got []Row
				switch op {
				case 4, 5:
					err = s.EachBatch(p, func(b *ColumnBatch) error {
						got = append(got, b.Rows()...)
						return nil
					})
				case 6:
					var bs []*ColumnBatch
					bs, err = s.Partition(p)
					for _, b := range bs {
						got = append(got, b.Rows()...)
					}
				default:
					var b *ColumnBatch
					if b, err = s.FlattenPartition(p); err == nil {
						got = b.Rows()
					}
				}
				if err != nil {
					t.Fatalf("step %d: read %d of partition %d: %v", step, op, p, err)
				}
				if d := sameRows(got, want); d != "" {
					t.Fatalf("step %d: read %d of partition %d: %s", step, op, p, d)
				}
				restored += cold
				if got := s.RestoredBatches(); got != restored {
					t.Fatalf("step %d: RestoredBatches = %d, model restored %d frames", step, got, restored)
				}
			}
			if fb, sb := s.FileBytes(), s.SpilledBytes(); fb != sb {
				t.Fatalf("step %d: FileBytes %d != SpilledBytes %d", step, fb, sb)
			}
		}
		closeRemovesFile(t, dir, s.Close, wrote > 0)

		// Run-store arm: every appended batch, stably sorted on n, is one run.
		rs, err := NewRunStore(tableFuzzSchema, budget)
		if err != nil {
			t.Fatal(err)
		}
		rs.SetCodec(codec)
		rs.SetSpillDir(dir)
		rs.store.frameRows = frameRows
		byN := func(a *ColumnBatch, ai int, b *ColumnBatch, bi int) int {
			return CompareValues(a.Value(ai, 1), b.Value(bi, 1))
		}
		var want []Row
		for _, b := range batches {
			run := b.Rows()
			want = append(want, run...)
			sort.SliceStable(run, func(i, j int) bool { return CompareValues(run[i][1], run[j][1]) < 0 })
			if err := rs.AppendRun(mustBatch(t, tableFuzzSchema, run)); err != nil {
				t.Fatalf("AppendRun: %v", err)
			}
		}
		sort.SliceStable(want, func(i, j int) bool { return CompareValues(want[i][1], want[j][1]) < 0 })
		var got []Row
		err = rs.Merge(byN, 1+rng.Intn(50), func(b *ColumnBatch) error {
			got = append(got, b.Rows()...)
			return nil
		})
		if err != nil {
			t.Fatalf("Merge: %v", err)
		}
		if d := sameRows(got, want); d != "" {
			t.Fatalf("merge of %d runs (budget %d, frame %d): %s", len(batches), budget, frameRows, d)
		}
		if fb, sb := rs.FileBytes(), rs.SpilledBytes(); fb != sb {
			t.Fatalf("run store: FileBytes %d != SpilledBytes %d", fb, sb)
		}
		closeRemovesFile(t, dir, rs.Close, rs.SpilledBatches() > 0)
	})
}

// closeRemovesFile closes a store whose spill file lives in dir: the file
// must exist before (when the store spilled) and be gone after, and a second
// Close must be a no-op.
func closeRemovesFile(t *testing.T, dir string, closeFn func() error, spilled bool) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if spilled != (len(entries) == 1) {
		t.Fatalf("spilled=%v but the spill dir holds %d files", spilled, len(entries))
	}
	if err := closeFn(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if entries, _ = os.ReadDir(dir); len(entries) != 0 {
		t.Fatalf("Close left %d files in the spill dir", len(entries))
	}
	if err := closeFn(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}
