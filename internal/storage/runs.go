package storage

// runs.go implements the sorted-run layer of the external merge sort. A
// RunStore is a loser-tree merge over a one-partition PartitionStore: each
// sorted run (a ColumnBatch whose rows are already ordered) is one slot of
// that store, which spills cold runs through the batch codec when the memory
// budget is exceeded, split into runFrameRows-row frames. The merge restores
// at most one frame per run at a time, so peak merge memory is bounded by
// runs × frame, not by the partition size. Spill-file writes, reads,
// counters and removal are all the partition store's.
//
// Stability contract: runs are merged in append order, ties go to the
// lower-numbered run, and rows within a run keep their order. Appending the
// stably-sorted chunks of a partition in input order therefore yields exactly
// the permutation a global stable sort of the partition would produce.

import "fmt"

// BatchRowCompare orders row ai of batch a against row bi of batch b. Both
// batches share one schema; the comparison must be a total order consistent
// with the sort the runs were built under.
type BatchRowCompare func(a *ColumnBatch, ai int, b *ColumnBatch, bi int) int

// runFrameRows is the row count of one encoded frame of a spilled run. The
// merge holds at most one decoded frame per run, so smaller frames trade
// decode calls for a lower resident bound during the merge.
const runFrameRows = 1024

// RunStore holds the sorted runs of one partition's external sort. Appends
// happen from the sorting task's goroutine; Merge streams the loser-tree
// merge of all runs once appending is done. The store is single-use: Close
// releases the spill file.
type RunStore struct {
	store *PartitionStore
}

// NewRunStore returns an empty run store over schema. budget bounds the
// resident bytes of run data (BatchMemSize estimates); <= 0 keeps every run
// in memory and never touches disk.
func NewRunStore(schema *Schema, budget int64) (*RunStore, error) {
	store, err := NewPartitionStore(schema, 1, WithMemoryBudget(budget))
	if err != nil {
		return nil, err
	}
	store.frameRows = runFrameRows
	store.filePattern = "toreador-runs-*.bin"
	return &RunStore{store: store}, nil
}

// SetCodec selects the batch codec spilled run frames are written with (the
// zero value is the raw v1 codec). Call before the first AppendRun; reads
// auto-detect the version.
func (s *RunStore) SetCodec(c CodecOptions) { WithCodec(c)(s.store) }

// SetSpillDir places the store's spill temp file in dir instead of the
// system temp directory ("" keeps os.TempDir()). Call before the first
// AppendRun; the directory must already exist.
func (s *RunStore) SetSpillDir(dir string) { WithSpillDir(dir)(s.store) }

// Runs returns the number of sorted runs appended so far.
func (s *RunStore) Runs() int {
	s.store.mu.Lock()
	defer s.store.mu.Unlock()
	return len(s.store.parts[0])
}

// Rows returns the total rows across all runs.
func (s *RunStore) Rows() int { return s.store.PartitionRows(0) }

// SpilledBatches returns the number of run frames written to the spill file.
func (s *RunStore) SpilledBatches() int64 { return s.store.SpilledBatches() }

// SpilledBytes returns the cumulative physical bytes written to the spill
// file (encoded, possibly compressed frame lengths).
func (s *RunStore) SpilledBytes() int64 { return s.store.SpilledBytes() }

// SpilledLogicalBytes returns the cumulative logical bytes spilled — what the
// same frames would occupy under the raw v1 codec. Equal to SpilledBytes when
// compression is off.
func (s *RunStore) SpilledLogicalBytes() int64 { return s.store.SpilledLogicalBytes() }

// FileBytes returns the bytes occupied by the append-only spill file — the
// store's physical-on-disk high-water mark.
func (s *RunStore) FileBytes() int64 { return s.store.FileBytes() }

// RestoredBatches returns the number of frames decoded back during merges.
func (s *RunStore) RestoredBatches() int64 { return s.store.RestoredBatches() }

// MaxResidentBytes returns the high-water mark of the store's resident run
// bytes — runs awaiting their merge plus the frames the merge held decoded.
func (s *RunStore) MaxResidentBytes() int64 {
	s.store.mu.Lock()
	defer s.store.mu.Unlock()
	return s.store.maxResident
}

// AppendRun seals b — whose rows must already be sorted — as the next run.
// The batch must not be mutated afterwards. Under budget pressure the oldest
// resident runs (possibly b itself) are spilled into frames before AppendRun
// returns.
func (s *RunStore) AppendRun(b *ColumnBatch) error { return s.store.Append(0, b) }

// runCursor streams one run during the merge: a resident run iterates its
// batch in place; a spilled run decodes one frame at a time.
type runCursor struct {
	s    *PartitionStore
	slot *batchSlot
	// batch/row is the current head of the run.
	batch *ColumnBatch
	row   int
	// next is the index of the next frame to restore (cold runs only).
	next     int
	frameMem int64
	done     bool
}

func (c *runCursor) init() error {
	if c.slot.rows == 0 {
		c.done = true
		return nil
	}
	if !c.slot.cold {
		c.batch = c.slot.batch
		return nil
	}
	return c.loadFrame()
}

func (c *runCursor) loadFrame() error {
	c.close()
	if c.next >= len(c.slot.frames) {
		c.done = true
		c.batch = nil
		return nil
	}
	b, err := c.s.restore(c.slot.frames[c.next])
	if err != nil {
		return err
	}
	c.frameMem = BatchMemSize(b)
	c.s.hold(c.frameMem)
	c.batch, c.row = b, 0
	c.next++
	return nil
}

// advance moves the cursor past its current row.
func (c *runCursor) advance() error {
	c.row++
	if c.row < c.batch.Len() {
		return nil
	}
	if c.slot.cold {
		return c.loadFrame()
	}
	c.done = true
	c.batch = nil
	c.s.releaseSlot(c.slot)
	return nil
}

// close releases the frame the cursor holds decoded, if any.
func (c *runCursor) close() {
	if c.frameMem > 0 {
		c.s.hold(-c.frameMem)
		c.frameMem = 0
	}
}

// loserTree is a tournament tree over k run cursors: node[0] holds the
// current overall winner, node[1..k-1] hold the losers of the internal
// matches. After the winner advances, one replay along its leaf-to-root path
// restores the invariant in O(log k) comparisons.
type loserTree struct {
	k       int
	node    []int
	cursors []*runCursor
	cmp     BatchRowCompare
}

func newLoserTree(cursors []*runCursor, cmp BatchRowCompare) *loserTree {
	k := len(cursors)
	t := &loserTree{k: k, node: make([]int, k), cursors: cursors, cmp: cmp}
	for i := range t.node {
		t.node[i] = -1
	}
	for i := k - 1; i >= 0; i-- {
		t.replay(i)
	}
	return t
}

// beats reports whether cursor a's head row is emitted before cursor b's:
// exhausted cursors lose to live ones, and ties go to the lower run index,
// which is what makes the merge stable.
func (t *loserTree) beats(a, b int) bool {
	ca, cb := t.cursors[a], t.cursors[b]
	if ca.done {
		return false
	}
	if cb.done {
		return true
	}
	if c := t.cmp(ca.batch, ca.row, cb.batch, cb.row); c != 0 {
		return c < 0
	}
	return a < b
}

// replay re-plays leaf i's matches up to the root: at each internal node the
// arriving contestant plays the parked loser, the loser stays, the winner
// continues up. During the initial build the first contestant to reach an
// empty node parks there and stops — its match is played when the sibling
// subtree's winner comes through — which fills all k-1 internal nodes after
// the k build replays and leaves the overall winner at node[0].
func (t *loserTree) replay(i int) {
	winner := i
	for n := (i + t.k) / 2; n >= 1; n /= 2 {
		if t.node[n] < 0 {
			t.node[n] = winner
			return
		}
		if t.beats(t.node[n], winner) {
			t.node[n], winner = winner, t.node[n]
		}
	}
	t.node[0] = winner
}

// Merge streams the k-way merge of every run in sorted order, emitting output
// batches of at most outRows rows. The merge is stable across runs (ties go
// to the earlier run) and within runs (rows keep their order). The store must
// not be appended to afterwards.
func (s *RunStore) Merge(cmp BatchRowCompare, outRows int, emit func(*ColumnBatch) error) error {
	st := s.store
	st.mu.Lock()
	runs := st.parts[0]
	remaining := st.rows[0]
	st.mu.Unlock()
	if remaining == 0 {
		return nil
	}
	if outRows < 1 {
		outRows = remaining
	}
	cursors := make([]*runCursor, len(runs))
	for i, slot := range runs {
		cursors[i] = &runCursor{s: st, slot: slot}
	}
	defer func() {
		for _, c := range cursors {
			c.close()
		}
	}()
	for _, c := range cursors {
		if err := c.init(); err != nil {
			return err
		}
	}
	lt := newLoserTree(cursors, cmp)
	newOut := func() *ColumnBatch {
		n := outRows
		if remaining < n {
			n = remaining
		}
		return NewColumnBatch(st.schema, n)
	}
	out := newOut()
	for remaining > 0 {
		w := lt.node[0]
		c := cursors[w]
		if c.done {
			return fmt.Errorf("storage: run merge exhausted with %d rows remaining", remaining)
		}
		out.AppendRowFrom(c.batch, c.row)
		remaining--
		if err := c.advance(); err != nil {
			return err
		}
		lt.replay(w)
		if out.Len() >= outRows || remaining == 0 {
			if err := emit(out); err != nil {
				return err
			}
			out = newOut()
		}
	}
	return nil
}

// Close releases the spill file (if one was created). Idempotent: a second
// call is a no-op, never a double remove. The store must not be used for
// appends afterwards.
func (s *RunStore) Close() error { return s.store.Close() }
