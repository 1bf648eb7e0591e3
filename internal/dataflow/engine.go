package dataflow

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/storage"
)

// Wide-operator tuning defaults.
const (
	// defaultBroadcastThreshold is the build-side row count under which a join
	// broadcasts the build side instead of shuffling both inputs.
	defaultBroadcastThreshold = 10_000
	// sortSamplesPerPartition is the number of rows sampled per output
	// partition to derive range-sort split points.
	sortSamplesPerPartition = 32
	// minRowsPerSortPartition is the minimum average partition size worth a
	// range shuffle; smaller inputs sort in a single task.
	minRowsPerSortPartition = 64
)

// SortChunkRows is the fixed chunk size of the external merge sort: under a
// memory budget each partition sorts SortChunkRows-row chunks into sorted
// runs that spill through the batch codec and merge back with a loser tree,
// so the sort's resident accumulation is bounded by runs × chunk instead of
// the partition size. Exported so benchmarks can state the bound they
// assert.
const SortChunkRows = 4096

// spillCodec is the codec of every spill store the engine creates: compressed
// v2 frames (dictionary strings, delta ints, run-length bitmaps, with a raw
// fallback per column; see storage/frame.go).
var spillCodec = storage.CodecOptions{Compress: true}

// Engine compiles logical plans into tasks and executes them on a simulated
// cluster. Every partition of intermediate data is a storage.ColumnBatch.
// Before execution the engine's stage compiler fuses maximal chains of narrow
// operators into single-job stages of batch kernels (see stage.go and
// vector.go); wide operators remain shuffle boundaries, but each picks a
// physical strategy: sort range-partitions and sorts partitions in parallel,
// join broadcasts small build sides, group-by combines map-side. An Engine is
// safe for concurrent use.
type Engine struct {
	cluster           *cluster.Cluster
	shufflePartitions int
	// broadcastThreshold is the largest build side, in rows, a join
	// broadcasts; larger build sides shuffle both inputs, and a negative
	// threshold shuffles every join.
	broadcastThreshold int
	// memoryBudget bounds the resident bytes of each batch accumulation
	// (shuffle buckets, sort runs, join build sides): batches past the
	// budget spill to temp files and are restored transparently on read.
	// The group-by's partials and merge state stay resident, outside it.
	// <= 0 (the default) means unlimited — nothing ever spills.
	memoryBudget int64
	// spillDir places every spill temp file this engine creates ("" keeps
	// os.TempDir()).
	spillDir string
	// checkBatch, when set, sees every batch every plan node's evaluation
	// returns, with the node's output schema; an error fails the action.
	// Tests set it to hold each operator's output to the batch invariants.
	checkBatch func(schema *storage.Schema, b *storage.ColumnBatch) error
}

// EngineOption configures engine construction.
type EngineOption func(*Engine)

// WithShufflePartitions sets the number of partitions produced by wide
// transformations (group-by, join, sort). The default is the
// cluster's total slot count.
func WithShufflePartitions(n int) EngineOption {
	return func(e *Engine) {
		if n >= 1 {
			e.shufflePartitions = n
		}
	}
}

// withBroadcastThreshold sets the build-side row count at or under which a
// join broadcasts instead of shuffling (default 10000). A negative threshold
// never broadcasts: the equivalence suite's shuffle-join arm.
func withBroadcastThreshold(rows int) EngineOption {
	return func(e *Engine) { e.broadcastThreshold = rows }
}

// WithMemoryBudget bounds the bytes of columnar batch data each shuffle,
// sort and join keeps resident while accumulating (per partition store: one
// per shuffle side, or per sort run store). Once an accumulation exceeds the
// budget its coldest batches are spilled to temp files and restored
// transparently when the consuming tasks read them, so those operators run
// within budget on inputs that exceed RAM. The group-by is not bounded: its
// map-side partials and each bucket's merge state stay resident whatever
// the budget. bytes <= 0 (the default) disables spilling.
func WithMemoryBudget(bytes int64) EngineOption {
	return func(e *Engine) { e.memoryBudget = bytes }
}

// WithSpillDir places every spill temp file the engine creates (shuffle
// gathers and sort runs) in dir instead of the system temp directory. ""
// (the default) keeps os.TempDir(); the directory must already exist.
func WithSpillDir(dir string) EngineOption {
	return func(e *Engine) { e.spillDir = dir }
}

// NewEngine returns an engine bound to the given cluster.
func NewEngine(c *cluster.Cluster, opts ...EngineOption) (*Engine, error) {
	if c == nil {
		return nil, fmt.Errorf("dataflow: engine requires a cluster")
	}
	e := &Engine{
		cluster:            c,
		shufflePartitions:  c.TotalSlots(),
		broadcastThreshold: defaultBroadcastThreshold,
	}
	if e.shufflePartitions < 1 {
		e.shufflePartitions = 1
	}
	for _, opt := range opts {
		opt(e)
	}
	return e, nil
}

// Stats summarises the execution of a single action.
type Stats struct {
	// RowsRead is the number of source rows scanned.
	RowsRead int64
	// RowsOutput is the number of rows in the action result.
	RowsOutput int64
	// ShuffledRows is the number of rows moved across shuffle boundaries.
	ShuffledRows int64
	// Tasks is the number of cluster tasks executed.
	Tasks int64
	// Stages is the number of shuffle stages (wide transformations) executed.
	Stages int64
	// FusedStages is the number of fused stages (two or more narrow
	// operators merged into one cluster job) executed.
	FusedStages int64
	// CombinedRows is the number of rows the map-side combine pass removed
	// from group-by shuffles (input rows minus shuffled partial groups).
	CombinedRows int64
	// BroadcastJoins is the number of joins executed with the broadcast-hash
	// strategy (build side at or under the threshold), shuffling zero rows.
	BroadcastJoins int64
	// SortSampledRows is the number of rows sampled to derive range-sort
	// split points.
	SortSampledRows int64
	// SortRuns is the number of sorted runs the external merge sort spilled
	// and merged. Zero when every sort ran in memory.
	SortRuns int64
	// SortMergedBatches is the number of output batches the external sort's
	// loser-tree merges emitted.
	SortMergedBatches int64
	// SortPeakResidentBytes is the largest resident footprint any single
	// partition's run store reached while sorting externally — the measured
	// side of the runs × chunk memory bound.
	SortPeakResidentBytes int64
	// AggGroups is the number of distinct groups group-by aggregations
	// emitted (summed across buckets and group-by operators).
	AggGroups int64
	// AggPeakResidentBytes is the largest resident group-state footprint
	// (hash table plus accumulator vectors) any single aggregation task
	// reached: a map task's table over its input partition, or a merge
	// task's table over its bucket once the fold ends. No memory budget
	// bounds it.
	AggPeakResidentBytes int64
	// Batches is the number of columnar batches operators produced: source
	// partitions, narrow-stage outputs, shuffle chunks, and the outputs of
	// joins and sorts. The group-by's partial and output batches are not
	// counted.
	Batches int64
	// BatchRows is the number of rows those batches carried.
	BatchRows int64
	// SpilledBatches is the number of columnar batches written to spill
	// files because a wide operator's accumulation exceeded the memory
	// budget. Zero without WithMemoryBudget.
	SpilledBatches int64
	// SpilledBytes is the cumulative physical bytes written to spill files —
	// the actual disk write traffic of the compressed frames.
	SpilledBytes int64
	// SpillLogicalBytes is the cumulative raw (v1-equivalent) size of the
	// same spilled batches: what SpilledBytes would have been without the
	// compressed codec. SpillLogicalBytes/SpilledBytes is the achieved
	// compression ratio.
	SpillLogicalBytes int64
	// SpillFilePeakBytes is the largest on-disk size any single spill file
	// reached — the physical-disk high-water mark, as opposed to the
	// cumulative write traffic of SpilledBytes. Spill files are append-only,
	// so per store this is simply its final file size; across stores the
	// engine keeps the maximum.
	SpillFilePeakBytes int64
	// WallTime is the end-to-end execution time of the action.
	WallTime time.Duration
}

// Result is the materialised output of Collect: BatchResult's batches boxed
// into rows, for tests, tools and other row-shaped callers.
type Result struct {
	Schema *storage.Schema
	Rows   []storage.Row
	Stats  Stats
}

// BatchResult is the output of CollectBatches: the plan's output partitions
// as the engine produced them, in partition order. The batches may share
// column vectors with the plan's source and with each other (pass-through
// kernels such as MapStrings and an all-keeping filter hand vectors on
// unchanged), so they are read-only.
type BatchResult struct {
	Schema  *storage.Schema
	Batches []*storage.ColumnBatch
	Stats   Stats
}

// Len returns the number of output rows.
func (r *BatchResult) Len() int { return int(r.Stats.RowsOutput) }

// Records wraps each result row for named access.
func (r *Result) Records() []Record {
	out := make([]Record, len(r.Rows))
	for i, row := range r.Rows {
		out[i] = Record{schema: r.Schema, row: row}
	}
	return out
}

// execState carries mutable counters through one action execution.
type execState struct {
	mu    sync.Mutex
	stats Stats
}

func (s *execState) addRead(n int)     { s.mu.Lock(); s.stats.RowsRead += int64(n); s.mu.Unlock() }
func (s *execState) addShuffled(n int) { s.mu.Lock(); s.stats.ShuffledRows += int64(n); s.mu.Unlock() }
func (s *execState) addTasks(n int)    { s.mu.Lock(); s.stats.Tasks += int64(n); s.mu.Unlock() }
func (s *execState) addStage()         { s.mu.Lock(); s.stats.Stages++; s.mu.Unlock() }
func (s *execState) addFused()         { s.mu.Lock(); s.stats.FusedStages++; s.mu.Unlock() }
func (s *execState) addCombined(n int) { s.mu.Lock(); s.stats.CombinedRows += int64(n); s.mu.Unlock() }
func (s *execState) addBroadcast()     { s.mu.Lock(); s.stats.BroadcastJoins++; s.mu.Unlock() }
func (s *execState) addSampled(n int) {
	s.mu.Lock()
	s.stats.SortSampledRows += int64(n)
	s.mu.Unlock()
}
func (s *execState) addSortRuns(n int) {
	s.mu.Lock()
	s.stats.SortRuns += int64(n)
	s.mu.Unlock()
}
func (s *execState) addSortMerged(n int) {
	s.mu.Lock()
	s.stats.SortMergedBatches += int64(n)
	s.mu.Unlock()
}
func (s *execState) noteSortPeak(bytes int64) {
	s.mu.Lock()
	if bytes > s.stats.SortPeakResidentBytes {
		s.stats.SortPeakResidentBytes = bytes
	}
	s.mu.Unlock()
}
func (s *execState) addAggGroups(n int) {
	s.mu.Lock()
	s.stats.AggGroups += int64(n)
	s.mu.Unlock()
}
func (s *execState) noteAggPeak(bytes int64) {
	s.mu.Lock()
	if bytes > s.stats.AggPeakResidentBytes {
		s.stats.AggPeakResidentBytes = bytes
	}
	s.mu.Unlock()
}
func (s *execState) addBatches(batches, rows int) {
	s.mu.Lock()
	s.stats.Batches += int64(batches)
	s.stats.BatchRows += int64(rows)
	s.mu.Unlock()
}

// spillStore is a partition or run store as releaseStore sees it.
type spillStore interface {
	SpilledBatches() int64
	SpilledBytes() int64
	SpilledLogicalBytes() int64
	FileBytes() int64
	Close() error
}

// releaseStore folds a spill store's counters into the stats and releases
// its spill file. Callers defer it as soon as the store exists, so temp files
// are cleaned up on every error path.
func (s *execState) releaseStore(store spillStore) {
	batches, bytes, logical := store.SpilledBatches(), store.SpilledBytes(), store.SpilledLogicalBytes()
	file := store.FileBytes()
	_ = store.Close()
	s.mu.Lock()
	s.stats.SpilledBatches += batches
	s.stats.SpilledBytes += bytes
	s.stats.SpillLogicalBytes += logical
	if file > s.stats.SpillFilePeakBytes {
		s.stats.SpillFilePeakBytes = file
	}
	s.mu.Unlock()
}

// execute runs the plan and returns its output partitions, with stats
// finalised.
func (e *Engine) execute(ctx context.Context, d *Dataset) ([]*storage.ColumnBatch, *execState, error) {
	if d == nil {
		return nil, nil, ErrNoSource
	}
	if err := d.Err(); err != nil {
		return nil, nil, err
	}
	if err := validateWideColumns(d.node); err != nil {
		return nil, nil, err
	}
	start := time.Now()
	st := &execState{}
	parts, err := e.eval(ctx, d.node, st)
	if err != nil {
		return nil, nil, err
	}
	st.stats.RowsOutput = int64(countBatchRows(parts))
	st.stats.WallTime = time.Since(start)

	return parts, st, nil
}

// CollectBatches executes the plan and returns its output partitions without
// boxing a row. It is the engine's one execution path; Collect is its boxing
// edge.
func (e *Engine) CollectBatches(ctx context.Context, d *Dataset) (*BatchResult, error) {
	parts, st, err := e.execute(ctx, d)
	if err != nil {
		return nil, err
	}
	return &BatchResult{Schema: d.Schema(), Batches: parts, Stats: st.stats}, nil
}

// Collect executes the plan and materialises every output row: CollectBatches
// followed by boxing each batch into Result.Rows.
func (e *Engine) Collect(ctx context.Context, d *Dataset) (*Result, error) {
	res, err := e.CollectBatches(ctx, d)
	if err != nil {
		return nil, err
	}
	var rows []storage.Row
	if total := res.Len(); total > 0 {
		rows = make([]storage.Row, 0, total)
	}
	for _, b := range res.Batches {
		rows = append(rows, b.Rows()...)
	}
	return &Result{Schema: res.Schema, Rows: rows, Stats: res.Stats}, nil
}

// Count executes the plan and returns the number of output rows without
// materialising them: the output batches are only counted, never converted
// to boxed rows.
func (e *Engine) Count(ctx context.Context, d *Dataset) (int64, error) {
	_, st, err := e.execute(ctx, d)
	if err != nil {
		return 0, err
	}
	return st.stats.RowsOutput, nil
}

// validateWideColumns walks the plan and verifies that every column a wide
// operator keys on exists in its input schema. The Dataset builders already
// reject unknown columns, but plans assembled through other paths used to
// reach the executor and panic with an index of -1 mid-task; validating the
// whole tree up front turns that into a descriptive error before any task is
// scheduled.
func validateWideColumns(node planNode) error {
	if node == nil {
		return fmt.Errorf("%w: nil plan node", ErrBadPlan)
	}
	requireAll := func(op string, in *storage.Schema, cols []string) error {
		for _, c := range cols {
			if in.IndexOf(c) < 0 {
				return fmt.Errorf("dataflow: %s: %w: column %q not in input schema %s",
					op, storage.ErrUnknownField, c, in)
			}
		}
		return nil
	}
	switch n := node.(type) {
	case *sortNode:
		cols := make([]string, len(n.orders))
		for i, o := range n.orders {
			cols[i] = o.Column
		}
		if err := requireAll("sort", n.child.schema(), cols); err != nil {
			return err
		}
	case *groupByNode:
		if err := requireAll("group-by", n.child.schema(), n.keys); err != nil {
			return err
		}
	case *joinNode:
		if err := requireAll("join (left)", n.left.schema(), []string{n.leftKey}); err != nil {
			return err
		}
		if err := requireAll("join (right)", n.right.schema(), []string{n.rightKey}); err != nil {
			return err
		}
	}
	for _, c := range node.children() {
		if err := validateWideColumns(c); err != nil {
			return err
		}
	}
	return nil
}

// eval recursively executes a plan node, returning its output partitions,
// each passed through checkBatch when it is set.
func (e *Engine) eval(ctx context.Context, node planNode, st *execState) ([]*storage.ColumnBatch, error) {
	parts, err := e.evalNode(ctx, node, st)
	if err != nil || e.checkBatch == nil {
		return parts, err
	}
	for i, b := range parts {
		if err := e.checkBatch(node.schema(), b); err != nil {
			return nil, fmt.Errorf("dataflow: %s output batch %d: %w", node.label(), i, err)
		}
	}
	return parts, nil
}

// evalNode executes one plan node over its evaluated children. A maximal
// chain of narrow operators ending at node executes as one fused stage (one
// cluster job per stage).
func (e *Engine) evalNode(ctx context.Context, node planNode, st *execState) ([]*storage.ColumnBatch, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if ch, ok := narrowChainOf(node); ok {
		return e.evalChain(ctx, ch, st)
	}
	switch n := node.(type) {
	case *sourceNode:
		return e.evalSource(n, st), nil
	case *sortNode:
		return e.evalSort(ctx, n, st)
	case *groupByNode:
		return e.evalGroupBy(ctx, n, st)
	case *joinNode:
		return e.evalJoin(ctx, n, st)
	default:
		return nil, fmt.Errorf("%w: unknown node %T", ErrBadPlan, node)
	}
}

// evalSource returns the source's partition batches.
func (e *Engine) evalSource(n *sourceNode, st *execState) []*storage.ColumnBatch {
	st.addRead(n.rows)
	st.addBatches(len(n.batches), n.rows)
	return append([]*storage.ColumnBatch(nil), n.batches...)
}

func countBatchRows(in []*storage.ColumnBatch) int {
	total := 0
	for _, b := range in {
		total += b.Len()
	}
	return total
}

// ---------------------------------------------------------------------------
// Shuffle
// ---------------------------------------------------------------------------

// spillChunkRows caps the open per-bucket builder on the budgeted batch
// shuffle: a chunk seals into the partition store (and becomes spillable)
// once it reaches this many rows, so the gather itself never accumulates
// unbounded resident state.
const spillChunkRows = 4096

// shuffleBatches hash-partitions columnar batches into a partition store by
// their key hash, which enc folds straight from the key columns, one column
// after the other over a chunk of rows: no key is encoded and no boxed Row is
// materialised on either side of the shuffle. See gatherBatches for the
// gather and spill mechanics. Callers must release the store via
// execState.releaseStore once its partitions are consumed.
func (e *Engine) shuffleBatches(in []*storage.ColumnBatch, schema *storage.Schema,
	enc *storage.KeyEncoder, st *execState) (*storage.PartitionStore, error) {

	return e.gatherBatches(in, schema, st, func(b *storage.ColumnBatch, parts []int32) {
		enc.BatchPartitions(b, e.shufflePartitions, parts)
	})
}

// gatherBatches redistributes columnar batches into a partition store under
// an arbitrary (batch, row) → partition assignment — hash buckets for the
// keyed shuffles, range buckets for the sort; partsOf writes the partition
// of every row of b into parts (len(parts) == b.Len()). Without a memory
// budget the gather runs in two passes (exact pre-sizing, one resident batch
// per bucket). With a budget it gathers in spillChunkRows chunks that seal into
// the store as they fill; the store spills the coldest chunks to disk
// whenever the resident total exceeds the budget, and the consuming tasks
// restore them transparently on read. Callers must release the store via
// execState.releaseStore once its partitions are consumed.
func (e *Engine) gatherBatches(in []*storage.ColumnBatch, schema *storage.Schema,
	st *execState, partsOf func(b *storage.ColumnBatch, parts []int32)) (*storage.PartitionStore, error) {

	st.addStage()
	nParts := e.shufflePartitions
	store, err := storage.NewPartitionStore(schema, nParts,
		storage.WithMemoryBudget(e.memoryBudget), storage.WithCodec(spillCodec),
		storage.WithSpillDir(e.spillDir))
	if err != nil {
		return nil, err
	}
	// fail releases the store (removing any partial spill file and folding
	// its counters into the stats) before propagating a gather error.
	fail := func(err error) (*storage.PartitionStore, error) {
		st.releaseStore(store)
		return nil, err
	}
	total, sealed := 0, 0
	if e.memoryBudget <= 0 {
		// Pass 1: bucket assignment per (batch, row), plus per-bucket counts
		// for exact pre-sizing.
		assign := make([][]int32, len(in))
		counts := make([]int, nParts)
		for bi, b := range in {
			n := b.Len()
			total += n
			a := make([]int32, n)
			partsOf(b, a)
			for _, p := range a {
				counts[p]++
			}
			assign[bi] = a
		}
		// Pass 2: gather rows into pre-sized bucket batches by batch index,
		// one typed AppendGather per (batch, bucket) — the per-column type
		// dispatch runs per selection vector, not per cell.
		buckets := make([]*storage.ColumnBatch, nParts)
		for p := range buckets {
			buckets[p] = storage.NewColumnBatch(schema, counts[p])
		}
		sels := make([][]int32, nParts)
		for bi, b := range in {
			for p := range sels {
				sels[p] = sels[p][:0]
			}
			for i, p := range assign[bi] {
				sels[p] = append(sels[p], int32(i))
			}
			for p := range buckets {
				if len(sels[p]) > 0 {
					buckets[p].AppendGather(b, sels[p])
				}
			}
		}
		for p, b := range buckets {
			if b.Len() == 0 {
				continue
			}
			if err := store.Append(p, b); err != nil {
				return fail(err)
			}
			sealed++
		}
	} else {
		// Single bounded pass: rows append to per-bucket open chunks that
		// seal (and may spill) as they fill.
		open := make([]*storage.ColumnBatch, nParts)
		var parts []int32
		for _, b := range in {
			n := b.Len()
			total += n
			parts = slices.Grow(parts[:0], n)[:n]
			partsOf(b, parts)
			for i, p := range parts {
				ob := open[p]
				if ob == nil {
					ob = storage.NewColumnBatch(schema, spillChunkRows)
					open[p] = ob
				}
				ob.AppendRowFrom(b, i)
				if ob.Len() >= spillChunkRows {
					if err := store.Append(int(p), ob); err != nil {
						return fail(err)
					}
					sealed++
					open[p] = nil
				}
			}
		}
		for p, ob := range open {
			if ob == nil || ob.Len() == 0 {
				continue
			}
			if err := store.Append(p, ob); err != nil {
				return fail(err)
			}
			sealed++
		}
	}
	st.addShuffled(total)
	st.addBatches(sealed, total)
	return store, nil
}

// ---------------------------------------------------------------------------
// Sort
// ---------------------------------------------------------------------------

// evalSort executes Sort over columnar batches: normalized key words
// (batchComparator) order selection vectors directly over the column vectors
// — no row is boxed anywhere, including the range-partition sampling — and
// under a memory budget each partition runs as a spill-aware external merge
// of sorted runs (sortPartition). Inputs large enough to be worth a shuffle
// are range-partitioned and sorted in parallel; smaller ones sort in one
// task.
func (e *Engine) evalSort(ctx context.Context, n *sortNode, st *execState) ([]*storage.ColumnBatch, error) {
	in, err := e.eval(ctx, n.child, st)
	if err != nil {
		return nil, err
	}
	schema := n.child.schema()
	cmp, err := newBatchComparator(schema, n.orders)
	if err != nil {
		return nil, err
	}
	batches := make([]*storage.ColumnBatch, 0, len(in))
	total := 0
	for _, b := range in {
		if b.Len() == 0 {
			continue
		}
		batches = append(batches, b)
		total += b.Len()
	}
	if e.shufflePartitions > 1 && total > e.shufflePartitions*minRowsPerSortPartition {
		return e.evalSortRange(ctx, batches, total, cmp, schema, st)
	}
	// Small-input fallback: one task sorts the whole input.
	st.addStage()
	st.addShuffled(total)
	out := make([][]*storage.ColumnBatch, 1)
	task := []cluster.Task{{
		Name: "sort[0]",
		Fn: func(ctx context.Context, node cluster.Node) error {
			sorted, err := e.sortPartition(schema, cmp, total, st, func(f func(*storage.ColumnBatch) error) error {
				for _, b := range batches {
					if err := f(b); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			out[0] = sorted
			return nil
		},
	}}
	st.addTasks(1)
	if _, err := e.cluster.RunNamedJob(ctx, "sort", task); err != nil {
		return nil, fmt.Errorf("dataflow: sort: %w", err)
	}
	return sortedBatchParts(out, schema, st), nil
}

// evalSortRange is the range-partitioned parallel sort: sample the input with
// a deterministic ceiling stride (so repeated runs pick identical split
// points and the sample never exceeds its target), derive
// shufflePartitions-1 split points, range-shuffle rows by batch index through
// a partition store (spilling under budget), and sort the partitions in
// parallel. The output partitions are ordered end to end, so their
// concatenation is the globally sorted dataset, and stability is preserved:
// the shuffle keeps input order within each partition, and rows comparing
// equal to a split point all land on its right.
func (e *Engine) evalSortRange(ctx context.Context, in []*storage.ColumnBatch, total int,
	cmp *batchComparator, schema *storage.Schema, st *execState) ([]*storage.ColumnBatch, error) {

	target := e.shufflePartitions * sortSamplesPerPartition
	if target > total {
		target = total
	}
	stride := (total + target - 1) / target
	sample := storage.NewColumnBatch(schema, target)
	i := 0
	for _, b := range in {
		for r := 0; r < b.Len(); r++ {
			if i%stride == 0 {
				sample.AppendRowFrom(b, r)
			}
			i++
		}
	}
	st.addSampled(sample.Len())
	order := cmp.sortedSelection(sample)
	points := make([]int32, 0, e.shufflePartitions-1)
	for b := 1; b < e.shufflePartitions; b++ {
		points = append(points, order[b*len(order)/e.shufflePartitions])
	}

	// Range shuffle: partition p receives the rows between split points p-1
	// and p, rows equal to a split point landing on its right.
	split := newRangeSplit(cmp, sample.Gather(points))
	store, err := e.gatherBatches(in, schema, st, split.partitions)
	if err != nil {
		return nil, err
	}
	defer st.releaseStore(store)

	nParts := store.Partitions()
	out := make([][]*storage.ColumnBatch, nParts)
	tasks := make([]cluster.Task, nParts)
	for p := range tasks {
		p := p
		tasks[p] = cluster.Task{
			Name: fmt.Sprintf("sort-range[%d]", p),
			Fn: func(ctx context.Context, node cluster.Node) error {
				sorted, err := e.sortPartition(schema, cmp, store.PartitionRows(p), st,
					func(f func(*storage.ColumnBatch) error) error { return store.EachBatch(p, f) })
				if err != nil {
					return err
				}
				out[p] = sorted
				return nil
			},
		}
	}
	st.addTasks(len(tasks))
	if _, err := e.cluster.RunNamedJob(ctx, "sort-range", tasks); err != nil {
		return nil, fmt.Errorf("dataflow: sort-range: %w", err)
	}
	return sortedBatchParts(out, schema, st), nil
}

// sortPartition sorts one partition's batches, streamed by each. In memory
// (no budget) it flattens the partition and gathers the sorted selection
// vector — one output batch. Under a budget it is the external merge: fixed
// SortChunkRows-row chunks are selection-sorted into runs, runs spill through
// the batch codec when the run store's budget is exceeded, and a loser-tree
// merge streams them back in chunk-sized output batches, so the sort's own
// accumulation stays bounded by runs × chunk instead of the partition size.
func (e *Engine) sortPartition(schema *storage.Schema, cmp *batchComparator, rows int,
	st *execState, each func(func(*storage.ColumnBatch) error) error) ([]*storage.ColumnBatch, error) {

	if rows == 0 {
		return nil, nil
	}
	if e.memoryBudget <= 0 {
		var list []*storage.ColumnBatch
		if err := each(func(b *storage.ColumnBatch) error { list = append(list, b); return nil }); err != nil {
			return nil, err
		}
		flat := list[0]
		if len(list) > 1 {
			flat = flattenBatches(schema, list)
		}
		return []*storage.ColumnBatch{flat.Gather(cmp.sortedSelection(flat))}, nil
	}

	rs, err := storage.NewRunStore(schema, e.memoryBudget)
	if err != nil {
		return nil, err
	}
	rs.SetCodec(spillCodec)
	rs.SetSpillDir(e.spillDir)
	defer func() {
		st.noteSortPeak(rs.MaxResidentBytes())
		st.releaseStore(rs)
	}()
	chunkCap := SortChunkRows
	if rows < chunkCap {
		chunkCap = rows
	}
	open := storage.NewColumnBatch(schema, chunkCap)
	seal := func() error {
		if open.Len() == 0 {
			return nil
		}
		if err := rs.AppendRun(open.Gather(cmp.sortedSelection(open))); err != nil {
			return err
		}
		open = storage.NewColumnBatch(schema, chunkCap)
		return nil
	}
	err = each(func(b *storage.ColumnBatch) error {
		for i := 0; i < b.Len(); i++ {
			open.AppendRowFrom(b, i)
			if open.Len() >= SortChunkRows {
				if err := seal(); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := seal(); err != nil {
		return nil, err
	}
	st.addSortRuns(rs.Runs())
	var out []*storage.ColumnBatch
	err = rs.Merge(cmp.Compare, SortChunkRows, func(b *storage.ColumnBatch) error {
		out = append(out, b)
		return nil
	})
	if err != nil {
		return nil, err
	}
	st.addSortMerged(len(out))
	return out, nil
}

// sortedBatchParts flattens per-partition sorted batch sequences into the
// engine's partition list, preserving partition order (their concatenation
// is the globally sorted output). Empty partitions keep an empty batch, so
// the output partition count — and the task count of whatever consumes it —
// does not depend on the data.
func sortedBatchParts(in [][]*storage.ColumnBatch, schema *storage.Schema, st *execState) []*storage.ColumnBatch {
	out := make([]*storage.ColumnBatch, 0, len(in))
	nBatches, nRows := 0, 0
	for _, bs := range in {
		if len(bs) == 0 {
			out = append(out, storage.NewColumnBatch(schema, 0))
			continue
		}
		for _, b := range bs {
			out = append(out, b)
			nBatches++
			nRows += b.Len()
		}
	}
	st.addBatches(nBatches, nRows)
	return out
}
