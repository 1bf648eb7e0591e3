package dataflow

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/metrics"
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
	// rangeSortMinRowsPerPartition is the minimum average partition size worth
	// a range shuffle; smaller inputs sort in a single task.
	rangeSortMinRowsPerPartition = 64
)

// SortChunkRows is the fixed chunk size of the external merge sort: under a
// memory budget each partition sorts SortChunkRows-row chunks into sorted
// runs that spill through the batch codec and merge back with a loser tree,
// so the sort's resident accumulation is bounded by runs × chunk instead of
// the partition size. Exported so the ablation benchmarks can state the
// bound they assert.
const SortChunkRows = 4096

// Engine compiles logical plans into tasks and executes them on a simulated
// cluster. Before execution the engine's stage compiler fuses maximal chains
// of narrow operators into single-job stages (see stage.go); wide operators
// remain shuffle boundaries, but each picks a physical strategy: sort range-
// partitions and sorts partitions in parallel, join broadcasts small build
// sides, distinct dedups map-side before shuffling. An Engine is safe for
// concurrent use.
type Engine struct {
	cluster           *cluster.Cluster
	reg               *metrics.Registry
	shufflePartitions int
	// fuse enables the stage compiler; disabled, every narrow operator runs
	// as its own cluster job (the pre-fusion baseline, kept for ablation).
	fuse bool
	// combine enables the map-side partial aggregation pass before group-by
	// shuffles.
	combine bool
	// rangeSort enables the range-partitioned parallel sort; disabled, sort
	// collapses into a single cluster task (the pre-overhaul baseline).
	rangeSort bool
	// broadcastJoin enables broadcasting build sides below
	// broadcastThreshold rows; disabled, every join shuffles both inputs.
	broadcastJoin      bool
	broadcastThreshold int
	// mapSideDistinct enables per-partition dedup before the distinct
	// shuffle, with the computed keys carried through it.
	mapSideDistinct bool
	// vectorize enables columnar batch execution: fused narrow stages run as
	// column kernels over storage.ColumnBatch partitions and wide operators
	// shuffle by batch index. Disabled, every partition is a []storage.Row
	// and operators run row at a time (the ablation baseline).
	vectorize bool
	// columnarSort enables the typed-key columnar sort core under vectorized
	// execution: selection vectors are ordered by per-type compare kernels
	// directly over the column vectors, and under a memory budget the sort
	// runs as a spill-aware external merge. Disabled, Sort materialises its
	// batches back into boxed rows and sorts with the interface-based row
	// comparators (the pre-typed-sort behaviour, kept for ablation).
	columnarSort bool
	// columnarAgg enables the columnar group-by core under vectorized
	// execution: a storage.GroupTable maps keys to dense group ids and
	// aggregations accumulate into typed vectors indexed by group id, with
	// the non-combined path's group state spill-aware under a memory budget.
	// Disabled, group-by falls back to the boxed per-group aggState maps (the
	// pre-columnar behaviour, kept for ablation).
	columnarAgg bool
	// strictValidate re-enables per-row schema validation of every Map and
	// FlatMap output on the row-at-a-time paths. Off (the default), only the
	// first output row of each partition is validated eagerly; the vectorized
	// path always validates, because unboxing into typed vectors is the
	// validation.
	strictValidate bool
	// memoryBudget bounds the resident bytes of each wide operator's batch
	// accumulation (shuffle buckets, sort inputs, join build sides): batches
	// past the budget spill to temp files and are restored transparently on
	// read. <= 0 (the default) means unlimited — nothing ever spills.
	memoryBudget int64
	// spillCompress enables the compressed v2 frame codec for every spill
	// store the engine creates (dictionary strings, delta ints, RLE bitmaps —
	// see storage/frame.go). Disabled, spills use the raw v1 layout (the
	// compression ablation baseline). Decoding accepts both either way.
	spillCompress bool

	// spillDir places every spill temp file this engine creates ("" keeps
	// os.TempDir()).
	spillDir string
}

// codec returns the batch codec options every spill store created by this
// engine should use.
func (e *Engine) codec() storage.CodecOptions {
	return storage.CodecOptions{Compress: e.spillCompress}
}

// part is one partition of intermediate data: a boxed row slice, a columnar
// batch, or both (sources keep their original rows next to the cached batch,
// so row-path consumers never pay a conversion). Operators that have a
// vectorized implementation consume batches directly; everything else
// materialises rows on demand.
type part struct {
	rows  []storage.Row
	batch *storage.ColumnBatch
}

func rowPart(rows []storage.Row) part       { return part{rows: rows} }
func batchPart(b *storage.ColumnBatch) part { return part{batch: b} }
func (p part) isBatch() bool                { return p.batch != nil }
func (p part) len() int {
	if p.batch != nil {
		return p.batch.Len()
	}
	return len(p.rows)
}

// toRows materialises the partition as boxed rows (free when the partition
// carries rows already).
func (p part) toRows() []storage.Row {
	if p.rows != nil || p.batch == nil {
		return p.rows
	}
	return p.batch.Rows()
}

// eachRow feeds the partition's rows to f, stopping on error or when f
// reports it needs no more input. Batch-backed partitions materialise one row
// at a time, so an early-stopping consumer (a limit-capped pipeline) never
// pays for rows it does not pull.
func (p part) eachRow(f func(storage.Row) (bool, error)) error {
	if p.rows == nil && p.batch != nil {
		for i := 0; i < p.batch.Len(); i++ {
			more, err := f(p.batch.Row(i))
			if err != nil || !more {
				return err
			}
		}
		return nil
	}
	for _, r := range p.rows {
		more, err := f(r)
		if err != nil || !more {
			return err
		}
	}
	return nil
}

// rowParts wraps row partitions.
func rowParts(in [][]storage.Row) []part {
	out := make([]part, len(in))
	for i, p := range in {
		out[i] = rowPart(p)
	}
	return out
}

// partsToRows materialises every partition as boxed rows.
func partsToRows(in []part) [][]storage.Row {
	out := make([][]storage.Row, len(in))
	for i, p := range in {
		out[i] = p.toRows()
	}
	return out
}

// batchesOf returns the columnar form of the partitions when every one is
// batch-backed; ok is false as soon as one partition is row-backed (the
// caller then takes the row path).
func batchesOf(in []part) ([]*storage.ColumnBatch, bool) {
	out := make([]*storage.ColumnBatch, len(in))
	for i, p := range in {
		if p.batch == nil {
			return nil, false
		}
		out[i] = p.batch
	}
	return out, true
}

func countParts(in []part) int {
	total := 0
	for _, p := range in {
		total += p.len()
	}
	return total
}

// EngineOption configures engine construction.
type EngineOption func(*Engine)

// WithShufflePartitions sets the number of partitions produced by wide
// transformations (group-by, join, distinct). The default is the cluster's
// total slot count.
func WithShufflePartitions(n int) EngineOption {
	return func(e *Engine) {
		if n >= 1 {
			e.shufflePartitions = n
		}
	}
}

// WithFusion toggles the stage compiler (default on). With fusion off every
// narrow operator schedules its own cluster job and materialises its full
// output, which is the baseline the fused benchmarks compare against.
func WithFusion(enabled bool) EngineOption {
	return func(e *Engine) { e.fuse = enabled }
}

// WithMapSideCombine toggles partial aggregation before group-by shuffles
// (default on). With combining off every input row crosses the shuffle
// boundary.
func WithMapSideCombine(enabled bool) EngineOption {
	return func(e *Engine) { e.combine = enabled }
}

// WithRangeSort toggles the range-partitioned parallel sort (default on).
// With it off — or when the input is too small to be worth a shuffle — Sort
// runs as one global task, the pre-overhaul baseline kept for ablation.
func WithRangeSort(enabled bool) EngineOption {
	return func(e *Engine) { e.rangeSort = enabled }
}

// WithBroadcastJoin toggles the broadcast hash join strategy (default on).
// With it off every join shuffles both inputs regardless of size.
func WithBroadcastJoin(enabled bool) EngineOption {
	return func(e *Engine) { e.broadcastJoin = enabled }
}

// WithBroadcastThreshold sets the build-side row count at or under which a
// join broadcasts instead of shuffling (default 10000). Non-positive values
// are ignored; use WithBroadcastJoin(false) to disable broadcasting.
func WithBroadcastThreshold(rows int) EngineOption {
	return func(e *Engine) {
		if rows > 0 {
			e.broadcastThreshold = rows
		}
	}
}

// WithMapSideDistinct toggles per-partition dedup before the distinct shuffle
// (default on). With it off every input row crosses the shuffle boundary and
// is keyed again on the reduce side.
func WithMapSideDistinct(enabled bool) EngineOption {
	return func(e *Engine) { e.mapSideDistinct = enabled }
}

// WithVectorizedExecution toggles columnar batch execution (default on).
// Enabled, partitions travel as typed column vectors: fused stages run batch
// kernels (filters build selection vectors, projections and derived columns
// are column-level operations, arbitrary user closures read through zero-copy
// per-row views) and wide operators key and move rows by batch index.
// Disabled, the engine runs the row-at-a-time baseline kept for ablation.
func WithVectorizedExecution(enabled bool) EngineOption {
	return func(e *Engine) { e.vectorize = enabled }
}

// WithColumnarSort toggles the typed-key columnar sort core (default on).
// Enabled (and with vectorized execution on), Sort orders selection vectors
// with per-type compare kernels directly over the column vectors and, under
// a memory budget, runs as a spill-aware external merge of sorted runs.
// Disabled, Sort materialises its batch inputs back into boxed rows and
// sorts with the interface-based row comparators — the pre-typed-sort
// behaviour kept as the "boxed" arm of BenchmarkSortColumnar. Row-at-a-time
// execution (WithVectorizedExecution(false)) ignores this switch.
func WithColumnarSort(enabled bool) EngineOption {
	return func(e *Engine) { e.columnarSort = enabled }
}

// WithColumnarAgg toggles the columnar group-by core (default on). Enabled
// (and with vectorized execution on), GroupBy maps keys to dense group ids
// through a storage.GroupTable and accumulates every aggregation in typed
// vectors indexed by group id — one tight typed pass per aggregation instead
// of per-row interface dispatch over boxed state. Under a memory budget the
// non-combined path's group state is itself spill-aware: overflowing state is
// flushed as partial rows, hash-partitioned through the batch codec, and
// re-aggregated runs-then-merge style. Disabled, GroupBy uses the boxed
// per-group aggState maps — the "boxed" arm of BenchmarkGroupByVectorized.
// Row-at-a-time execution (WithVectorizedExecution(false)) ignores this
// switch.
func WithColumnarAgg(enabled bool) EngineOption {
	return func(e *Engine) { e.columnarAgg = enabled }
}

// WithStrictValidation re-enables schema validation of every Map/FlatMap
// output row on the row-at-a-time paths (default off). With it off, only the
// first output row of each partition is validated, which catches the common
// mistake — a closure whose rows never match the declared schema — without
// paying a full per-row type walk. The vectorized path always validates:
// storing a cell into a typed column vector is the check.
func WithStrictValidation(enabled bool) EngineOption {
	return func(e *Engine) { e.strictValidate = enabled }
}

// WithMemoryBudget bounds the bytes of columnar batch data each wide
// operator keeps resident while accumulating (per partition store: one per
// shuffle side, sort input staging, or distinct survivor set). Once an
// accumulation exceeds the budget its coldest batches are spilled to temp
// files and restored transparently when the consuming tasks read them, so
// wide operators run within budget on inputs that exceed RAM. bytes <= 0 (the
// default) disables spilling. The budget only governs the vectorized
// engine's columnar partitions; row-at-a-time ablation modes ignore it.
func WithMemoryBudget(bytes int64) EngineOption {
	return func(e *Engine) { e.memoryBudget = bytes }
}

// WithSpillCompression toggles the compressed spill frame codec (default on).
// Enabled, every batch a wide operator spills under the memory budget is
// encoded as a v2 frame: string columns dictionary-encoded, int columns
// delta-varint, null bitmaps and bools run-length encoded, with a raw
// fallback per column whenever an encoding doesn't win. Disabled, spills use
// the raw v1 layout — the ablation arm that measures what compression buys.
// Reads accept both formats regardless of this switch, and
// Stats.SpillLogicalBytes always reports the v1-equivalent size so the two
// arms compare physical bytes on equal footing.
func WithSpillCompression(enabled bool) EngineOption {
	return func(e *Engine) { e.spillCompress = enabled }
}

// WithSpillDir places every spill temp file the engine creates (shuffle
// gathers, sort runs, aggregation overflow) in dir instead of
// the system temp directory. "" (the default) keeps os.TempDir(); the
// directory must already exist.
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
		reg:                metrics.NewRegistry(),
		shufflePartitions:  c.TotalSlots(),
		fuse:               true,
		combine:            true,
		rangeSort:          true,
		broadcastJoin:      true,
		broadcastThreshold: defaultBroadcastThreshold,
		mapSideDistinct:    true,
		vectorize:          true,
		columnarSort:       true,
		columnarAgg:        true,
		spillCompress:      true,
	}
	if e.shufflePartitions < 1 {
		e.shufflePartitions = 1
	}
	for _, opt := range opts {
		opt(e)
	}
	return e, nil
}

// Metrics exposes the engine's metric registry (rows read, shuffled, tasks…).
func (e *Engine) Metrics() *metrics.Registry { return e.reg }

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
	// and merged. Zero when sorts ran columnar in-memory or row-at-a-time.
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
	// AggSpilledPartitions is the number of spill sub-partitions the
	// budget-bounded hash aggregation flushed overflowing group state into
	// and merged back. Zero when group state fit in memory.
	AggSpilledPartitions int64
	// AggPeakResidentBytes is the largest resident group-state footprint
	// (hash table plus accumulator vectors) any single aggregation task
	// reached — the measured side of the spilling hash-agg's memory bound.
	// Tracked by the columnar aggregation core only; boxed ablation arms
	// report zero.
	AggPeakResidentBytes int64
	// DistinctPrecombinedRows is the number of duplicate rows the map-side
	// dedup pass removed before distinct shuffles.
	DistinctPrecombinedRows int64
	// Batches is the number of columnar batches processed by vectorized
	// kernels (fused-stage pipelines and batch shuffles). Zero under
	// WithVectorizedExecution(false).
	Batches int64
	// BatchRows is the number of rows those batches carried.
	BatchRows int64
	// SpilledBatches is the number of columnar batches written to spill
	// files because a wide operator's accumulation exceeded the memory
	// budget. Zero without WithMemoryBudget.
	SpilledBatches int64
	// SpilledBytes is the cumulative physical bytes written to spill files —
	// the actual disk write traffic, compressed when spill compression is on.
	SpilledBytes int64
	// SpillLogicalBytes is the cumulative raw (v1-equivalent) size of the
	// same spilled batches: what SpilledBytes would have been without the
	// compressed codec. SpillLogicalBytes/SpilledBytes is the achieved
	// compression ratio; the two are equal under WithSpillCompression(false).
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

// Result is the materialised output of Collect.
type Result struct {
	Schema *storage.Schema
	Rows   []storage.Row
	Stats  Stats
}

// Table converts the result into a named storage table.
func (r *Result) Table(name string, opts ...storage.TableOption) (*storage.Table, error) {
	t, err := storage.NewTable(name, r.Schema, opts...)
	if err != nil {
		return nil, err
	}
	if _, err := t.AppendAll(r.Rows); err != nil {
		return nil, err
	}
	return t, nil
}

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
func (s *execState) addAggSpilledParts(n int) {
	s.mu.Lock()
	s.stats.AggSpilledPartitions += int64(n)
	s.mu.Unlock()
}
func (s *execState) noteAggPeak(bytes int64) {
	s.mu.Lock()
	if bytes > s.stats.AggPeakResidentBytes {
		s.stats.AggPeakResidentBytes = bytes
	}
	s.mu.Unlock()
}
func (s *execState) addPrecombined(n int) {
	s.mu.Lock()
	s.stats.DistinctPrecombinedRows += int64(n)
	s.mu.Unlock()
}
func (s *execState) addBatches(batches, rows int) {
	s.mu.Lock()
	s.stats.Batches += int64(batches)
	s.stats.BatchRows += int64(rows)
	s.mu.Unlock()
}
func (s *execState) addSpilled(batches, bytes, logical int64) {
	s.mu.Lock()
	s.stats.SpilledBatches += batches
	s.stats.SpilledBytes += bytes
	s.stats.SpillLogicalBytes += logical
	s.mu.Unlock()
}

func (s *execState) noteSpillFilePeak(bytes int64) {
	s.mu.Lock()
	if bytes > s.stats.SpillFilePeakBytes {
		s.stats.SpillFilePeakBytes = bytes
	}
	s.mu.Unlock()
}

// releaseStore folds a partition store's spill counters into the stats and
// releases its spill file. Callers defer it as soon as the store exists, so
// temp files are cleaned up on every error path.
func (s *execState) releaseStore(store *storage.PartitionStore) {
	s.addSpilled(store.SpilledBatches(), store.SpilledBytes(), store.SpilledLogicalBytes())
	s.noteSpillFilePeak(store.FileBytes())
	_ = store.Close()
}

// execute runs the plan and returns the output partitions in their internal
// representation, with stats finalised and metrics recorded.
func (e *Engine) execute(ctx context.Context, d *Dataset) ([]part, *execState, error) {
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
	st.stats.RowsOutput = int64(countParts(parts))
	st.stats.WallTime = time.Since(start)

	e.reg.Counter("actions").Inc()
	e.reg.Counter("rows.read").Add(st.stats.RowsRead)
	e.reg.Counter("rows.output").Add(st.stats.RowsOutput)
	e.reg.Counter("rows.shuffled").Add(st.stats.ShuffledRows)
	e.reg.Counter("tasks").Add(st.stats.Tasks)
	e.reg.Counter("stages.fused").Add(st.stats.FusedStages)
	e.reg.Counter("shuffle.combined").Add(st.stats.CombinedRows)
	e.reg.Counter("joins.broadcast").Add(st.stats.BroadcastJoins)
	e.reg.Counter("sort.sampled").Add(st.stats.SortSampledRows)
	e.reg.Counter("sort.runs").Add(st.stats.SortRuns)
	e.reg.Counter("sort.merged.batches").Add(st.stats.SortMergedBatches)
	e.reg.Counter("agg.groups").Add(st.stats.AggGroups)
	e.reg.Counter("agg.spilled.partitions").Add(st.stats.AggSpilledPartitions)
	e.reg.Counter("distinct.precombined").Add(st.stats.DistinctPrecombinedRows)
	e.reg.Counter("batches").Add(st.stats.Batches)
	e.reg.Counter("batches.rows").Add(st.stats.BatchRows)
	e.reg.Counter("spill.batches").Add(st.stats.SpilledBatches)
	e.reg.Counter("spill.bytes").Add(st.stats.SpilledBytes)
	e.reg.Counter("spill.bytes.logical").Add(st.stats.SpillLogicalBytes)
	// Monotonic compression win: logical minus physical bytes. Divide the
	// logical counter by (logical - saved) for the cumulative ratio.
	e.reg.Counter("spill.bytes.saved").Add(st.stats.SpillLogicalBytes - st.stats.SpilledBytes)
	e.reg.Timer("action.duration").ObserveDuration(st.stats.WallTime)
	return parts, st, nil
}

// Collect executes the plan and materialises every output row.
func (e *Engine) Collect(ctx context.Context, d *Dataset) (*Result, error) {
	parts, st, err := e.execute(ctx, d)
	if err != nil {
		return nil, err
	}
	var rows []storage.Row
	if total := countParts(parts); total > 0 {
		rows = make([]storage.Row, 0, total)
	}
	for _, p := range parts {
		rows = append(rows, p.toRows()...)
	}
	return &Result{Schema: d.Schema(), Rows: rows, Stats: st.stats}, nil
}

// Count executes the plan and returns the number of output rows without
// materialising them: batch-backed output partitions are only counted, never
// converted back to boxed rows.
func (e *Engine) Count(ctx context.Context, d *Dataset) (int64, error) {
	_, st, err := e.execute(ctx, d)
	if err != nil {
		return 0, err
	}
	return st.stats.RowsOutput, nil
}

// CountStats is Count plus the execution statistics of the action.
func (e *Engine) CountStats(ctx context.Context, d *Dataset) (int64, Stats, error) {
	_, st, err := e.execute(ctx, d)
	if err != nil {
		return 0, Stats{}, err
	}
	return st.stats.RowsOutput, st.stats, nil
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
	case *distinctNode:
		if err := requireAll("distinct", n.child.schema(), n.cols); err != nil {
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

// eval recursively executes a plan node, returning its output partitions.
// With fusion enabled, a maximal chain of narrow operators ending at node
// executes as one fused stage (one cluster job per stage); under vectorized
// execution the stage runs batch kernels over columnar partitions, otherwise
// one composed row pipeline per partition.
func (e *Engine) eval(ctx context.Context, node planNode, st *execState) ([]part, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if e.fuse {
		if ch, ok := narrowChainOf(node); ok {
			// Chains capped by a trailing limit keep the pull-based row
			// pipeline: its per-partition early stop (quit as soon as limit
			// rows were emitted) is worth more than any kernel, and batch
			// kernels would eagerly process whole partitions.
			if e.vectorize && ch.limit < 0 {
				return e.evalFusedVectorized(ctx, ch, st)
			}
			return e.evalFused(ctx, ch, st)
		}
	}
	switch n := node.(type) {
	case *sourceNode:
		return e.evalSource(n, st)
	case *filterNode:
		if e.vectorize {
			return e.evalSingleOpVectorized(ctx, n, n.child, st)
		}
		return e.evalFilter(ctx, n, st)
	case *mapNode:
		if e.vectorize {
			return e.evalSingleOpVectorized(ctx, n, n.child, st)
		}
		return e.evalMap(ctx, n, st)
	case *flatMapNode:
		if e.vectorize {
			return e.evalSingleOpVectorized(ctx, n, n.child, st)
		}
		return e.evalFlatMap(ctx, n, st)
	case *projectNode:
		if e.vectorize {
			return e.evalSingleOpVectorized(ctx, n, n.child, st)
		}
		return e.evalProject(ctx, n, st)
	case *withColumnNode:
		if e.vectorize {
			return e.evalSingleOpVectorized(ctx, n, n.child, st)
		}
		return e.evalWithColumn(ctx, n, st)
	case *sampleNode:
		if e.vectorize {
			return e.evalSingleOpVectorized(ctx, n, n.child, st)
		}
		return e.evalSample(ctx, n, st)
	case *unionNode:
		left, err := e.eval(ctx, n.left, st)
		if err != nil {
			return nil, err
		}
		right, err := e.eval(ctx, n.right, st)
		if err != nil {
			return nil, err
		}
		return append(append([]part{}, left...), right...), nil
	case *limitNode:
		return e.evalLimit(ctx, n, st)
	case *distinctNode:
		return e.evalDistinct(ctx, n, st)
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

// evalSource returns the source partitions: columnar batches under vectorized
// execution (converted once per plan and cached), boxed rows otherwise.
func (e *Engine) evalSource(n *sourceNode, st *execState) ([]part, error) {
	total := 0
	for _, p := range n.partitions {
		total += len(p)
	}
	st.addRead(total)
	if e.vectorize {
		batches, err := n.batchPartitions()
		if err != nil {
			return nil, err
		}
		st.addBatches(len(batches), total)
		out := make([]part, len(batches))
		for i, b := range batches {
			// Source parts carry both representations: batch consumers take
			// the columnar form, row consumers reuse the original rows.
			out[i] = part{rows: n.partitions[i], batch: b}
		}
		return out, nil
	}
	return rowParts(n.partitions), nil
}

// evalSingleOpVectorized runs one narrow operator as its own cluster job
// through the existing batch kernels — the vectorized unfused path. With the
// stage compiler off (WithFusion(false)) narrow operators used to fall back
// to row-at-a-time execution even under vectorized execution; wrapping the
// single operator as a one-op chain reuses runVectorizedChain unchanged, so
// the unfused ablation arm now isolates the scheduling cost of per-operator
// jobs instead of conflating it with boxed-row execution. Every narrow
// operator routes here now: filter, project, with_column and sample run pure
// column kernels, while Map/FlatMap closures read through zero-copy batch
// views and append into typed output vectors, exactly as they do inside
// fused stages.
func (e *Engine) evalSingleOpVectorized(ctx context.Context, op planNode, child planNode, st *execState) ([]part, error) {
	return e.evalFusedVectorized(ctx, fusedChain{ops: []planNode{op}, base: child, limit: -1}, st)
}

// runPerPartition executes fn once per input partition as parallel cluster
// tasks and returns the produced row partitions in input order.
func (e *Engine) runPerPartition(ctx context.Context, name string, in [][]storage.Row, st *execState,
	fn func(partIdx int, rows []storage.Row) ([]storage.Row, error)) ([]part, error) {

	out := make([][]storage.Row, len(in))
	tasks := make([]cluster.Task, len(in))
	for i := range in {
		i := i
		tasks[i] = cluster.Task{
			Name: fmt.Sprintf("%s[%d]", name, i),
			Fn: func(ctx context.Context, node cluster.Node) error {
				rows, err := fn(i, in[i])
				if err != nil {
					return fmt.Errorf("%w: %v", ErrUDF, err)
				}
				out[i] = rows
				return nil
			},
		}
	}
	st.addTasks(len(tasks))
	if _, err := e.cluster.RunNamedJob(ctx, name, tasks); err != nil {
		return nil, fmt.Errorf("dataflow: %s: %w", name, err)
	}
	return rowParts(out), nil
}

// validateHead checks row against the schema only when it is the first output
// of its partition (i == 0) or strict validation is on. ctx is the error
// prefix ("map output", "flatmap output").
func (e *Engine) validateHead(what string, schema *storage.Schema, row storage.Row, i int) error {
	if i > 0 && !e.strictValidate {
		return nil
	}
	if err := storage.ValidateRow(schema, row); err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	return nil
}

// evalFused executes a fused chain of narrow operators as one cluster job
// with one task per input partition. Each task pushes its partition's rows
// through the composed pipeline, so per-operator intermediate partitions are
// never materialised, and a trailing limit stops the partition early —
// batch-backed inputs are pulled one row at a time, so rows past the stop
// are never even boxed.
func (e *Engine) evalFused(ctx context.Context, ch fusedChain, st *execState) ([]part, error) {
	in, err := e.eval(ctx, ch.base, st)
	if err != nil {
		return nil, err
	}
	name := ch.name()
	out := make([][]storage.Row, len(in))
	tasks := make([]cluster.Task, len(in))
	for i := range in {
		i := i
		tasks[i] = cluster.Task{
			Name: fmt.Sprintf("%s[%d]", name, i),
			Fn: func(ctx context.Context, node cluster.Node) error {
				if ch.limit == 0 {
					return nil
				}
				var res []storage.Row
				sink := func(r storage.Row) (bool, error) {
					res = append(res, r)
					return ch.limit < 0 || len(res) < ch.limit, nil
				}
				if err := in[i].eachRow(ch.compile(e, i, sink)); err != nil {
					return fmt.Errorf("%w: %v", ErrUDF, err)
				}
				out[i] = res
				return nil
			},
		}
	}
	st.addTasks(len(tasks))
	if _, err := e.cluster.RunNamedJob(ctx, name, tasks); err != nil {
		return nil, fmt.Errorf("dataflow: %s: %w", name, err)
	}
	if len(ch.ops) > 1 {
		st.addFused()
	}
	if ch.limit >= 0 {
		return truncateParts(rowParts(out), ch.limit), nil
	}
	return rowParts(out), nil
}

// truncateParts keeps the first limit rows in partition order, collapsing the
// output into a single partition (Limit's semantics). Batch partitions are
// truncated as zero-copy head views.
func truncateParts(in []part, limit int) []part {
	kept := make([]part, 0, len(in))
	remaining := limit
	for _, p := range in {
		if remaining <= 0 {
			break
		}
		n := p.len()
		if n == 0 {
			continue
		}
		if n > remaining {
			if p.isBatch() {
				p = batchPart(p.batch.Head(remaining))
			} else {
				p = rowPart(p.rows[:remaining])
			}
			n = remaining
		}
		kept = append(kept, p)
		remaining -= n
	}
	// Collapse into one partition to preserve Limit's single-partition
	// contract; row-backed pieces concatenate, a single batch stays columnar.
	if len(kept) == 1 {
		return kept
	}
	rows := make([]storage.Row, 0, limit-remaining)
	for _, p := range kept {
		rows = append(rows, p.toRows()...)
	}
	return []part{rowPart(rows)}
}

func (e *Engine) evalFilter(ctx context.Context, n *filterNode, st *execState) ([]part, error) {
	in, err := e.eval(ctx, n.child, st)
	if err != nil {
		return nil, err
	}
	schema := n.child.schema()
	return e.runPerPartition(ctx, "filter", partsToRows(in), st, func(_ int, rows []storage.Row) ([]storage.Row, error) {
		out := make([]storage.Row, 0, len(rows))
		for _, r := range rows {
			keep, err := n.fn(Record{schema: schema, row: r})
			if err != nil {
				return nil, err
			}
			if keep {
				out = append(out, r)
			}
		}
		return out, nil
	})
}

func (e *Engine) evalMap(ctx context.Context, n *mapNode, st *execState) ([]part, error) {
	in, err := e.eval(ctx, n.child, st)
	if err != nil {
		return nil, err
	}
	schema := n.child.schema()
	out := n.out
	return e.runPerPartition(ctx, "map", partsToRows(in), st, func(_ int, rows []storage.Row) ([]storage.Row, error) {
		res := make([]storage.Row, 0, len(rows))
		for i, r := range rows {
			nr, err := n.fn(Record{schema: schema, row: r})
			if err != nil {
				return nil, err
			}
			if err := e.validateHead("map output", out, nr, i); err != nil {
				return nil, err
			}
			res = append(res, nr)
		}
		return res, nil
	})
}

func (e *Engine) evalFlatMap(ctx context.Context, n *flatMapNode, st *execState) ([]part, error) {
	in, err := e.eval(ctx, n.child, st)
	if err != nil {
		return nil, err
	}
	schema := n.child.schema()
	out := n.out
	return e.runPerPartition(ctx, "flatmap", partsToRows(in), st, func(_ int, rows []storage.Row) ([]storage.Row, error) {
		var res []storage.Row
		for _, r := range rows {
			produced, err := n.fn(Record{schema: schema, row: r})
			if err != nil {
				return nil, err
			}
			for _, nr := range produced {
				if err := e.validateHead("flatmap output", out, nr, len(res)); err != nil {
					return nil, err
				}
				res = append(res, nr)
			}
		}
		return res, nil
	})
}

func (e *Engine) evalProject(ctx context.Context, n *projectNode, st *execState) ([]part, error) {
	in, err := e.eval(ctx, n.child, st)
	if err != nil {
		return nil, err
	}
	return e.runPerPartition(ctx, "project", partsToRows(in), st, func(_ int, rows []storage.Row) ([]storage.Row, error) {
		res := make([]storage.Row, 0, len(rows))
		for _, r := range rows {
			row := make(storage.Row, len(n.indices))
			for i, idx := range n.indices {
				row[i] = r[idx]
			}
			res = append(res, row)
		}
		return res, nil
	})
}

func (e *Engine) evalWithColumn(ctx context.Context, n *withColumnNode, st *execState) ([]part, error) {
	in, err := e.eval(ctx, n.child, st)
	if err != nil {
		return nil, err
	}
	schema := n.child.schema()
	return e.runPerPartition(ctx, "with_column", partsToRows(in), st, func(_ int, rows []storage.Row) ([]storage.Row, error) {
		res := make([]storage.Row, 0, len(rows))
		for i, r := range rows {
			v, err := n.fn(Record{schema: schema, row: r})
			if err != nil {
				return nil, err
			}
			if i == 0 || e.strictValidate {
				if err := storage.ValidateCell(n.field, v); err != nil {
					return nil, fmt.Errorf("with_column output: %w", err)
				}
			}
			row := make(storage.Row, len(r)+1)
			copy(row, r)
			row[len(r)] = v
			res = append(res, row)
		}
		return res, nil
	})
}

func (e *Engine) evalSample(ctx context.Context, n *sampleNode, st *execState) ([]part, error) {
	in, err := e.eval(ctx, n.child, st)
	if err != nil {
		return nil, err
	}
	return e.runPerPartition(ctx, "sample", partsToRows(in), st, func(idx int, rows []storage.Row) ([]storage.Row, error) {
		rng := rand.New(rand.NewSource(n.seed + int64(idx)))
		out := make([]storage.Row, 0, len(rows))
		for _, r := range rows {
			if rng.Float64() < n.fraction {
				out = append(out, r)
			}
		}
		return out, nil
	})
}

func (e *Engine) evalLimit(ctx context.Context, n *limitNode, st *execState) ([]part, error) {
	in, err := e.eval(ctx, n.child, st)
	if err != nil {
		return nil, err
	}
	out := truncateParts(in, n.n)
	if len(out) == 0 {
		return []part{rowPart(nil)}, nil
	}
	return out, nil
}

// countRows sums the partition sizes.
func countRows[T any](in [][]T) int {
	total := 0
	for _, p := range in {
		total += len(p)
	}
	return total
}

// shuffleBy redistributes items into nParts buckets, preserving input order
// within each bucket. Bucket assignment is computed once per item and the
// output buffers are pre-sized exactly, so the redistribution itself never
// reallocates.
func shuffleBy[T any](nParts int, in [][]T, part func(T) int) [][]T {
	total := countRows(in)
	assign := make([]int32, 0, total)
	counts := make([]int, nParts)
	for _, p := range in {
		for i := range p {
			b := part(p[i])
			assign = append(assign, int32(b))
			counts[b]++
		}
	}
	buckets := make([][]T, nParts)
	for b := range buckets {
		buckets[b] = make([]T, 0, counts[b])
	}
	i := 0
	for _, p := range in {
		for j := range p {
			buckets[assign[i]] = append(buckets[assign[i]], p[j])
			i++
		}
	}
	return buckets
}

// shuffleRows hash-partitions rows on their encoded key, counting every moved
// row. The encoder's reusable buffer keeps the per-row key computation
// allocation free.
func (e *Engine) shuffleRows(in [][]storage.Row, enc *storage.KeyEncoder, st *execState) [][]storage.Row {
	st.addStage()
	total := countRows(in)
	buckets := shuffleBy(e.shufflePartitions, in, func(r storage.Row) int {
		return storage.PartitionOfHash(enc.Hash(r), e.shufflePartitions)
	})
	st.addShuffled(total)
	return buckets
}

// spillChunkRows caps the open per-bucket builder on the budgeted batch
// shuffle: a chunk seals into the partition store (and becomes spillable)
// once it reaches this many rows, so the gather itself never accumulates
// unbounded resident state.
const spillChunkRows = 4096

// shuffleBatches hash-partitions columnar batches on keys encoded straight
// from the column vectors into a partition store, so no boxed Row is ever
// materialised on either side of the shuffle. See gatherBatches for the
// gather and spill mechanics. Callers must release the store via
// execState.releaseStore once its partitions are consumed.
func (e *Engine) shuffleBatches(in []*storage.ColumnBatch, schema *storage.Schema,
	enc *storage.KeyEncoder, st *execState) (*storage.PartitionStore, error) {

	local := enc.Clone()
	return e.gatherBatches(in, schema, st, func(b *storage.ColumnBatch, i int) int {
		return storage.PartitionOfHash(local.BatchHash(b, i), e.shufflePartitions)
	})
}

// gatherBatches redistributes columnar batches into a partition store under
// an arbitrary (batch, row) → partition assignment — hash buckets for the
// keyed shuffles, range buckets for the columnar sort. Without a memory
// budget the gather runs in two passes (exact pre-sizing, one resident batch
// per bucket — the pre-spill behaviour). With a budget it gathers in
// spillChunkRows chunks that seal into the store as they fill; the store
// spills the coldest chunks to disk whenever the resident total exceeds the
// budget, and the consuming tasks restore them transparently on read.
// Callers must release the store via execState.releaseStore once its
// partitions are consumed.
func (e *Engine) gatherBatches(in []*storage.ColumnBatch, schema *storage.Schema,
	st *execState, partOf func(b *storage.ColumnBatch, i int) int) (*storage.PartitionStore, error) {

	st.addStage()
	nParts := e.shufflePartitions
	store, err := storage.NewPartitionStore(schema, nParts,
		storage.WithMemoryBudget(e.memoryBudget), storage.WithCodec(e.codec()),
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
			for i := 0; i < n; i++ {
				p := partOf(b, i)
				a[i] = int32(p)
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
		for _, b := range in {
			n := b.Len()
			total += n
			for i := 0; i < n; i++ {
				p := partOf(b, i)
				ob := open[p]
				if ob == nil {
					ob = storage.NewColumnBatch(schema, spillChunkRows)
					open[p] = ob
				}
				ob.AppendRowFrom(b, i)
				if ob.Len() >= spillChunkRows {
					if err := store.Append(p, ob); err != nil {
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
// Distinct
// ---------------------------------------------------------------------------

// keyedRow carries a row together with its binary key encoding and hash
// across the distinct shuffle, so the reduce side never re-keys rows the map
// side already keyed.
type keyedRow struct {
	key  string
	hash uint64
	row  storage.Row
}

func (e *Engine) evalDistinct(ctx context.Context, n *distinctNode, st *execState) ([]part, error) {
	in, err := e.eval(ctx, n.child, st)
	if err != nil {
		return nil, err
	}
	enc, err := storage.NewKeyEncoder(n.child.schema(), n.cols...)
	if err != nil {
		return nil, fmt.Errorf("dataflow: distinct: %w", err)
	}
	if e.vectorize {
		if batches, ok := batchesOf(in); ok {
			return e.evalDistinctBatch(ctx, n.child.schema(), batches, enc, st)
		}
	}
	if e.mapSideDistinct {
		return e.evalDistinctCombined(ctx, partsToRows(in), enc, st)
	}
	// Baseline: every row crosses the shuffle and is keyed again on the
	// reduce side.
	buckets := e.shuffleRows(partsToRows(in), enc, st)
	return e.runPerPartition(ctx, "distinct", buckets, st, func(_ int, rows []storage.Row) ([]storage.Row, error) {
		local := enc.Clone()
		seen := make(map[string]struct{}, len(rows))
		var out []storage.Row
		for _, r := range rows {
			k := local.Key(r)
			if _, dup := seen[string(k)]; dup {
				continue
			}
			seen[string(k)] = struct{}{}
			out = append(out, r)
		}
		return out, nil
	})
}

// evalDistinctCombined implements distinct with a map-side dedup pass: one
// job removes duplicates within each input partition (keying every row
// exactly once), only the surviving keyed rows cross the shuffle boundary,
// and a second job merges survivors per bucket using the carried keys. Like
// the group-by combine pass, the removed rows are reported as
// DistinctPrecombinedRows.
func (e *Engine) evalDistinctCombined(ctx context.Context, in [][]storage.Row,
	enc *storage.KeyEncoder, st *execState) ([]part, error) {

	// Map side: one task per input partition dedups locally.
	partials := make([][]keyedRow, len(in))
	tasks := make([]cluster.Task, len(in))
	for i := range in {
		i := i
		tasks[i] = cluster.Task{
			Name: fmt.Sprintf("distinct-combine[%d]", i),
			Fn: func(ctx context.Context, node cluster.Node) error {
				local := enc.Clone()
				// Sized for the dedup-heavy case the pass exists for; both
				// grow as needed on unique-heavy partitions.
				seen := make(map[string]struct{}, 64)
				var out []keyedRow
				for _, r := range in[i] {
					k := local.Key(r)
					if _, dup := seen[string(k)]; dup {
						continue
					}
					ks := string(k)
					seen[ks] = struct{}{}
					out = append(out, keyedRow{key: ks, hash: storage.HashString64(ks), row: r})
				}
				partials[i] = out
				return nil
			},
		}
	}
	st.addTasks(len(tasks))
	if _, err := e.cluster.RunNamedJob(ctx, "distinct-combine", tasks); err != nil {
		return nil, fmt.Errorf("dataflow: distinct-combine: %w", err)
	}

	// Shuffle only the survivors, carrying their precomputed keys.
	inputRows := countRows(in)
	moved := countRows(partials)
	st.addStage()
	st.addShuffled(moved)
	st.addPrecombined(inputRows - moved)
	buckets := shuffleBy(e.shufflePartitions, partials, func(kr keyedRow) int {
		return storage.PartitionOfHash(kr.hash, e.shufflePartitions)
	})

	// Reduce side: merge survivors per bucket on the carried keys.
	out := make([][]storage.Row, len(buckets))
	mergeTasks := make([]cluster.Task, len(buckets))
	for b := range buckets {
		b := b
		mergeTasks[b] = cluster.Task{
			Name: fmt.Sprintf("distinct-merge[%d]", b),
			Fn: func(ctx context.Context, node cluster.Node) error {
				seen := make(map[string]struct{}, len(buckets[b]))
				rows := make([]storage.Row, 0, len(buckets[b]))
				for _, kr := range buckets[b] {
					if _, dup := seen[kr.key]; dup {
						continue
					}
					seen[kr.key] = struct{}{}
					rows = append(rows, kr.row)
				}
				out[b] = rows
				return nil
			},
		}
	}
	st.addTasks(len(mergeTasks))
	if _, err := e.cluster.RunNamedJob(ctx, "distinct-merge", mergeTasks); err != nil {
		return nil, fmt.Errorf("dataflow: distinct-merge: %w", err)
	}
	return rowParts(out), nil
}

// ---------------------------------------------------------------------------
// Sort
// ---------------------------------------------------------------------------

// rowComparator builds the multi-column comparison function for the sort
// orders, with column indices resolved once.
func rowComparator(schema *storage.Schema, orders []SortOrder) (func(a, b storage.Row) int, error) {
	idx := make([]int, len(orders))
	for i, o := range orders {
		idx[i] = schema.IndexOf(o.Column)
		if idx[i] < 0 {
			return nil, fmt.Errorf("dataflow: sort: %w: column %q not in input schema %s",
				storage.ErrUnknownField, o.Column, schema)
		}
	}
	return func(a, b storage.Row) int {
		for k, o := range orders {
			c := storage.CompareValues(a[idx[k]], b[idx[k]])
			if c == 0 {
				continue
			}
			if o.Descending {
				return -c
			}
			return c
		}
		return 0
	}, nil
}

func (e *Engine) evalSort(ctx context.Context, n *sortNode, st *execState) ([]part, error) {
	parts, err := e.eval(ctx, n.child, st)
	if err != nil {
		return nil, err
	}
	if e.vectorize && e.columnarSort {
		return e.evalSortColumnar(ctx, n, parts, st)
	}
	cmp, err := rowComparator(n.child.schema(), n.orders)
	if err != nil {
		return nil, err
	}
	// Boxed-row ablation arm (WithVectorizedExecution(false) or
	// WithColumnarSort(false)): batch-backed inputs are materialised into
	// boxed rows and sorted with the interface-based comparators. With a
	// memory budget set, the columnar inputs are staged through a spill store
	// first (see sortInputRows).
	in, err := e.sortInputRows(n.child.schema(), parts, st)
	if err != nil {
		return nil, err
	}
	total := countRows(in)
	if e.rangeSort && e.shufflePartitions > 1 && total > e.shufflePartitions*rangeSortMinRowsPerPartition {
		return e.evalSortRange(ctx, in, total, cmp, st)
	}
	// Baseline (and small-input fallback): collapse everything into one task
	// so the comparator executes on the cluster like any other work.
	st.addStage()
	all := make([]storage.Row, 0, total)
	for _, p := range in {
		all = append(all, p...)
	}
	st.addShuffled(total)
	return e.runPerPartition(ctx, "sort", [][]storage.Row{all}, st, func(_ int, rows []storage.Row) ([]storage.Row, error) {
		return sortRowsByIndex(rows, cmp), nil
	})
}

// sortRowsByIndex stable-sorts one partition's rows through a pre-sized index
// vector: SliceStable permutes 4-byte indices instead of 24-byte row headers
// across its passes, and the output gathers once into an exactly pre-sized
// slice — two allocations per partition no matter how many comparator passes
// the sort makes (the old path re-copied the whole row slice before sorting
// it in place).
func sortRowsByIndex(rows []storage.Row, cmp func(a, b storage.Row) int) []storage.Row {
	idx := make([]int32, len(rows))
	for i := range idx {
		idx[i] = int32(i)
	}
	sort.SliceStable(idx, func(a, b int) bool { return cmp(rows[idx[a]], rows[idx[b]]) < 0 })
	out := make([]storage.Row, len(rows))
	for i, j := range idx {
		out[i] = rows[j]
	}
	return out
}

// sortInputRows materialises the sort input as boxed rows for the boxed-sort
// ablation arm (WithColumnarSort(false)). With a memory budget set and
// columnar partitions, the batches are first staged in a spill store — cold
// ones move to disk — and restored one partition at a time while the boxed
// rows are built, so the columnar copy of the input is bounded by the budget
// during the materialisation. Without a budget (or with row-backed
// partitions) this is exactly partsToRows.
func (e *Engine) sortInputRows(schema *storage.Schema, parts []part, st *execState) ([][]storage.Row, error) {
	if e.memoryBudget <= 0 || !e.vectorize {
		return partsToRows(parts), nil
	}
	batches, ok := batchesOf(parts)
	if !ok || len(batches) == 0 {
		return partsToRows(parts), nil
	}
	store, err := storage.NewPartitionStore(schema, len(batches),
		storage.WithMemoryBudget(e.memoryBudget), storage.WithCodec(e.codec()),
		storage.WithSpillDir(e.spillDir))
	if err != nil {
		return nil, err
	}
	defer st.releaseStore(store)
	for i, b := range batches {
		batches[i] = nil // staged: the store (or its spill file) owns the batch now
		if err := store.Append(i, b); err != nil {
			return nil, err
		}
	}
	out := make([][]storage.Row, store.Partitions())
	for p := range out {
		rows := make([]storage.Row, 0, store.PartitionRows(p))
		err := store.EachBatch(p, func(b *storage.ColumnBatch) error {
			rows = append(rows, b.Rows()...)
			return nil
		})
		if err != nil {
			return nil, err
		}
		out[p] = rows
	}
	return out, nil
}

// evalSortRange implements the range-partitioned parallel sort: sample the
// input to estimate the key distribution, derive shufflePartitions-1 split
// points, range-shuffle every row to its partition, and stable-sort the
// partitions in parallel. The output partitions are ordered end to end, so
// their concatenation (what Collect does) is the globally sorted dataset, and
// stability is preserved: the shuffle keeps input order within each
// partition, and rows comparing equal to a split point all land on its right.
func (e *Engine) evalSortRange(ctx context.Context, in [][]storage.Row, total int,
	cmp func(a, b storage.Row) int, st *execState) ([]part, error) {

	// Sample deterministically: a fixed stride over the input approximates
	// the key distribution without an RNG, so repeated runs pick identical
	// split points. The stride rounds up so the collected sample never
	// exceeds the target budget (truncating division used to oversample by up
	// to a partition's worth of rows, e.g. 334 samples for a 320-row target).
	target := e.shufflePartitions * sortSamplesPerPartition
	if target > total {
		target = total
	}
	stride := (total + target - 1) / target
	sample := make([]storage.Row, 0, target)
	i := 0
	for _, p := range in {
		for _, r := range p {
			if i%stride == 0 {
				sample = append(sample, r)
			}
			i++
		}
	}
	st.addSampled(len(sample))
	sort.SliceStable(sample, func(a, b int) bool { return cmp(sample[a], sample[b]) < 0 })
	bounds := make([]storage.Row, 0, e.shufflePartitions-1)
	for b := 1; b < e.shufflePartitions; b++ {
		bounds = append(bounds, sample[b*len(sample)/e.shufflePartitions])
	}

	// Range shuffle: partition p receives the rows in [bounds[p-1], bounds[p]).
	st.addStage()
	st.addShuffled(total)
	buckets := shuffleBy(e.shufflePartitions, in, func(r storage.Row) int {
		return sort.Search(len(bounds), func(b int) bool { return cmp(r, bounds[b]) < 0 })
	})

	return e.runPerPartition(ctx, "sort-range", buckets, st, func(_ int, rows []storage.Row) ([]storage.Row, error) {
		return sortRowsByIndex(rows, cmp), nil
	})
}

// ---------------------------------------------------------------------------
// Sort (columnar)
// ---------------------------------------------------------------------------

// evalSortColumnar executes Sort end to end over columnar batches: per-type
// compare kernels (batchComparator) order selection vectors directly over the
// column vectors — no row is boxed anywhere, including the range-partition
// sampling — and under a memory budget each partition runs as a spill-aware
// external merge of sorted runs (sortPartitionColumnar). Row-backed input
// partitions (wide-operator outputs) are converted once on entry, so ordered
// analytics tails like sort-after-group-by stay columnar too.
func (e *Engine) evalSortColumnar(ctx context.Context, n *sortNode, in []part, st *execState) ([]part, error) {
	schema := n.child.schema()
	cmp, err := newBatchComparator(schema, n.orders)
	if err != nil {
		return nil, err
	}
	batches := make([]*storage.ColumnBatch, 0, len(in))
	total := 0
	for _, p := range in {
		b, err := toBatch(p, schema)
		if err != nil {
			return nil, fmt.Errorf("dataflow: sort input: %w", err)
		}
		if b.Len() == 0 {
			continue
		}
		batches = append(batches, b)
		total += b.Len()
	}
	if e.rangeSort && e.shufflePartitions > 1 && total > e.shufflePartitions*rangeSortMinRowsPerPartition {
		return e.evalSortRangeColumnar(ctx, batches, total, cmp, schema, st)
	}
	// Baseline (and small-input fallback): one task sorts the whole input —
	// the columnar analogue of the single-task row sort.
	st.addStage()
	st.addShuffled(total)
	out := make([][]*storage.ColumnBatch, 1)
	task := []cluster.Task{{
		Name: "sort[0]",
		Fn: func(ctx context.Context, node cluster.Node) error {
			sorted, err := e.sortPartitionColumnar(schema, cmp, total, st, func(f func(*storage.ColumnBatch) error) error {
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
	return sortedBatchParts(out, st), nil
}

// evalSortRangeColumnar is the columnar range-partitioned parallel sort: the
// split-point sample is gathered from the typed columns (same deterministic
// ceiling stride as the row path), rows range-shuffle by batch index through
// a partition store (spilling under budget), and the partitions sort in
// parallel — selection-vector sorts in memory, external run merges under a
// budget. Output partition order concatenates to the globally sorted dataset
// with the row path's exact stability semantics.
func (e *Engine) evalSortRangeColumnar(ctx context.Context, in []*storage.ColumnBatch, total int,
	cmp *batchComparator, schema *storage.Schema, st *execState) ([]part, error) {

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
	sortedSample := sample.Gather(cmp.sortedSelection(sample))
	bounds := make([]int, 0, e.shufflePartitions-1)
	for b := 1; b < e.shufflePartitions; b++ {
		bounds = append(bounds, b*sortedSample.Len()/e.shufflePartitions)
	}

	// Range shuffle: partition p receives the rows in [bounds[p-1], bounds[p]),
	// rows equal to a split point landing on its right — identical to the row
	// path, so the two arms assign every row to the same partition.
	store, err := e.gatherBatches(in, schema, st, func(b *storage.ColumnBatch, r int) int {
		return sort.Search(len(bounds), func(x int) bool {
			return cmp.Compare(b, r, sortedSample, bounds[x]) < 0
		})
	})
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
				sorted, err := e.sortPartitionColumnar(schema, cmp, store.PartitionRows(p), st,
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
	return sortedBatchParts(out, st), nil
}

// sortPartitionColumnar sorts one partition's batches, streamed by each. In
// memory (no budget) it flattens the partition and gathers the sorted
// selection vector — one output batch. Under a budget it is the external
// merge: fixed SortChunkRows-row chunks are selection-sorted into runs, runs
// spill through the batch codec when the run store's budget is exceeded, and
// a loser-tree merge streams them back in chunk-sized output batches, so the
// sort's own accumulation stays bounded by runs × chunk instead of the
// partition size.
func (e *Engine) sortPartitionColumnar(schema *storage.Schema, cmp *batchComparator, rows int,
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
	rs.SetCodec(e.codec())
	rs.SetSpillDir(e.spillDir)
	defer func() {
		st.addSpilled(rs.SpilledBatches(), rs.SpilledBytes(), rs.SpilledLogicalBytes())
		st.noteSpillFilePeak(rs.FileBytes())
		st.noteSortPeak(rs.MaxResidentBytes())
		_ = rs.Close()
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
// engine's part list, preserving partition order (their concatenation is the
// globally sorted output). Empty partitions keep a placeholder so the output
// partition count matches the row path's.
func sortedBatchParts(in [][]*storage.ColumnBatch, st *execState) []part {
	out := make([]part, 0, len(in))
	nBatches, nRows := 0, 0
	for _, bs := range in {
		if len(bs) == 0 {
			out = append(out, rowPart(nil))
			continue
		}
		for _, b := range bs {
			out = append(out, batchPart(b))
			nBatches++
			nRows += b.Len()
		}
	}
	st.addBatches(nBatches, nRows)
	return out
}

// ---------------------------------------------------------------------------
// Group-by
// ---------------------------------------------------------------------------

func (e *Engine) evalGroupBy(ctx context.Context, n *groupByNode, st *execState) ([]part, error) {
	parts, err := e.eval(ctx, n.child, st)
	if err != nil {
		return nil, err
	}
	inSchema := n.child.schema()
	enc, err := storage.NewKeyEncoder(inSchema, n.keys...)
	if err != nil {
		return nil, fmt.Errorf("dataflow: group-by: %w", err)
	}
	if e.vectorize {
		if batches, ok := batchesOf(parts); ok {
			if e.combine {
				if e.columnarAgg {
					return e.evalGroupByCombinedColumnar(ctx, n, batches, enc, st)
				}
				return e.evalGroupByCombinedBatch(ctx, n, batches, enc, st)
			}
			if e.columnarAgg {
				return e.evalGroupByHash(ctx, n, batches, enc, st)
			}
			return e.evalGroupByBatch(ctx, n, batches, enc, st)
		}
	}
	in := partsToRows(parts)
	if e.combine {
		return e.evalGroupByCombined(ctx, n, in, enc, st)
	}
	keyIdx := make([]int, len(n.keys))
	for i, k := range n.keys {
		keyIdx[i] = inSchema.IndexOf(k)
	}
	buckets := e.shuffleRows(in, enc, st)
	return e.runPerPartition(ctx, "groupby", buckets, st, func(_ int, rows []storage.Row) ([]storage.Row, error) {
		type group struct {
			keyValues []storage.Value
			states    []*aggState
		}
		local := enc.Clone()
		groups := make(map[string]*group)
		var order []*group
		for _, r := range rows {
			k := local.Key(r)
			g, ok := groups[string(k)]
			if !ok {
				kv := make([]storage.Value, len(keyIdx))
				for i, idx := range keyIdx {
					kv[i] = r[idx]
				}
				states := make([]*aggState, len(n.aggs))
				for i, a := range n.aggs {
					states[i] = newAggState(a, inSchema)
				}
				g = &group{keyValues: kv, states: states}
				groups[string(k)] = g
				order = append(order, g)
			}
			for _, s := range g.states {
				s.update(r)
			}
		}
		st.addAggGroups(len(order))
		out := make([]storage.Row, 0, len(order))
		for _, g := range order {
			row := make(storage.Row, 0, len(g.keyValues)+len(g.states))
			row = append(row, g.keyValues...)
			for _, s := range g.states {
				row = append(row, s.result())
			}
			out = append(out, row)
		}
		return out, nil
	})
}

// partialGroup is one group's accumulated aggregation state on the map side
// of a combined group-by. The binary key encoding and its hash travel with
// the state so the shuffle and the merge never re-key.
type partialGroup struct {
	key       string
	hash      uint64
	keyValues []storage.Value
	states    []*aggState
}

// evalGroupByCombined implements group-by with a map-side combine pass: one
// job folds each input partition into per-key partial aggregation states,
// only those partials cross the shuffle boundary (hash-partitioned into
// pre-sized buckets), and a second job merges partials per key and emits the
// final rows. When keys repeat within partitions this shuffles far fewer
// rows than the row-at-a-time path.
func (e *Engine) evalGroupByCombined(ctx context.Context, n *groupByNode, in [][]storage.Row,
	enc *storage.KeyEncoder, st *execState) ([]part, error) {

	inSchema := n.child.schema()
	keyIdx := make([]int, len(n.keys))
	for i, k := range n.keys {
		keyIdx[i] = inSchema.IndexOf(k)
	}

	// Map side: one task per input partition builds partial states.
	partials := make([][]*partialGroup, len(in))
	tasks := make([]cluster.Task, len(in))
	inputRows := 0
	for i := range in {
		i := i
		inputRows += len(in[i])
		tasks[i] = cluster.Task{
			Name: fmt.Sprintf("groupby-combine[%d]", i),
			Fn: func(ctx context.Context, node cluster.Node) error {
				local := enc.Clone()
				groups := make(map[string]*partialGroup)
				var order []*partialGroup
				for _, r := range in[i] {
					k := local.Key(r)
					g, ok := groups[string(k)]
					if !ok {
						kv := make([]storage.Value, len(keyIdx))
						for j, idx := range keyIdx {
							kv[j] = r[idx]
						}
						states := make([]*aggState, len(n.aggs))
						for j, a := range n.aggs {
							states[j] = newAggState(a, inSchema)
						}
						ks := string(k)
						g = &partialGroup{key: ks, hash: storage.HashString64(ks), keyValues: kv, states: states}
						groups[ks] = g
						order = append(order, g)
					}
					for _, s := range g.states {
						s.update(r)
					}
				}
				partials[i] = order
				return nil
			},
		}
	}
	st.addTasks(len(tasks))
	if _, err := e.cluster.RunNamedJob(ctx, "groupby-combine", tasks); err != nil {
		return nil, fmt.Errorf("dataflow: groupby-combine: %w", err)
	}
	return e.mergeGroupPartials(ctx, partials, inputRows, st)
}

// mergeGroupPartials is the shared tail of the combined group-by: shuffle the
// partial groups (which carry their keys and hashes) into pre-sized buckets
// and merge them per key, emitting the final rows. Both the row-at-a-time and
// the columnar map sides feed it.
func (e *Engine) mergeGroupPartials(ctx context.Context, partials [][]*partialGroup,
	inputRows int, st *execState) ([]part, error) {

	// Shuffle partial groups instead of raw rows, into pre-sized buckets.
	st.addStage()
	moved := countRows(partials)
	buckets := shuffleBy(e.shufflePartitions, partials, func(g *partialGroup) int {
		return storage.PartitionOfHash(g.hash, e.shufflePartitions)
	})
	st.addShuffled(moved)
	st.addCombined(inputRows - moved)

	// Reduce side: one task per bucket merges partials and emits final rows.
	out := make([][]storage.Row, len(buckets))
	mergeTasks := make([]cluster.Task, len(buckets))
	for b := range buckets {
		b := b
		mergeTasks[b] = cluster.Task{
			Name: fmt.Sprintf("groupby-merge[%d]", b),
			Fn: func(ctx context.Context, node cluster.Node) error {
				merged := make(map[string]*partialGroup, len(buckets[b]))
				var order []*partialGroup
				for _, g := range buckets[b] {
					m, ok := merged[g.key]
					if !ok {
						merged[g.key] = g
						order = append(order, g)
						continue
					}
					for j := range m.states {
						m.states[j].merge(g.states[j])
					}
				}
				st.addAggGroups(len(order))
				rows := make([]storage.Row, 0, len(order))
				for _, g := range order {
					row := make(storage.Row, 0, len(g.keyValues)+len(g.states))
					row = append(row, g.keyValues...)
					for _, s := range g.states {
						row = append(row, s.result())
					}
					rows = append(rows, row)
				}
				out[b] = rows
				return nil
			},
		}
	}
	st.addTasks(len(mergeTasks))
	if _, err := e.cluster.RunNamedJob(ctx, "groupby-merge", mergeTasks); err != nil {
		return nil, fmt.Errorf("dataflow: groupby-merge: %w", err)
	}
	return rowParts(out), nil
}

// ---------------------------------------------------------------------------
// Join
// ---------------------------------------------------------------------------

func (e *Engine) evalJoin(ctx context.Context, n *joinNode, st *execState) ([]part, error) {
	leftParts, err := e.eval(ctx, n.left, st)
	if err != nil {
		return nil, err
	}
	rightParts, err := e.eval(ctx, n.right, st)
	if err != nil {
		return nil, err
	}
	ls, rs := n.left.schema(), n.right.schema()
	lEnc, err := storage.NewKeyEncoder(ls, n.leftKey)
	if err != nil {
		return nil, fmt.Errorf("dataflow: join (left): %w", err)
	}
	rEnc, err := storage.NewKeyEncoder(rs, n.rightKey)
	if err != nil {
		return nil, fmt.Errorf("dataflow: join (right): %w", err)
	}
	if e.vectorize {
		lb, lok := batchesOf(leftParts)
		rb, rok := batchesOf(rightParts)
		if lok && rok {
			return e.evalJoinBatch(ctx, n, lb, rb, lEnc, rEnc, st)
		}
	}
	left, right := partsToRows(leftParts), partsToRows(rightParts)
	if e.broadcastJoin && countRows(right) <= e.broadcastThreshold {
		return e.evalJoinBroadcast(ctx, n, left, right, lEnc, rEnc, st)
	}

	// Shuffled hash join: both sides hash-partition on their key, bucket i of
	// the left probes a table built over bucket i of the right.
	lBuckets := e.shuffleRows(left, lEnc, st)
	rBuckets := e.shuffleRows(right, rEnc, st)
	rightWidth := rs.Len()

	return e.runPerPartition(ctx, "join", lBuckets, st, func(idx int, lRows []storage.Row) ([]storage.Row, error) {
		build := buildJoinTable(rBuckets[idx], rEnc.Clone())
		return probeJoinTable(build, lRows, lEnc.Clone(), n.kind, rightWidth), nil
	})
}

// evalJoinBroadcast executes the join without any shuffle: the build (right)
// side is small enough to replicate, so one task builds its hash table and
// every left partition probes it in place, preserving the left partitioning.
func (e *Engine) evalJoinBroadcast(ctx context.Context, n *joinNode,
	left, right [][]storage.Row, lEnc, rEnc *storage.KeyEncoder, st *execState) ([]part, error) {

	st.addBroadcast()
	// Build once as a single cluster task — the simulated analogue of
	// materialising the broadcast variable — then share the table read-only
	// across every probe task.
	var build map[string][]storage.Row
	buildTask := []cluster.Task{{
		Name: "join-broadcast-build",
		Fn: func(ctx context.Context, node cluster.Node) error {
			flat := make([]storage.Row, 0, countRows(right))
			for _, p := range right {
				flat = append(flat, p...)
			}
			build = buildJoinTable(flat, rEnc.Clone())
			return nil
		},
	}}
	st.addTasks(1)
	if _, err := e.cluster.RunNamedJob(ctx, "join-broadcast-build", buildTask); err != nil {
		return nil, fmt.Errorf("dataflow: join-broadcast-build: %w", err)
	}
	rightWidth := n.right.schema().Len()
	return e.runPerPartition(ctx, "join-broadcast", left, st, func(_ int, lRows []storage.Row) ([]storage.Row, error) {
		return probeJoinTable(build, lRows, lEnc.Clone(), n.kind, rightWidth), nil
	})
}

// buildJoinTable indexes the build-side rows by their encoded key.
func buildJoinTable(rows []storage.Row, enc *storage.KeyEncoder) map[string][]storage.Row {
	build := make(map[string][]storage.Row, len(rows))
	for _, rr := range rows {
		k := string(enc.Key(rr))
		build[k] = append(build[k], rr)
	}
	return build
}

// probeJoinTable streams the probe-side rows against the build table,
// null-extending unmatched rows for left joins. Lookups go through the
// encoder's reusable buffer, so probing allocates only for emitted rows.
func probeJoinTable(build map[string][]storage.Row, lRows []storage.Row,
	enc *storage.KeyEncoder, kind JoinType, rightWidth int) []storage.Row {

	var out []storage.Row
	for _, lr := range lRows {
		matches := build[string(enc.Key(lr))]
		if len(matches) == 0 {
			if kind == LeftJoin {
				row := make(storage.Row, 0, len(lr)+rightWidth)
				row = append(row, lr...)
				for i := 0; i < rightWidth; i++ {
					row = append(row, nil)
				}
				out = append(out, row)
			}
			continue
		}
		for _, rr := range matches {
			row := make(storage.Row, 0, len(lr)+len(rr))
			row = append(row, lr...)
			row = append(row, rr...)
			out = append(out, row)
		}
	}
	return out
}
