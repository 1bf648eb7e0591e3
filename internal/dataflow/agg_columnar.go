package dataflow

// agg_columnar.go implements the group-by core: a storage.GroupTable maps
// keys to dense group ids and every aggregation accumulates into typed
// vectors indexed by group id (aggVecs), so the per-row hot loop is one tight
// typed pass per aggregation instead of per-row interface dispatch over boxed
// per-group state.
//
// Group state leaves a task in one format, the partial-state batch
// (aggSpillSchema: key columns, a first-seen sequence number, then per
// aggregation its count, plus its sum for sum and avg). aggPartials.build
// writes it and aggPartials.merge folds it back through a GroupTable, for
// both places state crosses a boundary:
//
//   - the combined group-by (evalGroupByCombined) accumulates each input
//     partition map-side and builds one partial batch per shuffle bucket;
//     one merge task per bucket folds the buckets' partials in input
//     partition order (mergeGroupPartials);
//   - the non-combined hash aggregation (evalGroupByHash) folds shuffled
//     rows into one table per bucket and emits it directly; under
//     WithMemoryBudget, whenever the resident group state exceeds the
//     budget it is flushed as partial batches, hash-partitioned into
//     aggSpillPartitions sub-partitions of a PartitionStore (which re-spills
//     them through the batch codec), and each sub-partition is merged on its
//     own, so the merge's peak state is ~1/P of the group universe.
//
// The sequence number restores the emission order: a merge emits its groups
// in first-seen sequence order, which is the in-memory emission order of
// the spilling path and, with the combined map task i numbering its groups
// i<<32 | g, the bucket, partition, first-seen order of the combined path.
//
// All aggregation semantics — null skipping, AsFloat coercions — follow the
// formulas documented on AggKind; the equivalence suite holds every engine
// configuration to the reference interpreter. Float sums add partials in
// sequence order, so a combined or spilled sum regroups the additions of a
// row-by-row fold: its bits match only when the data sums exactly (the
// identity the spill tests rely on).

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"repro/internal/cluster"
	"repro/internal/storage"
)

// aggSpillPartitions is the number of hash sub-partitions the spilling hash
// aggregation re-partitions overflowing group state into. The key hash is run
// through storage.Mix64 first: its raw low bits already chose the shuffle
// bucket (PartitionOfHash is h % nParts), and FNV-1a barely stirs the bits
// above 32 for short keys, so any fixed bit range of the raw hash would leave
// the sub-partitions skewed or correlated with the bucket split.
const aggSpillPartitions = 16

// aggBudgetCheckRows is the sub-range granularity at which the budgeted hash
// aggregation re-checks its resident state against the memory budget, so one
// flush epoch holds at most this many rows' worth of new groups.
const aggBudgetCheckRows = 256

// aggSubPartition maps a group's key hash to its spill sub-partition through
// storage.Mix64, so every input bit reaches the partition choice.
func aggSubPartition(hash uint64) int {
	return int(storage.Mix64(hash) % aggSpillPartitions)
}

// aggKeyLayout derives the key-column schema (the output schema's key prefix)
// and the input column index of each key.
func aggKeyLayout(n *groupByNode, inSchema *storage.Schema) (*storage.Schema, []int, error) {
	fields := make([]storage.Field, len(n.keys))
	keyIdx := make([]int, len(n.keys))
	for i, k := range n.keys {
		fields[i] = n.out.Field(i)
		keyIdx[i] = inSchema.IndexOf(k)
	}
	keySchema, err := storage.NewSchema(fields...)
	if err != nil {
		return nil, nil, fmt.Errorf("dataflow: group-by key layout: %w", err)
	}
	return keySchema, keyIdx, nil
}

// ---------------------------------------------------------------------------
// aggVecs: one aggregation's state across all groups, as typed vectors
// ---------------------------------------------------------------------------

// aggVecs holds one aggregation's state for every group id as dense numeric
// vectors: the count, and for sum and avg the sum.
type aggVecs struct {
	spec   Aggregation
	colIdx int

	counts []int64
	sums   []float64
}

func newAggVecs(spec Aggregation, in *storage.Schema) *aggVecs {
	a := &aggVecs{spec: spec, colIdx: -1}
	if spec.Column != "" {
		a.colIdx = in.IndexOf(spec.Column)
	}
	return a
}

func newAggVecSet(aggs []Aggregation, in *storage.Schema) []*aggVecs {
	out := make([]*aggVecs, len(aggs))
	for i, a := range aggs {
		out[i] = newAggVecs(a, in)
	}
	return out
}

// growZero extends s to length n with zero values, reusing spare capacity
// (heap allocations arrive zeroed, and accumulator vectors are never
// truncated, so the region beyond len is always still zero).
func growZero[T any](s []T, n int) []T {
	if n <= len(s) {
		return s
	}
	if n <= cap(s) {
		return s[:n]
	}
	ns := make([]T, n, n+n/2+16)
	copy(ns, s)
	return ns
}

// ensure grows the state vectors to cover group ids [0, n).
func (a *aggVecs) ensure(n int) {
	a.counts = growZero(a.counts, n)
	if a.spec.Kind != AggCount {
		a.sums = growZero(a.sums, n)
	}
}

func ensureAggVecs(accs []*aggVecs, n int) {
	for _, a := range accs {
		a.ensure(n)
	}
}

// memSize estimates the resident footprint of the state vectors.
func (a *aggVecs) memSize() int64 {
	return 8 * int64(len(a.counts)+len(a.sums))
}

func aggVecsSize(accs []*aggVecs) int64 {
	var total int64
	for _, a := range accs {
		total += a.memSize()
	}
	return total
}

// updateBatch folds one input batch into the state vectors: ids[i] is the
// group id of batch row i. The kind × column-type dispatch happens once per
// batch; the inner loops read the typed vectors directly.
func (a *aggVecs) updateBatch(b *storage.ColumnBatch, ids []int32, base int) {
	if a.spec.Kind == AggCount {
		for _, id := range ids {
			a.counts[id]++
		}
		return
	}
	if a.colIdx < 0 || a.colIdx >= b.Width() {
		return
	}
	col := b.Column(a.colIdx)
	switch col.Type() {
	case storage.TypeFloat:
		for j, id := range ids {
			i := base + j
			if col.Null(i) {
				continue
			}
			a.counts[id]++
			a.sums[id] += col.Float(i)
		}
	case storage.TypeInt, storage.TypeTime:
		for j, id := range ids {
			i := base + j
			if col.Null(i) {
				continue
			}
			a.counts[id]++
			a.sums[id] += float64(col.Int(i))
		}
	case storage.TypeBool:
		for j, id := range ids {
			i := base + j
			if col.Null(i) {
				continue
			}
			var f float64
			if col.Bool(i) {
				f = 1
			}
			a.counts[id]++
			a.sums[id] += f
		}
	default:
		// Strings (and anything exotic) go through FloatAt, which matches
		// AsFloat: unparsable cells still count and contribute zero, as the
		// aggregate formulas on AggKind say.
		for j, id := range ids {
			i := base + j
			if col.Null(i) {
				continue
			}
			f, _ := b.FloatAt(i, a.colIdx)
			a.counts[id]++
			a.sums[id] += f
		}
	}
}

// appendResult appends group g's result to an output column of the
// aggregation's output type, typed (no boxing for numeric results).
func (a *aggVecs) appendResult(c *storage.Column, g int) {
	switch a.spec.Kind {
	case AggCount:
		c.AppendInt(a.counts[g])
	case AggSum:
		c.AppendFloat(a.sums[g])
	case AggAvg:
		if a.counts[g] == 0 {
			c.AppendNull(g)
			return
		}
		c.AppendFloat(a.sums[g] / float64(a.counts[g]))
	}
}

// emitAggBatch materialises the aggregation output as one columnar batch: key
// columns are shared zero-copy from the group table (group id order is
// first-seen order) and one typed result column is built per aggregation.
func emitAggBatch(n *groupByNode, table *storage.GroupTable, accs []*aggVecs) (*storage.ColumnBatch, error) {
	groups := table.Groups()
	nKeys := len(n.keys)
	cols := make([]storage.Column, n.out.Len())
	kr := table.KeyRows()
	for j := 0; j < nKeys; j++ {
		cols[j] = *kr.Column(j)
	}
	for j, a := range accs {
		c := storage.NewColumnBuilder(n.out.Field(nKeys+j).Type, groups)
		for g := 0; g < groups; g++ {
			a.appendResult(&c, g)
		}
		cols[nKeys+j] = c
	}
	return storage.BatchOfColumns(n.out, groups, cols)
}

// ---------------------------------------------------------------------------
// Map-side combined group-by
// ---------------------------------------------------------------------------

// evalGroupByCombined is the combined group-by: one job folds each input
// batch through a GroupTable into typed accumulators and builds one partial
// batch per shuffle bucket; only those partials cross the shuffle boundary,
// and a second job merges them per bucket (mergeGroupPartials). When keys
// repeat within partitions this shuffles far fewer rows than the
// non-combined hash aggregation. The partials stay resident, outside the
// memory budget.
func (e *Engine) evalGroupByCombined(ctx context.Context, n *groupByNode,
	in []*storage.ColumnBatch, enc *storage.KeyEncoder, st *execState) ([]*storage.ColumnBatch, error) {

	inSchema := n.child.schema()
	keySchema, keyIdx, err := aggKeyLayout(n, inSchema)
	if err != nil {
		return nil, err
	}
	p, err := newAggPartials(n, keySchema, inSchema)
	if err != nil {
		return nil, err
	}
	nParts := e.shufflePartitions
	bucketOf := func(hash uint64) int { return storage.PartitionOfHash(hash, nParts) }
	partials := make([][]*storage.ColumnBatch, len(in))
	tasks := make([]cluster.Task, len(in))
	inputRows := countBatchRows(in)
	for i := range in {
		i := i
		tasks[i] = cluster.Task{
			Name: fmt.Sprintf("groupby-combine[%d]", i),
			Fn: func(ctx context.Context, node cluster.Node) error {
				b := in[i]
				// No size hint: a slot array sized for b.Len() rows, far
				// more than the batch's groups, saved no CPU and raised the
				// engine's peak RSS in interleaved runs.
				table := storage.NewGroupTable(keySchema, keyIdx, enc, 0)
				accs := newAggVecSet(n.aggs, inSchema)
				ids := table.MapBatch(b, nil)
				ensureAggVecs(accs, table.Groups())
				for _, a := range accs {
					a.updateBatch(b, ids, 0)
				}
				st.noteAggPeak(table.MemSize() + aggVecsSize(accs))
				seqs := make([]int64, table.Groups())
				for g := range seqs {
					seqs[g] = int64(i)<<32 | int64(g)
				}
				out, err := p.build(table, accs, seqs, nParts, bucketOf)
				partials[i] = out
				return err
			},
		}
	}
	st.addTasks(len(tasks))
	if _, err := e.cluster.RunNamedJob(ctx, "groupby-combine", tasks); err != nil {
		return nil, fmt.Errorf("dataflow: groupby-combine: %w", err)
	}
	return e.mergeGroupPartials(ctx, p, partials, inputRows, st)
}

// mergeGroupPartials is the reduce side of the combined group-by: bucket b's
// merge task folds partials[i][b] for every input partition i in order, so
// each group keeps the key values of its first partial and the bucket emits
// its groups in partition, then first-seen order, as one output batch.
func (e *Engine) mergeGroupPartials(ctx context.Context, p *aggPartials, partials [][]*storage.ColumnBatch,
	inputRows int, st *execState) ([]*storage.ColumnBatch, error) {

	st.addStage()
	moved := 0
	for _, bs := range partials {
		for _, pb := range bs {
			if pb != nil {
				moved += pb.Len()
			}
		}
	}
	st.addShuffled(moved)
	st.addCombined(inputRows - moved)

	out := make([]*storage.ColumnBatch, e.shufflePartitions)
	mergeTasks := make([]cluster.Task, len(out))
	for b := range mergeTasks {
		b := b
		mergeTasks[b] = cluster.Task{
			Name: fmt.Sprintf("groupby-merge[%d]", b),
			Fn: func(ctx context.Context, node cluster.Node) error {
				rows := 0
				for _, bs := range partials {
					if bs[b] != nil {
						rows += bs[b].Len()
					}
				}
				res, err := p.merge([]batchSeq{
					func(fold func(*storage.ColumnBatch) error) error {
						for _, bs := range partials {
							if err := fold(bs[b]); err != nil {
								return err
							}
						}
						return nil
					},
				}, []int{rows}, nil)
				if err != nil {
					return err
				}
				st.addAggGroups(res.Len())
				out[b] = res
				return nil
			},
		}
	}
	st.addTasks(len(mergeTasks))
	if _, err := e.cluster.RunNamedJob(ctx, "groupby-merge", mergeTasks); err != nil {
		return nil, fmt.Errorf("dataflow: groupby-merge: %w", err)
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Non-combined hash aggregation (in-memory and spilling)
// ---------------------------------------------------------------------------

// evalGroupByHash is the non-combined columnar group-by: rows cross the
// shuffle boundary through a partition store, and one task per bucket folds
// the restored batches through a GroupTable into typed accumulators. Without
// a budget the bucket's groups are emitted directly as a columnar batch;
// under WithMemoryBudget the group state itself is spill-aware (see
// hashAggPartition).
func (e *Engine) evalGroupByHash(ctx context.Context, n *groupByNode,
	in []*storage.ColumnBatch, enc *storage.KeyEncoder, st *execState) ([]*storage.ColumnBatch, error) {

	inSchema := n.child.schema()
	keySchema, keyIdx, err := aggKeyLayout(n, inSchema)
	if err != nil {
		return nil, err
	}
	partials, err := newAggPartials(n, keySchema, inSchema)
	if err != nil {
		return nil, err
	}
	store, err := e.shuffleBatches(in, inSchema, enc, st)
	if err != nil {
		return nil, err
	}
	defer st.releaseStore(store)
	nParts := store.Partitions()
	out := make([]*storage.ColumnBatch, nParts)
	tasks := make([]cluster.Task, nParts)
	for b := range tasks {
		b := b
		tasks[b] = cluster.Task{
			Name: fmt.Sprintf("groupby[%d]", b),
			Fn: func(ctx context.Context, node cluster.Node) error {
				res, err := e.hashAggPartition(n, b, store, enc, keyIdx, partials, st)
				if err != nil {
					return err
				}
				out[b] = res
				return nil
			},
		}
	}
	st.addTasks(len(tasks))
	if _, err := e.cluster.RunNamedJob(ctx, "groupby", tasks); err != nil {
		return nil, fmt.Errorf("dataflow: groupby: %w", err)
	}
	return out, nil
}

// hashAggPartition aggregates one shuffle bucket. The build loop maps each
// restored batch to dense group ids and runs the typed update kernels; under
// a memory budget, whenever the resident group state (table + accumulator
// vectors) exceeds it, the state is flushed as partial batches into an aggSpill
// and the table reset — so peak resident state stays bounded by the budget
// plus one batch's worth of fresh groups. If nothing flushed, groups are
// emitted directly; otherwise the sub-partitions are merged and re-ordered by
// first-seen sequence so the output matches the in-memory emission order.
func (e *Engine) hashAggPartition(n *groupByNode, bucket int, store *storage.PartitionStore,
	enc *storage.KeyEncoder, keyIdx []int, partials *aggPartials, st *execState) (*storage.ColumnBatch, error) {

	table := storage.NewGroupTable(partials.keySchema, keyIdx, enc, 0)
	accs := newAggVecSet(n.aggs, partials.inSchema)
	var seqs []int64
	var nextSeq int64
	var sp *aggSpill
	var ids []int32
	budget := e.memoryBudget
	// Under a budget the batch is consumed in sub-ranges with a budget check
	// between them, so the resident epoch is bounded even when a bucket's
	// whole input arrives as one shuffle chunk; without one, each batch is
	// one range and the check never runs.
	step := 1 << 30
	if budget > 0 {
		step = aggBudgetCheckRows
	}
	err := store.EachBatch(bucket, func(cb *storage.ColumnBatch) error {
		rows := cb.Len()
		for lo := 0; lo < rows; lo += step {
			hi := lo + step
			if hi > rows {
				hi = rows
			}
			old := table.Groups()
			ids = table.MapRange(cb, lo, hi, ids)
			groups := table.Groups()
			ensureAggVecs(accs, groups)
			for g := old; g < groups; g++ {
				seqs = append(seqs, nextSeq)
				nextSeq++
			}
			for _, a := range accs {
				a.updateBatch(cb, ids, lo)
			}
			if budget > 0 && groups > 0 {
				if size := table.MemSize() + aggVecsSize(accs); size > budget {
					st.noteAggPeak(size)
					if sp == nil {
						ps, err := e.newPartitionStore(partials.schema, aggSpillPartitions, budget)
						if err != nil {
							return err
						}
						sp = &aggSpill{partials: partials, store: ps}
					}
					if err := sp.flush(table, accs, seqs); err != nil {
						return err
					}
					table.Reset()
					accs = newAggVecSet(n.aggs, partials.inSchema)
					seqs = seqs[:0]
				}
			}
		}
		return nil
	})
	if err != nil {
		if sp != nil {
			st.releaseStore(sp.store)
		}
		return nil, err
	}
	if sp == nil {
		st.noteAggPeak(table.MemSize() + aggVecsSize(accs))
		st.addAggGroups(table.Groups())
		b, err := emitAggBatch(n, table, accs)
		if err != nil {
			return nil, err
		}
		if b.Len() > 0 {
			st.addBatches(1, b.Len())
		}
		return b, nil
	}
	defer st.releaseStore(sp.store)
	if err := sp.flush(table, accs, seqs); err != nil {
		return nil, err
	}
	b, partsMerged, err := sp.mergeSpilled(st.noteAggPeak)
	if err != nil {
		return nil, err
	}
	st.addAggGroups(b.Len())
	st.addAggSpilledParts(partsMerged)
	if b.Len() > 0 {
		st.addBatches(1, b.Len())
	}
	return b, nil
}

// ---------------------------------------------------------------------------
// Spill partitioning of overflowing group state
// ---------------------------------------------------------------------------

// aggSpill holds the partial-state batches of flushed group-state epochs,
// hash-sub-partitioned into a PartitionStore that re-spills them to disk
// through the batch codec under the same memory budget.
type aggSpill struct {
	partials *aggPartials
	store    *storage.PartitionStore
}

// flush appends every group of the current epoch to its hash sub-partition
// as partial state.
func (sp *aggSpill) flush(table *storage.GroupTable, accs []*aggVecs, seqs []int64) error {
	batches, err := sp.partials.build(table, accs, seqs, aggSpillPartitions, aggSubPartition)
	if err != nil {
		return err
	}
	for p, pb := range batches {
		if pb == nil {
			continue
		}
		if err := sp.store.Append(p, pb); err != nil {
			return err
		}
	}
	return nil
}

// mergeSpilled merges each sub-partition on its own — peak resident state
// is one sub-partition's group slice, ~1/aggSpillPartitions of the bucket's
// groups — and emits the groups in first-seen sequence order, restoring the
// exact in-memory emission order. partsMerged reports how many
// sub-partitions held spilled state.
func (sp *aggSpill) mergeSpilled(notePeak func(int64)) (*storage.ColumnBatch, int, error) {
	var runs []batchSeq
	var rows []int
	for p := 0; p < aggSpillPartitions; p++ {
		n := sp.store.PartitionRows(p)
		if n == 0 {
			continue
		}
		p := p
		runs = append(runs, func(fold func(*storage.ColumnBatch) error) error {
			return sp.store.EachBatch(p, fold)
		})
		rows = append(rows, n)
	}
	b, err := sp.partials.merge(runs, rows, notePeak)
	return b, len(runs), err
}

// ---------------------------------------------------------------------------
// Partial state: the one format group state crosses a boundary in
// ---------------------------------------------------------------------------

// batchSeq streams a sequence of batches into fold, stopping at the first
// error.
type batchSeq func(fold func(*storage.ColumnBatch) error) error

// aggPartials writes and merges a group-by's partial-state batches.
type aggPartials struct {
	n         *groupByNode
	schema    *storage.Schema // aggSpillSchema
	keySchema *storage.Schema
	inSchema  *storage.Schema
	// enc hashes the partial layout's key columns (the first len(n.keys)),
	// which hold the input key values with their types.
	enc    *storage.KeyEncoder
	keyIdx []int
}

func newAggPartials(n *groupByNode, keySchema, inSchema *storage.Schema) (*aggPartials, error) {
	schema, err := aggSpillSchema(keySchema, n.aggs)
	if err != nil {
		return nil, err
	}
	keyIdx := make([]int, len(n.keys))
	keyCols := make([]string, len(n.keys))
	for i := range keyIdx {
		keyIdx[i] = i
		keyCols[i] = schema.Field(i).Name
	}
	enc, err := storage.NewKeyEncoder(schema, keyCols...)
	if err != nil {
		return nil, err
	}
	return &aggPartials{n: n, schema: schema, keySchema: keySchema, inSchema: inSchema, enc: enc, keyIdx: keyIdx}, nil
}

// aggSpillSchema builds the partial-state layout: the key columns (all
// nullable — a group key may legitimately be null), the group's first-seen
// sequence number, then per aggregation a count column, followed for sum and
// avg by a sum column.
func aggSpillSchema(keySchema *storage.Schema, aggs []Aggregation) (*storage.Schema, error) {
	fields := make([]storage.Field, 0, keySchema.Len()+1+2*len(aggs))
	for i := 0; i < keySchema.Len(); i++ {
		fields = append(fields, storage.Field{
			Name: fmt.Sprintf("k%d", i), Type: keySchema.Field(i).Type, Nullable: true,
		})
	}
	fields = append(fields, storage.Field{Name: "seq", Type: storage.TypeInt})
	for j, a := range aggs {
		fields = append(fields, storage.Field{Name: fmt.Sprintf("a%d_count", j), Type: storage.TypeInt})
		if a.Kind != AggCount {
			fields = append(fields, storage.Field{Name: fmt.Sprintf("a%d_sum", j), Type: storage.TypeFloat})
		}
	}
	return storage.NewSchema(fields...)
}

// build writes the table's groups as partial-state batches, one per part
// (nil for a part no group hashes to): group g goes to partOf(table.Hash(g))
// with sequence number seqs[g], and each part keeps the groups in id order.
func (p *aggPartials) build(table *storage.GroupTable, accs []*aggVecs, seqs []int64,
	parts int, partOf func(hash uint64) int) ([]*storage.ColumnBatch, error) {

	assign := make([]int32, table.Groups())
	counts := make([]int, parts)
	for g := range assign {
		part := partOf(table.Hash(g))
		assign[g] = int32(part)
		counts[part]++
	}
	sels := make([][]int32, parts)
	for part, c := range counts {
		sels[part] = make([]int32, 0, c)
	}
	for g, part := range assign {
		sels[part] = append(sels[part], int32(g))
	}
	kr := table.KeyRows()
	out := make([]*storage.ColumnBatch, parts)
	for part, sel := range sels {
		if len(sel) == 0 {
			continue
		}
		cols := make([]storage.Column, 0, p.schema.Len())
		for j := 0; j < kr.Width(); j++ {
			cols = append(cols, kr.Column(j).Gather(sel))
		}
		seq := storage.NewColumnBuilder(storage.TypeInt, len(sel))
		for _, g := range sel {
			seq.AppendInt(seqs[g])
		}
		cols = append(cols, seq)
		for _, a := range accs {
			cols = a.appendPartialColumns(cols, sel)
		}
		b, err := storage.BatchOfColumns(p.schema, len(sel), cols)
		if err != nil {
			return nil, err
		}
		out[part] = b
	}
	return out, nil
}

// appendPartialColumns appends this aggregation's partial-state columns for
// the groups in sel: the count, then for sum and avg the sum.
func (a *aggVecs) appendPartialColumns(cols []storage.Column, sel []int32) []storage.Column {
	counts := storage.NewColumnBuilder(storage.TypeInt, len(sel))
	for _, g := range sel {
		counts.AppendInt(a.counts[g])
	}
	cols = append(cols, counts)
	if a.spec.Kind == AggCount {
		return cols
	}
	sums := storage.NewColumnBuilder(storage.TypeFloat, len(sel))
	for _, g := range sel {
		sums.AppendFloat(a.sums[g])
	}
	return append(cols, sums)
}

// merge folds partial-state batches back into final groups. Each run merges
// through a GroupTable of its own (see mergeSpillBatch), and a group keeps
// the key values and sequence number of its first partial. The groups of
// every run come out as one typed batch ordered by sequence number. rows[r]
// is run r's partial row count, which sizes its GroupTable. notePeak, when
// set, sees the merge's resident state after every batch.
func (p *aggPartials) merge(runs []batchSeq, rows []int, notePeak func(int64)) (*storage.ColumnBatch, error) {
	emitted := make([]*storage.ColumnBatch, len(runs))
	var order []int64 // each emitted group's sequence number, runs concatenated
	nKeys := len(p.keyIdx)
	var ids []int32
	for r, each := range runs {
		table := storage.NewGroupTable(p.keySchema, p.keyIdx, p.enc, rows[r])
		accs := newAggVecSet(p.n.aggs, p.inSchema)
		err := each(func(pb *storage.ColumnBatch) error {
			if pb == nil || pb.Len() == 0 {
				return nil
			}
			old := table.Groups()
			ids = table.MapBatch(pb, ids)
			ensureAggVecs(accs, table.Groups())
			// New ids appear in increasing order, each first at its group's
			// first partial.
			seqCol := pb.Column(nKeys)
			for i, id := range ids {
				if int(id) == old {
					order = append(order, seqCol.Int(i))
					old++
				}
			}
			col := nKeys + 1
			for _, a := range accs {
				col = a.mergeSpillBatch(pb, ids, col)
			}
			if notePeak != nil {
				notePeak(table.MemSize() + aggVecsSize(accs))
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if emitted[r], err = emitAggBatch(p.n, table, accs); err != nil {
			return nil, err
		}
	}
	var all *storage.ColumnBatch
	if len(emitted) == 1 {
		all = emitted[0]
	} else {
		all = storage.NewColumnBatch(p.n.out, len(order))
		for _, b := range emitted {
			all.AppendRange(b, 0, b.Len())
		}
	}
	if slices.IsSorted(order) {
		return all, nil
	}
	sel := make([]int32, len(order))
	for i := range sel {
		sel[i] = int32(i)
	}
	slices.SortFunc(sel, func(a, b int32) int { return cmp.Compare(order[a], order[b]) })
	return all.Gather(sel), nil
}

// mergeSpillBatch folds one partial-state batch into the merge accumulators,
// starting at partial column col and returning the column after this
// aggregation's state. Counts and sums add in row order.
func (a *aggVecs) mergeSpillBatch(pb *storage.ColumnBatch, ids []int32, col int) int {
	cnt := pb.Column(col)
	col++
	for i, id := range ids {
		a.counts[id] += cnt.Int(i)
	}
	if a.spec.Kind == AggCount {
		return col
	}
	sum := pb.Column(col)
	for i, id := range ids {
		a.sums[id] += sum.Float(i)
	}
	return col + 1
}
