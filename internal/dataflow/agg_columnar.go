package dataflow

// agg_columnar.go implements the group-by: a storage.GroupTable maps keys to
// dense group ids and every aggregation accumulates into typed vectors
// indexed by group id (aggVecs), so the per-row hot loop is one tight typed
// pass per aggregation instead of per-row interface dispatch over boxed
// per-group state.
//
// A group-by runs as combine → shuffle → merge (evalGroupBy). One job folds
// each input partition through a GroupTable and writes its groups as one
// partial-state batch per shuffle bucket (partialSchema: key columns, then
// per aggregation its count, plus its sum for sum and avg; aggPartials.build).
// Only those batches cross the shuffle boundary. A second job merges each
// bucket: its task folds the bucket's partials of every input partition, in
// partition order, through a GroupTable of its own (aggPartials.merge) and
// emits one typed output batch. The partials and the merge state stay
// resident, outside the memory budget.
//
// The emission order needs no bookkeeping: map task i writes its groups in
// id (first-seen) order and the merge folds partitions in order, so a bucket
// emits its groups by the first input partition holding the key, then by
// first-seen order in that partition.
//
// All aggregation semantics — null skipping, AsFloat coercions — follow the
// formulas documented on AggKind; the equivalence suite holds every engine
// configuration to the reference interpreter. Float sums add partials in
// partition order, so a sum regroups the additions of a row-by-row fold: its
// bits match only when the data sums exactly.

import (
	"context"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/storage"
)

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
func (a *aggVecs) updateBatch(b *storage.ColumnBatch, ids []int32) {
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
		for i, id := range ids {
			if col.Null(i) {
				continue
			}
			a.counts[id]++
			a.sums[id] += col.Float(i)
		}
	case storage.TypeInt, storage.TypeTime:
		for i, id := range ids {
			if col.Null(i) {
				continue
			}
			a.counts[id]++
			a.sums[id] += float64(col.Int(i))
		}
	case storage.TypeBool:
		for i, id := range ids {
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
		for i, id := range ids {
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
// Combine → shuffle → merge
// ---------------------------------------------------------------------------

// evalGroupBy executes a group-by: one job folds each input batch through a
// GroupTable into typed accumulators and builds one partial batch per
// shuffle bucket; only those partials cross the shuffle boundary, and a
// second job merges them per bucket (mergeGroupPartials). When keys repeat
// within partitions this shuffles far fewer rows than the input holds.
func (e *Engine) evalGroupBy(ctx context.Context, n *groupByNode, st *execState) ([]*storage.ColumnBatch, error) {
	in, err := e.eval(ctx, n.child, st)
	if err != nil {
		return nil, err
	}
	inSchema := n.child.schema()
	enc, err := storage.NewKeyEncoder(inSchema, n.keys...)
	if err != nil {
		return nil, fmt.Errorf("dataflow: group-by: %w", err)
	}
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
					a.updateBatch(b, ids)
				}
				st.noteAggPeak(table.MemSize() + aggVecsSize(accs))
				out, err := p.build(table, accs, nParts, bucketOf)
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

// mergeGroupPartials is the reduce side of the group-by: bucket b's merge
// task folds partials[i][b] for every input partition i in order, so each
// group keeps the key values of its first partial and the bucket emits its
// groups in partition, then first-seen order, as one output batch.
func (e *Engine) mergeGroupPartials(ctx context.Context, p *aggPartials, partials [][]*storage.ColumnBatch,
	inputRows int, st *execState) ([]*storage.ColumnBatch, error) {

	st.addStage()
	moved := 0
	for _, bs := range partials {
		moved += partialRows(bs)
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
				bucket := make([]*storage.ColumnBatch, len(partials))
				for i, bs := range partials {
					bucket[i] = bs[b]
				}
				res, resident, err := p.merge(bucket)
				if err != nil {
					return err
				}
				st.noteAggPeak(resident)
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
// Partial state: the one format group state crosses the shuffle in
// ---------------------------------------------------------------------------

// aggPartials writes and merges a group-by's partial-state batches.
type aggPartials struct {
	n         *groupByNode
	schema    *storage.Schema // partialSchema
	keySchema *storage.Schema
	inSchema  *storage.Schema
	// enc hashes the partial layout's key columns (the first len(n.keys)),
	// which hold the input key values with their types.
	enc    *storage.KeyEncoder
	keyIdx []int
}

func newAggPartials(n *groupByNode, keySchema, inSchema *storage.Schema) (*aggPartials, error) {
	schema, err := partialSchema(keySchema, n.aggs)
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

// partialSchema builds the partial-state layout: the key columns (all
// nullable — a group key may legitimately be null), then per aggregation a
// count column, followed for sum and avg by a sum column.
func partialSchema(keySchema *storage.Schema, aggs []Aggregation) (*storage.Schema, error) {
	fields := make([]storage.Field, 0, keySchema.Len()+2*len(aggs))
	for i := 0; i < keySchema.Len(); i++ {
		fields = append(fields, storage.Field{
			Name: fmt.Sprintf("k%d", i), Type: keySchema.Field(i).Type, Nullable: true,
		})
	}
	for j, a := range aggs {
		fields = append(fields, storage.Field{Name: fmt.Sprintf("a%d_count", j), Type: storage.TypeInt})
		if a.Kind != AggCount {
			fields = append(fields, storage.Field{Name: fmt.Sprintf("a%d_sum", j), Type: storage.TypeFloat})
		}
	}
	return storage.NewSchema(fields...)
}

// build writes the table's groups as partial-state batches, one per part
// (nil for a part no group hashes to): group g goes to partOf(table.Hash(g)),
// and each part keeps the groups in id order.
func (p *aggPartials) build(table *storage.GroupTable, accs []*aggVecs,
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

// partialRows counts the rows of partial-state batches; a nil batch (a part
// no group hashed to) holds none.
func partialRows(bs []*storage.ColumnBatch) int {
	rows := 0
	for _, b := range bs {
		if b != nil {
			rows += b.Len()
		}
	}
	return rows
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

// merge folds one bucket's partial-state batches, in order, into final
// groups through one GroupTable (see mergePartialBatch); a nil batch is a
// partition with no group in the bucket. A group keeps the key values of its
// first partial, and the groups come out as one typed batch in first-seen
// order. resident is the merge state's footprint when the fold ends: the
// table plus the accumulator vectors.
func (p *aggPartials) merge(parts []*storage.ColumnBatch) (out *storage.ColumnBatch, resident int64, err error) {
	table := storage.NewGroupTable(p.keySchema, p.keyIdx, p.enc, partialRows(parts))
	accs := newAggVecSet(p.n.aggs, p.inSchema)
	var ids []int32
	for _, pb := range parts {
		if pb == nil || pb.Len() == 0 {
			continue
		}
		ids = table.MapBatch(pb, ids)
		ensureAggVecs(accs, table.Groups())
		col := len(p.keyIdx)
		for _, a := range accs {
			col = a.mergePartialBatch(pb, ids, col)
		}
	}
	resident = table.MemSize() + aggVecsSize(accs)
	out, err = emitAggBatch(p.n, table, accs)
	return out, resident, err
}

// mergePartialBatch folds one partial-state batch into the merge
// accumulators, starting at partial column col and returning the column after
// this aggregation's state. Counts and sums add in row order.
func (a *aggVecs) mergePartialBatch(pb *storage.ColumnBatch, ids []int32, col int) int {
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
