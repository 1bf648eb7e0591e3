package dataflow

// agg_columnar.go implements the group-by core: a storage.GroupTable maps
// keys to dense group ids and every aggregation accumulates into typed
// vectors indexed by group id (aggVecs), so the per-row hot loop is one tight
// typed pass per aggregation instead of per-row interface dispatch over boxed
// per-group state.
//
// Three paths are built on the same accumulators:
//
//   - the combined map side (evalGroupByCombined) accumulates each input
//     batch columnar, then converts group state to aggStates — the algebraic
//     partials of aggregate.go — which cross the shuffle and merge per key
//     into one output batch per bucket (mergeGroupPartials);
//   - the non-combined hash aggregation (evalGroupByHash) folds shuffled
//     bucket batches into one table per bucket and emits the output as a
//     columnar batch whose key columns are shared zero-copy from the table;
//   - under WithMemoryBudget the non-combined path becomes spill-aware: when
//     the resident group state exceeds the budget it is flushed as
//     partial-state rows, hash-partitioned into aggSpillPartitions
//     sub-partitions of a PartitionStore (which re-spills them through the
//     batch codec), runs-then-merge style like storage.RunStore: a second
//     pass re-aggregates each sub-partition, whose peak state is ~1/P of the
//     group universe. A per-group first-seen sequence number travels with the
//     partials so the merged output is re-sorted into the exact emission
//     order of the in-memory paths.
//
// All aggregation semantics — null skipping, CompareValues min/max ordering
// (numerics through float64, NaN never replacing, first value winning ties),
// AsFloat coercions — follow the formulas documented in aggregate.go; the
// equivalence suite holds every engine configuration to the reference
// interpreter. The one caveat is float summation order: partials and
// partial-state flushes regroup additions, which is only bit-stable when the
// data sums exactly (the algebraic identity all spill tests rely on).

import (
	"context"
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/cluster"
	"repro/internal/storage"
)

// aggSpillPartitions is the number of hash sub-partitions the spilling hash
// aggregation re-partitions overflowing group state into. The key hash is run
// through a finalizing mixer first: the raw low bits already chose the
// shuffle bucket (PartitionOfHash is h % nParts), and FNV-1a barely stirs the
// bits above 32 for short keys, so any fixed bit range of the raw hash would
// leave the sub-partitions skewed or correlated with the bucket split.
const aggSpillPartitions = 16

// aggBudgetCheckRows is the sub-range granularity at which the budgeted hash
// aggregation re-checks its resident state against the memory budget, so one
// flush epoch holds at most this many rows' worth of new groups.
const aggBudgetCheckRows = 256

// aggSubPartition maps a group's key hash to its spill sub-partition through
// a 64-bit avalanche mixer (the Murmur3 finalizer), so every input bit
// reaches the partition choice.
func aggSubPartition(hash uint64) int {
	h := hash
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return int(h % aggSpillPartitions)
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

// aggVecs holds one aggregation's state for every group id: counts, sums and
// squared sums as dense numeric vectors, min/max extremes as one typed vector
// (selected by the input column type) plus a has-value bitmap, and
// count-distinct sets as lazily allocated maps. It is the columnar
// counterpart of a column of *aggState objects.
type aggVecs struct {
	spec    Aggregation
	colIdx  int
	extType storage.FieldType

	counts []int64
	sums   []float64
	sumSqs []float64

	has       []bool
	extInts   []int64
	extFloats []float64
	extStrs   []string
	extBools  []bool

	distinct []map[string]struct{}
}

func newAggVecs(spec Aggregation, in *storage.Schema) *aggVecs {
	a := &aggVecs{spec: spec, colIdx: -1}
	if spec.Column != "" {
		a.colIdx = in.IndexOf(spec.Column)
	}
	if a.colIdx >= 0 {
		a.extType = in.Field(a.colIdx).Type
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
	switch a.spec.Kind {
	case AggSum, AggAvg, AggStdDev:
		a.sums = growZero(a.sums, n)
		a.sumSqs = growZero(a.sumSqs, n)
	case AggMin, AggMax:
		a.has = growZero(a.has, n)
		switch a.extType {
		case storage.TypeInt, storage.TypeTime:
			a.extInts = growZero(a.extInts, n)
		case storage.TypeFloat:
			a.extFloats = growZero(a.extFloats, n)
		case storage.TypeString:
			a.extStrs = growZero(a.extStrs, n)
		case storage.TypeBool:
			a.extBools = growZero(a.extBools, n)
		}
	case AggCountDistinct:
		a.distinct = growZero(a.distinct, n)
	}
}

func ensureAggVecs(accs []*aggVecs, n int) {
	for _, a := range accs {
		a.ensure(n)
	}
}

// memSize estimates the resident footprint of the state vectors.
func (a *aggVecs) memSize() int64 {
	total := 8 * int64(len(a.counts)+len(a.sums)+len(a.sumSqs)+len(a.extInts)+len(a.extFloats))
	total += int64(len(a.has) + len(a.extBools))
	for _, s := range a.extStrs {
		total += 16 + int64(len(s))
	}
	for _, m := range a.distinct {
		total += 8
		for k := range m {
			total += 48 + int64(len(k))
		}
	}
	return total
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
	switch a.spec.Kind {
	case AggSum, AggAvg, AggStdDev:
		a.updateNumeric(b, col, ids, base)
	case AggMin:
		a.foldMin(col, ids, base, true)
	case AggMax:
		a.foldMax(col, ids, base, true)
	case AggCountDistinct:
		a.updateDistinct(b, col, ids, base)
	}
}

func (a *aggVecs) updateNumeric(b *storage.ColumnBatch, col *storage.Column, ids []int32, base int) {
	switch col.Type() {
	case storage.TypeFloat:
		for j, id := range ids {
			i := base + j
			if col.Null(i) {
				continue
			}
			f := col.Float(i)
			a.counts[id]++
			a.sums[id] += f
			a.sumSqs[id] += f * f
		}
	case storage.TypeInt, storage.TypeTime:
		for j, id := range ids {
			i := base + j
			if col.Null(i) {
				continue
			}
			f := float64(col.Int(i))
			a.counts[id]++
			a.sums[id] += f
			a.sumSqs[id] += f * f
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
			a.sumSqs[id] += f * f
		}
	default:
		// Strings (and anything exotic) go through FloatAt, which matches
		// AsFloat: unparsable cells still count and contribute zero, as the
		// aggregate formulas on aggState say.
		for j, id := range ids {
			i := base + j
			if col.Null(i) {
				continue
			}
			f, _ := b.FloatAt(i, a.colIdx)
			a.counts[id]++
			a.sums[id] += f
			a.sumSqs[id] += f * f
		}
	}
}

// foldMin folds column cells into the per-group minimum, replicating
// CompareValues ordering: numerics compare through float64 (so NaN never
// replaces an extreme and ties keep the first value), strings lexically,
// bools false < true. addCount counts every considered (non-null) cell, as
// every non-count aggregation does; the spill merge replays counts
// separately and passes false.
func (a *aggVecs) foldMin(col *storage.Column, ids []int32, base int, addCount bool) {
	switch a.extType {
	case storage.TypeInt, storage.TypeTime:
		for j, id := range ids {
			i := base + j
			if col.Null(i) {
				continue
			}
			if addCount {
				a.counts[id]++
			}
			v := col.Int(i)
			if !a.has[id] {
				a.has[id] = true
				a.extInts[id] = v
			} else if float64(v) < float64(a.extInts[id]) {
				a.extInts[id] = v
			}
		}
	case storage.TypeFloat:
		for j, id := range ids {
			i := base + j
			if col.Null(i) {
				continue
			}
			if addCount {
				a.counts[id]++
			}
			v := col.Float(i)
			if !a.has[id] {
				a.has[id] = true
				a.extFloats[id] = v
			} else if v < a.extFloats[id] {
				a.extFloats[id] = v
			}
		}
	case storage.TypeString:
		for j, id := range ids {
			i := base + j
			if col.Null(i) {
				continue
			}
			if addCount {
				a.counts[id]++
			}
			v := col.Str(i)
			if !a.has[id] {
				a.has[id] = true
				a.extStrs[id] = v
			} else if v < a.extStrs[id] {
				a.extStrs[id] = v
			}
		}
	case storage.TypeBool:
		for j, id := range ids {
			i := base + j
			if col.Null(i) {
				continue
			}
			if addCount {
				a.counts[id]++
			}
			v := col.Bool(i)
			if !a.has[id] {
				a.has[id] = true
				a.extBools[id] = v
			} else if !v && a.extBools[id] {
				a.extBools[id] = false
			}
		}
	}
}

// foldMax mirrors foldMin with the comparison reversed.
func (a *aggVecs) foldMax(col *storage.Column, ids []int32, base int, addCount bool) {
	switch a.extType {
	case storage.TypeInt, storage.TypeTime:
		for j, id := range ids {
			i := base + j
			if col.Null(i) {
				continue
			}
			if addCount {
				a.counts[id]++
			}
			v := col.Int(i)
			if !a.has[id] {
				a.has[id] = true
				a.extInts[id] = v
			} else if float64(v) > float64(a.extInts[id]) {
				a.extInts[id] = v
			}
		}
	case storage.TypeFloat:
		for j, id := range ids {
			i := base + j
			if col.Null(i) {
				continue
			}
			if addCount {
				a.counts[id]++
			}
			v := col.Float(i)
			if !a.has[id] {
				a.has[id] = true
				a.extFloats[id] = v
			} else if v > a.extFloats[id] {
				a.extFloats[id] = v
			}
		}
	case storage.TypeString:
		for j, id := range ids {
			i := base + j
			if col.Null(i) {
				continue
			}
			if addCount {
				a.counts[id]++
			}
			v := col.Str(i)
			if !a.has[id] {
				a.has[id] = true
				a.extStrs[id] = v
			} else if v > a.extStrs[id] {
				a.extStrs[id] = v
			}
		}
	case storage.TypeBool:
		for j, id := range ids {
			i := base + j
			if col.Null(i) {
				continue
			}
			if addCount {
				a.counts[id]++
			}
			v := col.Bool(i)
			if !a.has[id] {
				a.has[id] = true
				a.extBools[id] = v
			} else if v && !a.extBools[id] {
				a.extBools[id] = true
			}
		}
	}
}

func (a *aggVecs) updateDistinct(b *storage.ColumnBatch, col *storage.Column, ids []int32, base int) {
	for j, id := range ids {
		i := base + j
		if col.Null(i) {
			continue
		}
		a.counts[id]++
		set := a.distinct[id]
		if set == nil {
			set = make(map[string]struct{})
			a.distinct[id] = set
		}
		set[b.StringAt(i, a.colIdx)] = struct{}{}
	}
}

// extValue boxes group g's min/max extreme (nil when the group saw no
// non-null value).
func (a *aggVecs) extValue(g int) storage.Value {
	if g >= len(a.has) || !a.has[g] {
		return nil
	}
	switch a.extType {
	case storage.TypeInt, storage.TypeTime:
		return a.extInts[g]
	case storage.TypeFloat:
		return a.extFloats[g]
	case storage.TypeString:
		return a.extStrs[g]
	case storage.TypeBool:
		return a.extBools[g]
	default:
		return nil
	}
}

// result computes group g's final value with aggState.result semantics.
func (a *aggVecs) result(g int) storage.Value {
	switch a.spec.Kind {
	case AggCount:
		return a.counts[g]
	case AggSum:
		return a.sums[g]
	case AggAvg:
		if a.counts[g] == 0 {
			return nil
		}
		return a.sums[g] / float64(a.counts[g])
	case AggStdDev:
		return stdDevResult(a.counts[g], a.sums[g], a.sumSqs[g])
	case AggMin, AggMax:
		return a.extValue(g)
	case AggCountDistinct:
		return int64(len(a.distinct[g]))
	default:
		return nil
	}
}

// toState converts group g's vector slots back into a boxed aggState, the
// currency of the combined path's shuffle+merge tail. Distinct sets transfer
// by reference (a nil set stays nil; aggState.merge and result tolerate it).
func (a *aggVecs) toState(g int) *aggState {
	st := &aggState{spec: a.spec, count: a.counts[g]}
	switch a.spec.Kind {
	case AggSum, AggAvg, AggStdDev:
		st.sum, st.sumSq = a.sums[g], a.sumSqs[g]
	case AggMin:
		st.min = a.extValue(g)
	case AggMax:
		st.max = a.extValue(g)
	case AggCountDistinct:
		st.distinct = a.distinct[g]
	}
	return st
}

// appendResult appends group g's result to an output column of the
// aggregation's output type, typed (no boxing for numeric results).
func (a *aggVecs) appendResult(c *storage.Column, g int) {
	switch a.spec.Kind {
	case AggCount:
		c.AppendInt(a.counts[g])
	case AggCountDistinct:
		c.AppendInt(int64(len(a.distinct[g])))
	case AggSum:
		c.AppendFloat(a.sums[g])
	case AggAvg:
		if a.counts[g] == 0 {
			c.AppendNull(g)
			return
		}
		c.AppendFloat(a.sums[g] / float64(a.counts[g]))
	case AggStdDev:
		if v := stdDevResult(a.counts[g], a.sums[g], a.sumSqs[g]); v == nil {
			c.AppendNull(g)
		} else {
			c.AppendFloat(v.(float64))
		}
	case AggMin, AggMax:
		if g >= len(a.has) || !a.has[g] {
			c.AppendNull(g)
			return
		}
		switch a.extType {
		case storage.TypeInt, storage.TypeTime:
			c.AppendInt(a.extInts[g])
		case storage.TypeFloat:
			c.AppendFloat(a.extFloats[g])
		case storage.TypeString:
			c.AppendStr(a.extStrs[g])
		case storage.TypeBool:
			c.AppendBool(a.extBools[g])
		default:
			c.AppendNull(g)
		}
	default:
		c.AppendNull(g)
	}
}

func stdDevResult(count int64, sum, sumSq float64) storage.Value {
	st := aggState{spec: Aggregation{Kind: AggStdDev}, count: count, sum: sum, sumSq: sumSq}
	return st.result()
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

// partialGroup is one group's accumulated aggregation state on the map side
// of a combined group-by. The binary key encoding and its hash travel with
// the state so the shuffle and the merge never re-key.
type partialGroup struct {
	key       string
	hash      uint64
	keyValues []storage.Value
	states    []*aggState
}

// evalGroupByCombined is the combined group-by: one job folds each input
// batch through a GroupTable into typed accumulators and converts the
// per-group state to partialGroups; only those partials cross the shuffle
// boundary, and a second job merges them per key (mergeGroupPartials). When
// keys repeat within partitions this shuffles far fewer rows than the
// non-combined hash aggregation.
func (e *Engine) evalGroupByCombined(ctx context.Context, n *groupByNode,
	in []*storage.ColumnBatch, enc *storage.KeyEncoder, st *execState) ([]*storage.ColumnBatch, error) {

	inSchema := n.child.schema()
	keySchema, keyIdx, err := aggKeyLayout(n, inSchema)
	if err != nil {
		return nil, err
	}
	partials := make([][]*partialGroup, len(in))
	tasks := make([]cluster.Task, len(in))
	inputRows := countBatchRows(in)
	for i := range in {
		i := i
		tasks[i] = cluster.Task{
			Name: fmt.Sprintf("groupby-combine[%d]", i),
			Fn: func(ctx context.Context, node cluster.Node) error {
				b := in[i]
				table := storage.NewGroupTable(keySchema, keyIdx, enc.Clone())
				accs := newAggVecSet(n.aggs, inSchema)
				ids := table.MapBatch(b, nil)
				ensureAggVecs(accs, table.Groups())
				for _, a := range accs {
					a.updateBatch(b, ids, 0)
				}
				st.noteAggPeak(table.MemSize() + aggVecsSize(accs))
				kr := table.KeyRows()
				order := make([]*partialGroup, table.Groups())
				for g := range order {
					states := make([]*aggState, len(accs))
					for j, a := range accs {
						states[j] = a.toState(g)
					}
					order[g] = &partialGroup{
						key: table.Key(g), hash: table.Hash(g),
						keyValues: kr.Row(g), states: states,
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
	return e.mergeGroupPartials(ctx, n, partials, inputRows, st)
}

// mergeGroupPartials is the reduce side of the combined group-by: shuffle the
// partial groups (which carry their keys and hashes) into pre-sized buckets
// and merge them per key in bucket order, so each group keeps the key values
// of its first partial. Each bucket emits one output batch.
func (e *Engine) mergeGroupPartials(ctx context.Context, n *groupByNode, partials [][]*partialGroup,
	inputRows int, st *execState) ([]*storage.ColumnBatch, error) {

	st.addStage()
	buckets := shuffleBy(e.shufflePartitions, partials, func(g *partialGroup) int {
		return storage.PartitionOfHash(g.hash, e.shufflePartitions)
	})
	moved := 0
	for _, b := range buckets {
		moved += len(b)
	}
	st.addShuffled(moved)
	st.addCombined(inputRows - moved)

	out := make([]*storage.ColumnBatch, len(buckets))
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
				res := storage.NewColumnBatch(n.out, len(order))
				row := make(storage.Row, n.out.Len())
				for _, g := range order {
					k := copy(row, g.keyValues)
					for j, s := range g.states {
						row[k+j] = s.result()
					}
					if err := res.AppendRow(row); err != nil {
						return err
					}
				}
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
	spillSchema, err := aggSpillSchema(keySchema, n.aggs, inSchema)
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
				res, err := e.hashAggPartition(n, b, store, enc, keySchema, keyIdx, spillSchema, inSchema, st)
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
// vectors) exceeds it, the state is flushed as partial rows into an aggSpill
// and the table reset — so peak resident state stays bounded by the budget
// plus one batch's worth of fresh groups. If nothing flushed, groups are
// emitted directly; otherwise the sub-partitions are merged and re-ordered by
// first-seen sequence so the output matches the in-memory emission order.
func (e *Engine) hashAggPartition(n *groupByNode, bucket int, store *storage.PartitionStore,
	enc *storage.KeyEncoder, keySchema *storage.Schema, keyIdx []int,
	spillSchema *storage.Schema, inSchema *storage.Schema, st *execState) (*storage.ColumnBatch, error) {

	table := storage.NewGroupTable(keySchema, keyIdx, enc.Clone())
	accs := newAggVecSet(n.aggs, inSchema)
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
						ps, err := e.newPartitionStore(spillSchema, aggSpillPartitions, budget)
						if err != nil {
							return err
						}
						sp = &aggSpill{schema: spillSchema, store: ps, nKeys: len(n.keys)}
					}
					if err := sp.flush(table, accs, seqs); err != nil {
						return err
					}
					table.Reset()
					accs = newAggVecSet(n.aggs, inSchema)
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
	rows, partsMerged, err := sp.mergeSpilled(n, keySchema, inSchema, st.noteAggPeak)
	if err != nil {
		return nil, err
	}
	st.addAggGroups(len(rows))
	st.addAggSpilledParts(partsMerged)
	b, err := storage.BatchFromRows(n.out, rows)
	if err != nil {
		return nil, err
	}
	if b.Len() > 0 {
		st.addBatches(1, b.Len())
	}
	return b, nil
}

// ---------------------------------------------------------------------------
// Spill partitioning of overflowing group state
// ---------------------------------------------------------------------------

// aggSpill holds the partial-state rows of flushed group-state epochs,
// hash-sub-partitioned into a PartitionStore that re-spills them to disk
// through the batch codec under the same memory budget.
type aggSpill struct {
	schema *storage.Schema
	store  *storage.PartitionStore
	nKeys  int
}

// aggSpillSchema builds the partial-state row layout: the key columns (all
// nullable — a group key may legitimately be null), the group's first-seen
// sequence number, then per aggregation a count column plus kind-specific
// state (sum+sumSq, a typed nullable extreme, or an encoded distinct set).
func aggSpillSchema(keySchema *storage.Schema, aggs []Aggregation, in *storage.Schema) (*storage.Schema, error) {
	fields := make([]storage.Field, 0, keySchema.Len()+1+3*len(aggs))
	for i := 0; i < keySchema.Len(); i++ {
		fields = append(fields, storage.Field{
			Name: fmt.Sprintf("k%d", i), Type: keySchema.Field(i).Type, Nullable: true,
		})
	}
	fields = append(fields, storage.Field{Name: "seq", Type: storage.TypeInt})
	for j, a := range aggs {
		fields = append(fields, storage.Field{Name: fmt.Sprintf("a%d_count", j), Type: storage.TypeInt})
		switch a.Kind {
		case AggSum, AggAvg, AggStdDev:
			fields = append(fields,
				storage.Field{Name: fmt.Sprintf("a%d_sum", j), Type: storage.TypeFloat},
				storage.Field{Name: fmt.Sprintf("a%d_sumsq", j), Type: storage.TypeFloat})
		case AggMin, AggMax:
			t := storage.TypeFloat
			if idx := in.IndexOf(a.Column); idx >= 0 {
				t = in.Field(idx).Type
			}
			fields = append(fields, storage.Field{Name: fmt.Sprintf("a%d_ext", j), Type: t, Nullable: true})
		case AggCountDistinct:
			fields = append(fields, storage.Field{Name: fmt.Sprintf("a%d_set", j), Type: storage.TypeString})
		}
	}
	return storage.NewSchema(fields...)
}

// appendSpillValues appends group g's partial state to a spill row.
func (a *aggVecs) appendSpillValues(row storage.Row, g int) storage.Row {
	row = append(row, a.counts[g])
	switch a.spec.Kind {
	case AggSum, AggAvg, AggStdDev:
		row = append(row, a.sums[g], a.sumSqs[g])
	case AggMin, AggMax:
		row = append(row, a.extValue(g))
	case AggCountDistinct:
		row = append(row, encodeDistinctSet(a.distinct[g]))
	}
	return row
}

// flush serialises every group of the current epoch as one partial-state row,
// appended to its hash sub-partition.
func (sp *aggSpill) flush(table *storage.GroupTable, accs []*aggVecs, seqs []int64) error {
	groups := table.Groups()
	if groups == 0 {
		return nil
	}
	batches := make([]*storage.ColumnBatch, aggSpillPartitions)
	kr := table.KeyRows()
	width := sp.schema.Len()
	for g := 0; g < groups; g++ {
		p := aggSubPartition(table.Hash(g))
		bb := batches[p]
		if bb == nil {
			bb = storage.NewColumnBatch(sp.schema, 0)
			batches[p] = bb
		}
		row := make(storage.Row, 0, width)
		row = append(row, kr.Row(g)...)
		row = append(row, seqs[g])
		for _, a := range accs {
			row = a.appendSpillValues(row, g)
		}
		if err := bb.AppendRow(row); err != nil {
			return err
		}
	}
	for p, bb := range batches {
		if bb == nil {
			continue
		}
		if err := sp.store.Append(p, bb); err != nil {
			return err
		}
	}
	return nil
}

// mergeSpillBatch folds one partial-state batch into the merge accumulators,
// starting at spill column col and returning the column after this
// aggregation's state. Counts add, sums add, extremes compare with
// aggState.merge semantics (a partial replaces only when strictly better, so
// the earliest extreme wins ties), distinct sets union.
func (a *aggVecs) mergeSpillBatch(pb *storage.ColumnBatch, ids []int32, col int) int {
	cnt := pb.Column(col)
	col++
	for i, id := range ids {
		a.counts[id] += cnt.Int(i)
	}
	switch a.spec.Kind {
	case AggSum, AggAvg, AggStdDev:
		sum, sq := pb.Column(col), pb.Column(col+1)
		col += 2
		for i, id := range ids {
			a.sums[id] += sum.Float(i)
			a.sumSqs[id] += sq.Float(i)
		}
	case AggMin:
		a.foldMin(pb.Column(col), ids, 0, false)
		col++
	case AggMax:
		a.foldMax(pb.Column(col), ids, 0, false)
		col++
	case AggCountDistinct:
		set := pb.Column(col)
		col++
		for i, id := range ids {
			if s := set.Str(i); s != "" {
				a.distinct[id] = decodeDistinctSet(s, a.distinct[id])
			}
		}
	}
	return col
}

// mergeSpilled re-aggregates each sub-partition's partial-state rows into a
// fresh merge table — peak resident state is one sub-partition's group slice,
// ~1/aggSpillPartitions of the bucket's groups — and emits the final rows
// sorted by first-seen sequence, restoring the exact in-memory emission
// order. partsMerged reports how many sub-partitions held spilled state.
func (sp *aggSpill) mergeSpilled(n *groupByNode, keySchema *storage.Schema,
	inSchema *storage.Schema, notePeak func(int64)) ([]storage.Row, int, error) {

	keyIdx := make([]int, sp.nKeys)
	keyCols := make([]string, sp.nKeys)
	for i := range keyIdx {
		keyIdx[i] = i
		keyCols[i] = fmt.Sprintf("k%d", i)
	}
	enc, err := storage.NewKeyEncoder(sp.schema, keyCols...)
	if err != nil {
		return nil, 0, err
	}
	type seqRow struct {
		seq int64
		row storage.Row
	}
	var all []seqRow
	partsMerged := 0
	var ids []int32
	for p := 0; p < aggSpillPartitions; p++ {
		if sp.store.PartitionRows(p) == 0 {
			continue
		}
		partsMerged++
		table := storage.NewGroupTable(keySchema, keyIdx, enc.Clone())
		accs := newAggVecSet(n.aggs, inSchema)
		var seqs []int64
		err := sp.store.EachBatch(p, func(pb *storage.ColumnBatch) error {
			old := table.Groups()
			ids = table.MapBatch(pb, ids)
			groups := table.Groups()
			ensureAggVecs(accs, groups)
			for g := old; g < groups; g++ {
				seqs = append(seqs, -1)
			}
			seqCol := pb.Column(sp.nKeys)
			for i, id := range ids {
				if seqs[id] == -1 {
					seqs[id] = seqCol.Int(i)
				}
			}
			col := sp.nKeys + 1
			for _, a := range accs {
				col = a.mergeSpillBatch(pb, ids, col)
			}
			notePeak(table.MemSize() + aggVecsSize(accs))
			return nil
		})
		if err != nil {
			return nil, 0, err
		}
		kr := table.KeyRows()
		for g := 0; g < table.Groups(); g++ {
			row := make(storage.Row, 0, n.out.Len())
			row = append(row, kr.Row(g)...)
			for _, a := range accs {
				row = append(row, a.result(g))
			}
			all = append(all, seqRow{seq: seqs[g], row: row})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].seq < all[j].seq })
	rows := make([]storage.Row, len(all))
	for i, sr := range all {
		rows[i] = sr.row
	}
	return rows, partsMerged, nil
}

// encodeDistinctSet serialises a distinct set as sorted length-prefixed
// entries (sorted so the spilled bytes are deterministic run to run).
func encodeDistinctSet(set map[string]struct{}) string {
	if len(set) == 0 {
		return ""
	}
	entries := make([]string, 0, len(set))
	for k := range set {
		entries = append(entries, k)
	}
	sort.Strings(entries)
	size := 0
	for _, s := range entries {
		size += len(s) + binary.MaxVarintLen64
	}
	buf := make([]byte, 0, size)
	for _, s := range entries {
		buf = binary.AppendUvarint(buf, uint64(len(s)))
		buf = append(buf, s...)
	}
	return string(buf)
}

// decodeDistinctSet unions an encoded set into dst (allocating it on first
// use), returning dst.
func decodeDistinctSet(s string, dst map[string]struct{}) map[string]struct{} {
	b := []byte(s)
	for len(b) > 0 {
		l, k := binary.Uvarint(b)
		if k <= 0 || uint64(len(b)-k) < l {
			break
		}
		if dst == nil {
			dst = make(map[string]struct{})
		}
		dst[string(b[k:k+int(l)])] = struct{}{}
		b = b[k+int(l):]
	}
	return dst
}
