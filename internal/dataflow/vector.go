package dataflow

// vector.go holds the batch kernels of the engine. Every partition is a
// storage.ColumnBatch:
//
//   - A narrow stage runs as a chain of batch kernels. Filter evaluates its
//     predicate per row through a zero-copy batch view (or, for the typed
//     null filter, reads only null bitmaps) and emits a selection vector —
//     no row is copied or boxed, and a filter that drops nothing leaves the
//     selection as it was. Project re-points column references, WithColumn
//     appends one freshly computed typed vector, and MapStrings rebuilds
//     only the string vectors it rewrites (straight from a pending
//     selection, which it gathers for the other columns alone); in each case
//     unaffected columns are shared with the input batch.
//   - Wide operators hash keys straight from the column vectors
//     (KeyEncoder.BatchHashes folds each key column into per-row hashes, no
//     key is encoded to bytes), look them up in storage's open-addressing
//     key table (GroupTable, JoinTable), which confirms a hit on the typed
//     key cells, and move rows by batch index with typed copies
//     (shuffleBatches, ColumnBatch.Gather), so a shuffle never materialises
//     a boxed Row either.
//   - Sort orders rows by normalized keys (batchComparator): one uint64
//     word per key and row that compares as an unsigned integer, so a
//     single-word key radix-sorts and the run merge compares the same
//     words; only string prefixes that tie are compared in full.

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/cluster"
	"repro/internal/storage"
)

// eachSel calls f for every selected row index: all rows of an n-row batch
// when sel is nil, the selected rows otherwise.
func eachSel(n int, sel []int32, f func(i int) error) error {
	if sel == nil {
		for i := 0; i < n; i++ {
			if err := f(i); err != nil {
				return err
			}
		}
		return nil
	}
	for _, i := range sel {
		if err := f(int(i)); err != nil {
			return err
		}
	}
	return nil
}

func selLen(n int, sel []int32) int {
	if sel == nil {
		return n
	}
	return len(sel)
}

// narrowSel returns the selection after a filter kept next out of the rows
// sel selects. Kept rows stay in order, so keeping all of them reproduces sel
// itself: the old selection is returned, and a batch no operator has
// narrowed stays unselected, its columns shared rather than gathered.
func narrowSel(n int, sel, next []int32) []int32 {
	if len(next) == selLen(n, sel) {
		return sel
	}
	return next
}

// evalChain executes a chain of narrow operators as one cluster job whose
// tasks run batch kernels, one task per input partition.
func (e *Engine) evalChain(ctx context.Context, ch fusedChain, st *execState) ([]*storage.ColumnBatch, error) {
	in, err := e.eval(ctx, ch.base, st)
	if err != nil {
		return nil, err
	}
	name := ch.name()
	out := make([]*storage.ColumnBatch, len(in))
	tasks := make([]cluster.Task, len(in))
	for i := range in {
		i := i
		tasks[i] = cluster.Task{
			Name: fmt.Sprintf("%s[%d]", name, i),
			Fn: func(ctx context.Context, node cluster.Node) error {
				res, err := runKernels(ch.ops, in[i])
				if err != nil {
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
	st.addBatches(len(out), countBatchRows(out))
	if len(ch.ops) > 1 {
		st.addFused()
	}
	return out, nil
}

// runKernels pushes one batch through the operators. The current state is a
// batch plus an optional selection vector (nil = every row); filters only
// narrow the selection, and the selection is materialised (gathered) lazily —
// when a kernel needs aligned columns or at the end of the chain.
func runKernels(ops []planNode, b *storage.ColumnBatch) (*storage.ColumnBatch, error) {
	cur := b
	var sel []int32
	for _, op := range ops {
		switch n := op.(type) {
		case *filterNode:
			if n.fn == nil {
				sel = keepNonNull(cur, sel, n.nonNull)
				continue
			}
			schema := n.child.schema()
			next := make([]int32, 0, selLen(cur.Len(), sel))
			err := eachSel(cur.Len(), sel, func(i int) error {
				keep, err := n.fn(Record{schema: schema, batch: cur, idx: i})
				if err != nil {
					return err
				}
				if keep {
					next = append(next, int32(i))
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			sel = narrowSel(cur.Len(), sel, next)
		case *projectNode:
			// Pure column operation: re-point the projected columns, leave
			// the selection untouched. No cell is read, copied or boxed.
			cur = cur.ProjectCols(n.out, n.indices)
		case *withColumnNode:
			// The derived column must align with the batch's rows, so a
			// pending selection is materialised first; the existing columns
			// are then shared, only the new vector is written.
			if sel != nil {
				cur = cur.Gather(sel)
				sel = nil
			}
			schema := n.child.schema()
			col := storage.NewColumnBuilder(n.field.Type, cur.Len())
			for i := 0; i < cur.Len(); i++ {
				v, err := n.fn(Record{schema: schema, batch: cur, idx: i})
				if err != nil {
					return nil, err
				}
				if err := col.AppendValue(n.field, v, i); err != nil {
					return nil, fmt.Errorf("with_column output: %w", err)
				}
			}
			cur = cur.WithAppendedColumn(n.out, col)
		case *mapStringsNode:
			// Typed string rewrite: each listed column is built from the
			// selected rows straight into a fresh vector; every other column
			// is shared with the input, or gathered on its own when a
			// selection is pending, so no column is copied and discarded.
			cols := make([]storage.Column, cur.Width())
			for c := range cols {
				src := cur.Column(c)
				switch {
				case slices.Contains(n.indices, c):
					cols[c] = mapStringColumn(src, cur.Len(), sel, n.fn)
				case sel != nil:
					cols[c] = src.Gather(sel)
				default:
					cols[c] = *src
				}
			}
			next, err := storage.BatchOfColumns(n.schema(), selLen(cur.Len(), sel), cols)
			if err != nil {
				return nil, fmt.Errorf("map_strings output: %w", err)
			}
			cur, sel = next, nil
		default:
			return nil, fmt.Errorf("%w: operator %T is not a narrow operator", ErrBadPlan, op)
		}
	}
	if sel != nil {
		cur = cur.Gather(sel)
	}
	return cur, nil
}

// keepNonNull narrows sel (nil = every row of b) to the rows that are null in
// none of b's columns at cols. Only columns that carry a null bitmap are
// tested; when none does, sel is returned as it is and no row is visited.
func keepNonNull(b *storage.ColumnBatch, sel []int32, cols []int) []int32 {
	var nullable []*storage.Column
	for _, c := range cols {
		if col := b.Column(c); col.HasNulls() {
			nullable = append(nullable, col)
		}
	}
	if len(nullable) == 0 {
		return sel
	}
	next := make([]int32, 0, selLen(b.Len(), sel))
	_ = eachSel(b.Len(), sel, func(i int) error {
		for _, col := range nullable {
			if col.Null(i) {
				return nil
			}
		}
		next = append(next, int32(i))
		return nil
	})
	return narrowSel(b.Len(), sel, next)
}

// mapStringColumn builds fn of every selected cell of the n-row string column
// src into a fresh vector. Null cells stay null; fn never sees them. fn is
// pure, so a cell equal to the previous non-null cell reuses its output:
// fn runs once per run of equal adjacent values.
func mapStringColumn(src *storage.Column, n int, sel []int32, fn func(string) string) storage.Column {
	out := storage.NewColumnBuilder(storage.TypeString, selLen(n, sel))
	row := 0
	var prevIn, prevOut string
	seen := false
	_ = eachSel(n, sel, func(i int) error {
		if src.Null(i) {
			out.AppendNull(row)
		} else {
			if s := src.Str(i); !seen || s != prevIn {
				prevIn, prevOut, seen = s, fn(s), true
			}
			out.AppendStr(prevOut)
		}
		row++
		return nil
	})
	return out
}

// ---------------------------------------------------------------------------
// Sort (normalized keys)
// ---------------------------------------------------------------------------

// sortKey is one resolved sort key: column position, field type and
// direction.
type sortKey struct {
	col  int
	typ  storage.FieldType
	desc bool
}

// The sort order is defined by one normalized word per key and row: fixed
// 64-bit words that compare as unsigned integers. Null is word 0, below
// every value; a descending key inverts its words, so its nulls sort last.
const (
	nullWord  uint64 = 0
	nanWord   uint64 = 1 // every NaN: above null, below -Inf
	falseWord uint64 = 1
	trueWord  uint64 = 2
)

// floatWord is the order-preserving transform of a non-NaN float64: flip
// every bit of a negative value, set the sign bit of a non-negative one.
// -Inf maps above nanWord, and -0 must be made +0 first to tie with it.
func floatWord(f float64) uint64 {
	b := math.Float64bits(f)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// strWord is the first 8 bytes of s, big-endian and zero-padded. Equal
// words do not mean equal strings: a tie is settled by tie.
func strWord(s string) uint64 {
	if len(s) >= 8 {
		return uint64(s[0])<<56 | uint64(s[1])<<48 | uint64(s[2])<<40 | uint64(s[3])<<32 |
			uint64(s[4])<<24 | uint64(s[5])<<16 | uint64(s[6])<<8 | uint64(s[7])
	}
	var w uint64
	for i := 0; i < len(s); i++ {
		w |= uint64(s[i]) << (56 - 8*i)
	}
	return w
}

// word returns the normalized word of row i of c, the key's column.
// Int and time cells order by their float64 conversion, as
// storage.CompareValues does, so int64 values beyond 2^53 that round to one
// float64 tie.
func (k sortKey) word(c *storage.Column, i int) uint64 {
	w := nullWord
	if !c.Null(i) {
		switch k.typ {
		case storage.TypeInt, storage.TypeTime:
			w = floatWord(float64(c.Int(i)))
		case storage.TypeFloat:
			w = floatKeyWord(c.Float(i))
		case storage.TypeBool:
			w = falseWord
			if c.Bool(i) {
				w = trueWord
			}
		case storage.TypeString:
			w = strWord(c.Str(i))
		}
	}
	if k.desc {
		return ^w
	}
	return w
}

// floatKeyWord is a non-null float cell's word: NaN below -Inf, -0 tying +0.
func floatKeyWord(f float64) uint64 {
	if f != f {
		return nanWord
	}
	if f == 0 {
		f = 0
	}
	return floatWord(f)
}

// tie orders two cells of the key whose words are equal. Only strings can
// still differ: they compare in full, with null before "" (both word 0).
func (k sortKey) tie(a *storage.Column, ai int, b *storage.Column, bi int) int {
	if k.typ != storage.TypeString {
		return 0
	}
	var r int
	switch an, bn := a.Null(ai), b.Null(bi); {
	case an && bn:
		r = 0
	case an:
		r = -1
	case bn:
		r = 1
	default:
		r = cmp.Compare(a.Str(ai), b.Str(bi))
	}
	if k.desc {
		return -r
	}
	return r
}

// keyRow pairs a row index with one normalized word of it.
type keyRow struct {
	w   uint64
	row int32
}

// batchComparator orders batch rows under a multi-key sort by their
// normalized words, without materialising or boxing a row: later keys only
// break ties of earlier ones.
type batchComparator struct {
	keys []sortKey
}

// newBatchComparator resolves the sort orders against schema.
func newBatchComparator(schema *storage.Schema, orders []SortOrder) (*batchComparator, error) {
	keys := make([]sortKey, len(orders))
	for i, o := range orders {
		idx := schema.IndexOf(o.Column)
		if idx < 0 {
			return nil, fmt.Errorf("dataflow: sort: %w: column %q not in input schema %s",
				storage.ErrUnknownField, o.Column, schema)
		}
		keys[i] = sortKey{col: idx, typ: schema.Field(idx).Type, desc: o.Descending}
	}
	return &batchComparator{keys: keys}, nil
}

// compareFrom orders row ai of batch a against row bi of batch b on the keys
// from index from on, deriving each key's words from the cells.
func (c *batchComparator) compareFrom(from int, a *storage.ColumnBatch, ai int, b *storage.ColumnBatch, bi int) int {
	for _, k := range c.keys[from:] {
		ca, cb := a.Column(k.col), b.Column(k.col)
		if r := cmp.Compare(k.word(ca, ai), k.word(cb, bi)); r != 0 {
			return r
		}
		if r := k.tie(ca, ai, cb, bi); r != 0 {
			return r
		}
	}
	return 0
}

// Compare orders row ai of batch a against row bi of batch b. Both batches
// must share the comparator's schema. The signature matches
// storage.BatchRowCompare: it is the external run merge's comparator, and
// it orders rows exactly as sortedSelection does.
func (c *batchComparator) Compare(a *storage.ColumnBatch, ai int, b *storage.ColumnBatch, bi int) int {
	return c.compareFrom(0, a, ai, b, bi)
}

// sortedSelection returns the stable sort permutation of b's rows as a
// selection vector: Gather-ing it materialises the sorted batch with typed
// copies. It sorts (first word, row) pairs; ties break on the row index, so
// an unstable sort yields exactly the stable permutation. One non-string
// key is fully ordered by its words and takes an LSD radix sort; otherwise
// pdqsort settles first-word ties on the string and later keys.
func (c *batchComparator) sortedSelection(b *storage.ColumnBatch) []int32 {
	k0 := c.keys[0]
	col0 := b.Column(k0.col)
	pairs := make([]keyRow, b.Len())
	for i := range pairs {
		pairs[i] = keyRow{w: k0.word(col0, i), row: int32(i)}
	}
	if len(c.keys) == 1 && k0.typ != storage.TypeString {
		pairs = radixSort(pairs, make([]keyRow, len(pairs)))
	} else {
		slices.SortFunc(pairs, func(x, y keyRow) int {
			if x.w != y.w {
				return cmp.Compare(x.w, y.w)
			}
			xr, yr := int(x.row), int(y.row)
			if r := k0.tie(col0, xr, col0, yr); r != 0 {
				return r
			}
			if r := c.compareFrom(1, b, xr, b, yr); r != 0 {
				return r
			}
			return cmp.Compare(x.row, y.row)
		})
	}
	sel := make([]int32, len(pairs))
	for i, p := range pairs {
		sel[i] = p.row
	}
	return sel
}

// radixSort sorts a by word with a stable LSD radix sort over 8-bit digits,
// using buf (len(a)) as scratch, and returns whichever of the two holds the
// result. Digits on which every word agrees are skipped.
func radixSort(a, buf []keyRow) []keyRow {
	if len(a) < 2 {
		return a
	}
	var diff uint64
	for _, p := range a {
		diff |= p.w ^ a[0].w
	}
	for shift := 0; shift < 64; shift += 8 {
		if (diff>>shift)&0xff == 0 {
			continue
		}
		var offsets [256]int
		for _, p := range a {
			offsets[byte(p.w>>shift)]++
		}
		pos := 0
		for d, n := range offsets {
			offsets[d] = pos
			pos += n
		}
		for _, p := range a {
			d := byte(p.w >> shift)
			buf[offsets[d]] = p
			offsets[d]++
		}
		a, buf = buf, a
	}
	return a
}

// rangeSplit assigns rows to range partitions: partition p receives the rows
// ordered at or after split point p-1 and before split point p. The split
// points' first-key words are extracted once; later keys and string
// prefixes are consulted only on a first-word tie.
type rangeSplit struct {
	cmp    *batchComparator
	points *storage.ColumnBatch
	words  []uint64
}

func newRangeSplit(c *batchComparator, points *storage.ColumnBatch) *rangeSplit {
	k0 := c.keys[0]
	col := points.Column(k0.col)
	words := make([]uint64, points.Len())
	for i := range words {
		words[i] = k0.word(col, i)
	}
	return &rangeSplit{cmp: c, points: points, words: words}
}

// partitions writes the range partition of every row of b into parts.
func (s *rangeSplit) partitions(b *storage.ColumnBatch, parts []int32) {
	for r := range parts {
		parts[r] = int32(s.partition(b, r))
	}
}

// partition returns row r of b's range partition: the number of split
// points it does not sort before, so rows equal to a split point land on its
// right.
func (s *rangeSplit) partition(b *storage.ColumnBatch, r int) int {
	k0 := s.cmp.keys[0]
	col := b.Column(k0.col)
	w := k0.word(col, r)
	lo, hi := 0, len(s.words)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		c := cmp.Compare(w, s.words[m])
		if c == 0 {
			if c = k0.tie(col, r, s.points.Column(k0.col), m); c == 0 {
				c = s.cmp.compareFrom(1, b, r, s.points, m)
			}
		}
		if c < 0 {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return lo
}

// ---------------------------------------------------------------------------
// Join
// ---------------------------------------------------------------------------

// probeBatch streams probe-side batch rows against the build table, emitting
// joined rows with typed column copies (AppendJoined): each probe row joins
// its key's build rows in build-row order, and unmatched left-join rows are
// null-extended. No boxed Row exists at any point. ids is scratch for the
// probe's key ids, returned for reuse.
func probeBatch(out *storage.ColumnBatch, probe *storage.ColumnBatch, build *storage.JoinTable,
	buildBatch *storage.ColumnBatch, enc *storage.KeyEncoder, kind JoinType, ids []int32) []int32 {

	ids = build.Probe(probe, enc, ids)
	for i, g := range ids {
		if g < 0 {
			if kind == LeftJoin {
				out.AppendNullExtended(probe, i)
			}
			continue
		}
		for _, m := range build.Rows(g) {
			out.AppendJoined(probe, i, buildBatch, int(m))
		}
	}
	return ids
}

// flattenBatches concatenates batches into one (typed copies).
func flattenBatches(schema *storage.Schema, in []*storage.ColumnBatch) *storage.ColumnBatch {
	out := storage.NewColumnBatch(schema, countBatchRows(in))
	for _, b := range in {
		for i := 0; i < b.Len(); i++ {
			out.AppendRowFrom(b, i)
		}
	}
	return out
}

// evalJoin executes the hash equi-join: broadcast when the build (right) side
// is small enough (one task builds a table of batch row numbers, and every
// left partition probes it in place, preserving the left partitioning),
// shuffled hash join otherwise, with both sides moved by batch index.
func (e *Engine) evalJoin(ctx context.Context, n *joinNode, st *execState) ([]*storage.ColumnBatch, error) {
	left, err := e.eval(ctx, n.left, st)
	if err != nil {
		return nil, err
	}
	right, err := e.eval(ctx, n.right, st)
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
	if e.broadcastJoin && countBatchRows(right) <= e.broadcastThreshold {
		st.addBroadcast()
		// Build once as a single cluster task — the simulated analogue of
		// materialising the broadcast variable — then share the table
		// read-only across every probe task.
		var buildBatch *storage.ColumnBatch
		var build *storage.JoinTable
		buildTask := []cluster.Task{{
			Name: "join-broadcast-build",
			Fn: func(ctx context.Context, node cluster.Node) error {
				buildBatch = flattenBatches(rs, right)
				build = storage.NewJoinTable(buildBatch, rEnc)
				return nil
			},
		}}
		st.addTasks(1)
		if _, err := e.cluster.RunNamedJob(ctx, "join-broadcast-build", buildTask); err != nil {
			return nil, fmt.Errorf("dataflow: join-broadcast-build: %w", err)
		}
		out := make([]*storage.ColumnBatch, len(left))
		tasks := make([]cluster.Task, len(left))
		for i := range left {
			i := i
			tasks[i] = cluster.Task{
				Name: fmt.Sprintf("join-broadcast[%d]", i),
				Fn: func(ctx context.Context, node cluster.Node) error {
					res := storage.NewColumnBatch(n.out, left[i].Len())
					probeBatch(res, left[i], build, buildBatch, lEnc, n.kind, nil)
					out[i] = res
					return nil
				},
			}
		}
		st.addTasks(len(tasks))
		if _, err := e.cluster.RunNamedJob(ctx, "join-broadcast", tasks); err != nil {
			return nil, fmt.Errorf("dataflow: join-broadcast: %w", err)
		}
		st.addBatches(len(out), countBatchRows(out))
		return out, nil
	}

	// Shuffled hash join through partition stores: under a memory budget the
	// bucket chunks of both sides spill to disk as they accumulate; each task
	// then restores its build-side bucket (flattened, since the hash table
	// must be resident to probe) and streams its probe-side chunks one at a
	// time.
	lStore, err := e.shuffleBatches(left, ls, lEnc, st)
	if err != nil {
		return nil, err
	}
	defer st.releaseStore(lStore)
	rStore, err := e.shuffleBatches(right, rs, rEnc, st)
	if err != nil {
		return nil, err
	}
	defer st.releaseStore(rStore)
	nParts := lStore.Partitions()
	out := make([]*storage.ColumnBatch, nParts)
	tasks := make([]cluster.Task, nParts)
	for i := range tasks {
		i := i
		tasks[i] = cluster.Task{
			Name: fmt.Sprintf("join[%d]", i),
			Fn: func(ctx context.Context, node cluster.Node) error {
				buildBatch, err := rStore.FlattenPartition(i)
				if err != nil {
					return err
				}
				build := storage.NewJoinTable(buildBatch, rEnc)
				res := storage.NewColumnBatch(n.out, lStore.PartitionRows(i))
				var ids []int32
				err = lStore.EachBatch(i, func(pb *storage.ColumnBatch) error {
					ids = probeBatch(res, pb, build, buildBatch, lEnc, n.kind, ids)
					return nil
				})
				if err != nil {
					return err
				}
				out[i] = res
				return nil
			},
		}
	}
	st.addTasks(len(tasks))
	if _, err := e.cluster.RunNamedJob(ctx, "join", tasks); err != nil {
		return nil, fmt.Errorf("dataflow: join: %w", err)
	}
	st.addBatches(len(out), countBatchRows(out))
	return out, nil
}
