package dataflow

// reference_test.go is the test oracle: a deliberately naive interpreter of
// logical plans over boxed rows. It has no fusion, no shuffle and no spill.
// It walks the plan nodes, calls their closures on row-backed Records, and
// decides every value question with storage.CompareValues, AsFloat and
// AsString alone, applying the aggregate formulas documented on AggKind in
// aggregate.go. It shares nothing with the executor beyond the plan nodes,
// so a bug in a batch kernel, a key encoder or a comparator cannot hide in
// both. Its sources are the rows refFromRows recorded, not the engine's
// source batches.
//
// Narrow operators keep the partitioning. Wide operators emit one partition
// in input order.

import (
	"cmp"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"
	"weak"

	"repro/internal/storage"
)

// refSources holds, for every source built with refFromRows, the rows it was
// given, partitioned as FromRows documents. The interpreter reads these, never
// the source's batches, so FromRows' row-to-batch conversion stays under test.
// Keys are weak and an entry goes when its source node is collected, so a
// long fuzz run does not keep every plan's rows.
var refSources sync.Map // weak.Pointer[sourceNode] -> [][]storage.Row

// refFromRows is FromRows that also records rows as the reference
// interpreter's own row source: row i in partition i mod partitions.
func refFromRows(name string, schema *storage.Schema, rows []storage.Row, partitions int) *Dataset {
	d := FromRows(name, schema, rows, partitions)
	if d.Err() != nil {
		return d
	}
	parts := make([][]storage.Row, max(partitions, 1))
	for i, r := range rows {
		parts[i%len(parts)] = append(parts[i%len(parts)], r)
	}
	n := d.node.(*sourceNode)
	key := weak.Make(n)
	refSources.Store(key, parts)
	runtime.AddCleanup(n, func(k weak.Pointer[sourceNode]) { refSources.Delete(k) }, key)
	return d
}

// refRun is the interpreter's answer for one plan.
type refRun struct {
	rows []storage.Row
	// ordered is true when the plan defines its output order: no wide
	// operator, or a Sort at the root with no wide operator below it.
	ordered bool
	// read counts the source rows the plan scans.
	read int64
}

// reference evaluates plan with the interpreter.
func reference(plan *Dataset) (refRun, error) {
	if err := plan.Err(); err != nil {
		return refRun{}, err
	}
	var r refRun
	parts, err := r.eval(plan.node)
	if err != nil {
		return refRun{}, err
	}
	r.rows = refConcat(parts)
	r.ordered = !refHasWide(plan.node)
	if s, ok := plan.node.(*sortNode); ok && !refHasWide(s.child) {
		r.ordered = true
	}
	return r, nil
}

// check fails t unless got matches the reference: row for row when the plan
// defines its order, as sorted multisets otherwise, and with the same number
// of source rows read.
func (r refRun) check(t testing.TB, label string, got *Result) {
	t.Helper()
	if got.Stats.RowsRead != r.read {
		t.Errorf("%s: RowsRead = %d, reference read %d", label, got.Stats.RowsRead, r.read)
	}
	if len(got.Rows) != len(r.rows) {
		t.Fatalf("%s: %d rows, reference has %d", label, len(got.Rows), len(r.rows))
	}
	if !r.ordered {
		g, w := refCanonical(got.Rows), refCanonical(r.rows)
		for i := range g {
			if g[i] != w[i] {
				t.Fatalf("%s: sorted row %d = %s, reference %s", label, i, g[i], w[i])
			}
		}
		return
	}
	for i := range got.Rows {
		if !reflect.DeepEqual(got.Rows[i], r.rows[i]) {
			t.Fatalf("%s: row %d = %#v, reference %#v", label, i, got.Rows[i], r.rows[i])
		}
	}
}

// refCanonical renders every row and sorts the renderings: the multiset form
// of an output.
func refCanonical(rows []storage.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprintf("%#v", r)
	}
	sort.Strings(out)
	return out
}

func refHasWide(node planNode) bool {
	switch node.(type) {
	case *sortNode, *groupByNode, *joinNode:
		return true
	}
	for _, c := range node.children() {
		if refHasWide(c) {
			return true
		}
	}
	return false
}

func refConcat(parts [][]storage.Row) []storage.Row {
	var out []storage.Row
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// eval returns node's output partitions.
func (r *refRun) eval(node planNode) ([][]storage.Row, error) {
	switch n := node.(type) {
	case *sourceNode:
		v, ok := refSources.Load(weak.Make(n))
		if !ok {
			return nil, fmt.Errorf("reference: source %s was not built with refFromRows", n.name)
		}
		parts := v.([][]storage.Row)
		out := make([][]storage.Row, len(parts))
		for i, p := range parts {
			out[i] = append([]storage.Row(nil), p...)
			r.read += int64(len(p))
		}
		return out, nil
	case *joinNode:
		left, err := r.eval(n.left)
		if err != nil {
			return nil, err
		}
		right, err := r.eval(n.right)
		if err != nil {
			return nil, err
		}
		return [][]storage.Row{refJoin(n, refConcat(left), refConcat(right))}, nil
	}
	in, err := r.eval(node.children()[0])
	if err != nil {
		return nil, err
	}
	switch n := node.(type) {
	case *sortNode:
		return [][]storage.Row{refSort(n, refConcat(in))}, nil
	case *groupByNode:
		return [][]storage.Row{refGroupBy(n, refConcat(in))}, nil
	}
	out := make([][]storage.Row, len(in))
	for p, rows := range in {
		if out[p], err = refNarrow(node, rows); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// refNarrow applies one narrow operator to one partition's rows.
func refNarrow(node planNode, rows []storage.Row) ([]storage.Row, error) {
	in := node.children()[0].schema()
	var out []storage.Row
	switch n := node.(type) {
	case *filterNode:
		for _, row := range rows {
			if n.fn == nil {
				if !slices.ContainsFunc(n.nonNull, func(c int) bool { return row[c] == nil }) {
					out = append(out, row)
				}
				continue
			}
			keep, err := n.fn(Record{schema: in, row: row})
			if err != nil {
				return nil, err
			}
			if keep {
				out = append(out, row)
			}
		}
	case *projectNode:
		for _, row := range rows {
			nr := make(storage.Row, n.out.Len())
			for i, name := range n.out.Names() {
				nr[i] = row[in.IndexOf(name)]
			}
			out = append(out, nr)
		}
	case *withColumnNode:
		for _, row := range rows {
			v, err := n.fn(Record{schema: in, row: row})
			if err != nil {
				return nil, err
			}
			if err := storage.ValidateCell(n.field, v); err != nil {
				return nil, fmt.Errorf("with_column output: %w", err)
			}
			out = append(out, append(append(storage.Row{}, row...), v))
		}
	case *mapStringsNode:
		for _, row := range rows {
			nr := append(storage.Row{}, row...)
			for _, c := range n.cols {
				if i := in.IndexOf(c); nr[i] != nil {
					nr[i] = n.fn(nr[i].(string))
				}
			}
			out = append(out, nr)
		}
	default:
		return nil, fmt.Errorf("reference: unknown node %T", node)
	}
	return out, nil
}

// refCompareOn orders two rows on the given columns with CompareValues.
func refCompareOn(a, b storage.Row, cols []int) int {
	for _, c := range cols {
		if d := storage.CompareValues(a[c], b[c]); d != 0 {
			return d
		}
	}
	return 0
}

// refColumns resolves column names.
func refColumns(s *storage.Schema, names []string) []int {
	cols := make([]int, len(names))
	for i, name := range names {
		cols[i] = s.IndexOf(name)
	}
	return cols
}

// refRuns stable-sorts row indices on cols and returns the runs of equal
// keys; within a run indices keep their input order.
func refRuns(rows []storage.Row, cols []int) [][]int {
	idx := make([]int, len(rows))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return refCompareOn(rows[idx[a]], rows[idx[b]], cols) < 0 })
	var runs [][]int
	for i, j := range idx {
		if i == 0 || refCompareOn(rows[idx[i-1]], rows[j], cols) != 0 {
			runs = append(runs, nil)
		}
		runs[len(runs)-1] = append(runs[len(runs)-1], j)
	}
	return runs
}

// refSort is a stable sort on the orders under refSortCompare.
func refSort(n *sortNode, rows []storage.Row) []storage.Row {
	in := n.child.schema()
	out := append([]storage.Row(nil), rows...)
	sort.SliceStable(out, func(a, b int) bool {
		for _, o := range n.orders {
			c := in.IndexOf(o.Column)
			d := refSortCompare(out[a][c], out[b][c])
			if o.Descending {
				d = -d
			}
			if d != 0 {
				return d < 0
			}
		}
		return false
	})
	return out
}

// refSortCompare is Sort's order of two cells of one column: CompareValues'
// (nulls first), except that two floats follow cmp.Compare (NaN below -Inf,
// -0 tying +0) so that the order is total.
func refSortCompare(a, b storage.Value) int {
	if x, ok := a.(float64); ok {
		if y, ok := b.(float64); ok {
			return cmp.Compare(x, y)
		}
	}
	return storage.CompareValues(a, b)
}

// refGroupBy emits one row per key: the key values of the group's first row,
// then each aggregation over the group's rows in input order.
func refGroupBy(n *groupByNode, rows []storage.Row) []storage.Row {
	in := n.child.schema()
	keys := refColumns(in, n.keys)
	var out []storage.Row
	for _, run := range refRuns(rows, keys) {
		row := make(storage.Row, 0, n.out.Len())
		for _, k := range keys {
			row = append(row, rows[run[0]][k])
		}
		for _, a := range n.aggs {
			row = append(row, refAggregate(a, in, rows, run))
		}
		out = append(out, row)
	}
	return out
}

func refAggregate(a Aggregation, in *storage.Schema, rows []storage.Row, group []int) storage.Value {
	if a.Kind == AggCount {
		return int64(len(group))
	}
	c := in.IndexOf(a.Column)
	var count int64
	var sum float64
	for _, i := range group {
		v := rows[i][c]
		if v == nil {
			continue
		}
		count++
		f, _ := storage.AsFloat(v)
		sum += f
	}
	if a.Kind == AggSum {
		return sum
	}
	if count == 0 {
		return nil
	}
	return sum / float64(count)
}

// refJoin pairs every left row with every right row whose key has the same
// row-mode key encoding (storage.AppendKeyValue: null equals null, -0 equals
// +0, a NaN matches only the same bits, an int never a float), in
// left-then-right input order, null-extending unmatched left rows of a left
// join.
func refJoin(n *joinNode, left, right []storage.Row) []storage.Row {
	lk, rk := n.left.schema().IndexOf(n.leftKey), n.right.schema().IndexOf(n.rightKey)
	rightKeys := make([]string, len(right))
	for i, r := range right {
		rightKeys[i] = string(storage.AppendKeyValue(nil, r[rk]))
	}
	var out []storage.Row
	for _, l := range left {
		key := string(storage.AppendKeyValue(nil, l[lk]))
		matched := false
		for i, r := range right {
			if rightKeys[i] == key {
				out = append(out, append(append(storage.Row{}, l...), r...))
				matched = true
			}
		}
		if !matched && n.kind == LeftJoin {
			out = append(out, append(append(storage.Row{}, l...), make(storage.Row, n.right.schema().Len())...))
		}
	}
	return out
}
