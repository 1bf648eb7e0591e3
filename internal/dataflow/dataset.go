// Package dataflow implements the Big Data pipeline execution substrate of
// the reproduction: a partitioned, lazily evaluated dataset abstraction
// (comparable to a narrow subset of Spark's DataFrame API) together with an
// engine that compiles logical plans into parallel tasks executed on the
// simulated cluster.
//
// A Dataset is an immutable logical plan. Transformations (Filter,
// WithColumn, GroupBy, Join, …) build a new plan; nothing executes until an
// Engine action (Collect, Count) is called. Narrow transformations run one
// task per partition; wide transformations (group-by, join, sort) introduce a
// shuffle boundary that re-partitions intermediate data by key.
package dataflow

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/storage"
)

// Errors reported while building or executing plans.
var (
	ErrNoSource = errors.New("dataflow: dataset has no source")
	ErrBadPlan  = errors.New("dataflow: invalid plan")
	ErrUDF      = errors.New("dataflow: user function failed")
)

// Record gives user functions named access to the current row. A record is
// either row-backed (a boxed storage.Row) or batch-backed: a zero-copy view
// over one row of a columnar batch. Batch-backed records resolve the typed
// accessors (Int, Float, String, Bool) directly against the column vectors,
// so no cell is boxed unless Value is called.
type Record struct {
	schema *storage.Schema
	row    storage.Row
	batch  *storage.ColumnBatch
	idx    int
}

// Schema returns the record's schema.
func (r Record) Schema() *storage.Schema { return r.schema }

// Value returns the raw value of the named column (nil when the column is
// absent or null).
func (r Record) Value(name string) storage.Value {
	i := r.schema.IndexOf(name)
	if r.batch != nil {
		if i < 0 {
			return nil
		}
		return r.batch.Value(r.idx, i)
	}
	if i < 0 || i >= len(r.row) {
		return nil
	}
	return r.row[i]
}

// String returns the named column as a string ("" when null/absent).
func (r Record) String(name string) string {
	if r.batch != nil {
		return r.batch.StringAt(r.idx, r.schema.IndexOf(name))
	}
	return storage.AsString(r.Value(name))
}

// Int returns the named column as an int64 (0 when null or not convertible).
func (r Record) Int(name string) int64 {
	if r.batch != nil {
		v, _ := r.batch.IntAt(r.idx, r.schema.IndexOf(name))
		return v
	}
	v, _ := storage.AsInt(r.Value(name))
	return v
}

// Float returns the named column as a float64 (0 when null or not convertible).
func (r Record) Float(name string) float64 {
	if r.batch != nil {
		v, _ := r.batch.FloatAt(r.idx, r.schema.IndexOf(name))
		return v
	}
	v, _ := storage.AsFloat(r.Value(name))
	return v
}

// Bool returns the named column as a bool (false when null or not convertible).
func (r Record) Bool(name string) bool {
	if r.batch != nil {
		v, _ := r.batch.BoolAt(r.idx, r.schema.IndexOf(name))
		return v
	}
	v, _ := storage.AsBool(r.Value(name))
	return v
}

// IsNull reports whether the named column is null or absent.
func (r Record) IsNull(name string) bool {
	if r.batch != nil {
		return r.batch.NullAt(r.idx, r.schema.IndexOf(name))
	}
	return r.Value(name) == nil
}

// User function signatures.
type (
	// FilterFunc decides whether a record is kept.
	FilterFunc func(Record) (bool, error)
	// ColumnFunc computes the value of a derived column.
	ColumnFunc func(Record) (storage.Value, error)
)

// JoinType selects the join semantics.
type JoinType int

const (
	// InnerJoin keeps only matching pairs.
	InnerJoin JoinType = iota
	// LeftJoin keeps every left row, null-extending when unmatched.
	LeftJoin
)

// String implements fmt.Stringer.
func (j JoinType) String() string {
	switch j {
	case InnerJoin:
		return "inner"
	case LeftJoin:
		return "left"
	default:
		return fmt.Sprintf("join(%d)", int(j))
	}
}

// planNode is a node of the logical plan tree.
type planNode interface {
	// Schema of the rows this node produces.
	schema() *storage.Schema
	// children of this node (empty for sources).
	children() []planNode
	// label describes the node for plan explanations.
	label() string
}

// Dataset is an immutable logical plan. The zero value is invalid; obtain
// datasets from FromTable/FromRows and transformations.
type Dataset struct {
	node planNode
	err  error
}

// Err returns the first error recorded while building this plan, if any.
// Engines refuse to execute plans with a non-nil Err.
func (d *Dataset) Err() error {
	if d == nil {
		return ErrNoSource
	}
	return d.err
}

// Schema returns the output schema of the plan (nil when the plan is invalid).
func (d *Dataset) Schema() *storage.Schema {
	if d == nil || d.err != nil || d.node == nil {
		return nil
	}
	return d.node.schema()
}

// Explain renders the logical plan as an indented tree, one node per line.
func (d *Dataset) Explain() string {
	if d == nil || d.node == nil {
		return "<invalid plan>"
	}
	if d.err != nil {
		return fmt.Sprintf("<invalid plan: %v>", d.err)
	}
	var out string
	var walk func(n planNode, depth int)
	walk = func(n planNode, depth int) {
		for i := 0; i < depth; i++ {
			out += "  "
		}
		out += n.label() + "\n"
		for _, c := range n.children() {
			walk(c, depth+1)
		}
	}
	walk(d.node, 0)
	return out
}

func failed(err error) *Dataset { return &Dataset{err: err} }

func (d *Dataset) invalid() (*Dataset, bool) {
	if d == nil {
		return failed(ErrNoSource), true
	}
	if d.err != nil {
		return d, true
	}
	if d.node == nil {
		return failed(ErrNoSource), true
	}
	return nil, false
}

// ---------------------------------------------------------------------------
// Sources
// ---------------------------------------------------------------------------

type sourceNode struct {
	name    string
	sch     *storage.Schema
	batches []*storage.ColumnBatch // one per partition, read-only
	rows    int                    // row count, for Explain and the static row bound
}

func (s *sourceNode) schema() *storage.Schema { return s.sch }
func (s *sourceNode) children() []planNode    { return nil }
func (s *sourceNode) label() string {
	return fmt.Sprintf("Source(%s, partitions=%d, rows=%d)", s.name, len(s.batches), s.rows)
}

// batchSource builds a source node that adopts batches as its partitions.
func batchSource(name string, schema *storage.Schema, batches []*storage.ColumnBatch) *Dataset {
	return &Dataset{node: &sourceNode{name: name, sch: schema, batches: batches, rows: countBatchRows(batches)}}
}

// FromTable creates a dataset reading the table's current contents: a
// snapshot of its partitions' column batches, so later table mutations do not
// affect the plan.
func FromTable(t *storage.Table) *Dataset {
	if t == nil {
		return failed(fmt.Errorf("%w: nil table", ErrNoSource))
	}
	return batchSource(t.Name(), t.Schema(), t.Snapshot())
}

// FromRows creates a dataset over in-memory rows split round-robin into the
// given number of partitions (minimum 1). Rows are validated against the
// schema.
func FromRows(name string, schema *storage.Schema, rows []storage.Row, partitions int) *Dataset {
	if schema == nil {
		return failed(fmt.Errorf("%w: nil schema", ErrNoSource))
	}
	if partitions < 1 {
		partitions = 1
	}
	batches := make([]*storage.ColumnBatch, partitions)
	for p := range batches {
		batches[p] = storage.NewColumnBatch(schema, (len(rows)+partitions-1-p)/partitions)
	}
	for i, r := range rows {
		if err := batches[i%partitions].AppendRow(r); err != nil {
			return failed(fmt.Errorf("dataflow: FromRows row %d: %w", i, err))
		}
	}
	return batchSource(name, schema, batches)
}

// FromBatches creates a dataset whose partitions are the given batches, one
// partition per batch, adopted without copying — typically the output of an
// earlier CollectBatches. Each batch must have exactly schema and pass
// storage.ValidateBatch; otherwise the dataset fails with ErrBadPlan. The
// batches are read-only from then on: plans over the dataset share their
// column vectors.
func FromBatches(name string, schema *storage.Schema, batches []*storage.ColumnBatch) *Dataset {
	if schema == nil {
		return failed(fmt.Errorf("%w: nil schema", ErrNoSource))
	}
	for i, b := range batches {
		if err := storage.ValidateBatch(b); err != nil {
			return failed(fmt.Errorf("%w: FromBatches batch %d: %v", ErrBadPlan, i, err))
		}
		if !b.Schema().Equal(schema) {
			return failed(fmt.Errorf("%w: FromBatches batch %d has schema %s, want %s", ErrBadPlan, i, b.Schema(), schema))
		}
	}
	return batchSource(name, schema, append([]*storage.ColumnBatch{}, batches...))
}

// ---------------------------------------------------------------------------
// Narrow transformations
// ---------------------------------------------------------------------------

// filterNode keeps the rows fn accepts or, when fn is nil, the rows that are
// null in none of the columns at nonNull (input indices bound at plan time).
type filterNode struct {
	child   planNode
	fn      FilterFunc
	nonNull []int
	desc    string
}

func (n *filterNode) schema() *storage.Schema { return n.child.schema() }
func (n *filterNode) children() []planNode    { return []planNode{n.child} }
func (n *filterNode) label() string           { return "Filter(" + n.desc + ")" }

// Filter keeps the records for which fn returns true. desc is a human-readable
// description used in plan explanations.
func (d *Dataset) Filter(desc string, fn FilterFunc) *Dataset {
	if bad, ok := d.invalid(); ok {
		return bad
	}
	if fn == nil {
		return failed(fmt.Errorf("%w: nil filter function", ErrBadPlan))
	}
	return &Dataset{node: &filterNode{child: d.node, fn: fn, desc: desc}}
}

// FilterNonNull keeps the records that are null in none of the named
// columns; with no columns it keeps every record. The column indices are
// bound here, and the kernel reads only null bitmaps: a batch whose named
// columns carry none passes without a row being visited. desc is a
// human-readable description used in plan explanations.
func (d *Dataset) FilterNonNull(desc string, cols []string) *Dataset {
	if bad, ok := d.invalid(); ok {
		return bad
	}
	schema := d.node.schema()
	indices := make([]int, len(cols))
	for i, c := range cols {
		if indices[i] = schema.IndexOf(c); indices[i] < 0 {
			return failed(fmt.Errorf("%w: FilterNonNull: %w: column %q", ErrBadPlan, storage.ErrUnknownField, c))
		}
	}
	return &Dataset{node: &filterNode{child: d.node, nonNull: indices, desc: desc}}
}

// projectNode keeps only the columns at the given input indices. It is a pure
// column operation: the batch kernel reorders column references without
// touching any cell.
type projectNode struct {
	child   planNode
	out     *storage.Schema
	indices []int
}

func (n *projectNode) schema() *storage.Schema { return n.out }
func (n *projectNode) children() []planNode    { return []planNode{n.child} }
func (n *projectNode) label() string           { return fmt.Sprintf("Project(%v)", n.out.Names()) }

// Project keeps only the named columns, in the given order.
func (d *Dataset) Project(cols ...string) *Dataset {
	if bad, ok := d.invalid(); ok {
		return bad
	}
	out, err := d.node.schema().Project(cols...)
	if err != nil {
		return failed(fmt.Errorf("dataflow: Project: %w", err))
	}
	indices := make([]int, len(cols))
	for i, c := range cols {
		indices[i] = d.node.schema().IndexOf(c)
	}
	return &Dataset{node: &projectNode{child: d.node, out: out, indices: indices}}
}

// withColumnNode appends one derived column computed by a user closure. The
// batch kernel evaluates the closure per row over a batch view and
// writes the results into a fresh typed vector; existing columns are shared,
// never copied.
type withColumnNode struct {
	child planNode
	out   *storage.Schema
	field storage.Field
	fn    ColumnFunc
}

func (n *withColumnNode) schema() *storage.Schema { return n.out }
func (n *withColumnNode) children() []planNode    { return []planNode{n.child} }
func (n *withColumnNode) label() string           { return "WithColumn(" + n.field.Name + ")" }

// WithColumn appends a derived column computed by fn.
func (d *Dataset) WithColumn(field storage.Field, fn ColumnFunc) *Dataset {
	if bad, ok := d.invalid(); ok {
		return bad
	}
	if fn == nil {
		return failed(fmt.Errorf("%w: nil column function", ErrBadPlan))
	}
	out, err := d.node.schema().Append(field)
	if err != nil {
		return failed(fmt.Errorf("dataflow: WithColumn: %w", err))
	}
	return &Dataset{node: &withColumnNode{child: d.node, out: out, field: field, fn: fn}}
}

// mapStringsNode rewrites the string columns at the given input indices
// with fn. It is a typed column operation: the batch kernel builds one fresh
// vector per rewritten column and shares every other column with its input.
type mapStringsNode struct {
	child   planNode
	desc    string
	cols    []string
	indices []int
	fn      func(string) string
}

func (n *mapStringsNode) schema() *storage.Schema { return n.child.schema() }
func (n *mapStringsNode) children() []planNode    { return []planNode{n.child} }
func (n *mapStringsNode) label() string {
	return fmt.Sprintf("MapStrings(%s %v)", n.desc, n.cols)
}

// MapStrings replaces every non-null cell of the named string columns with
// fn of its value. Null cells stay null and fn never sees them; the output
// schema is the input schema. desc describes the rewrite in plan
// explanations. fn must be a pure function: it may be called fewer times
// than there are rows, since a cell equal to the previous non-null cell of
// its column reuses that cell's output.
func (d *Dataset) MapStrings(desc string, cols []string, fn func(string) string) *Dataset {
	if bad, ok := d.invalid(); ok {
		return bad
	}
	if fn == nil || len(cols) == 0 {
		return failed(fmt.Errorf("%w: MapStrings requires columns and a function", ErrBadPlan))
	}
	schema := d.node.schema()
	indices := make([]int, len(cols))
	for i, c := range cols {
		idx := schema.IndexOf(c)
		if idx < 0 {
			return failed(fmt.Errorf("%w: MapStrings: %w: column %q", ErrBadPlan, storage.ErrUnknownField, c))
		}
		if t := schema.Field(idx).Type; t != storage.TypeString {
			return failed(fmt.Errorf("%w: MapStrings: column %q is %s, not string", ErrBadPlan, c, t))
		}
		if slices.Contains(indices[:i], idx) {
			return failed(fmt.Errorf("%w: MapStrings: column %q listed twice", ErrBadPlan, c))
		}
		indices[i] = idx
	}
	return &Dataset{node: &mapStringsNode{
		child: d.node, desc: desc, cols: append([]string(nil), cols...), indices: indices, fn: fn,
	}}
}

// ---------------------------------------------------------------------------
// Wide transformations
// ---------------------------------------------------------------------------

// SortOrder pairs a column with a direction.
type SortOrder struct {
	Column     string
	Descending bool
}

type sortNode struct {
	child  planNode
	orders []SortOrder
}

func (n *sortNode) schema() *storage.Schema { return n.child.schema() }
func (n *sortNode) children() []planNode    { return []planNode{n.child} }
func (n *sortNode) label() string           { return fmt.Sprintf("Sort(%v)", n.orders) }

// Sort orders records by the given columns. Sorting is a global operation:
// the engine either range-partitions the data and sorts the ranges in
// parallel (output partitions are ordered end to end, so their concatenation
// is the fully sorted dataset) or, for small inputs and engines with a single
// shuffle partition, collapses everything into one sorted partition. The
// sort is stable. Each column orders as storage.CompareValues does with
// nulls first (ints and times through their float64 conversions), except
// that floats follow cmp.Compare so the order is total: nulls, then NaN,
// then -Inf … +Inf, with -0 tying +0. A descending column reverses this
// order, so its nulls sort last.
func (d *Dataset) Sort(orders ...SortOrder) *Dataset {
	if bad, ok := d.invalid(); ok {
		return bad
	}
	if len(orders) == 0 {
		return failed(fmt.Errorf("%w: Sort requires at least one order", ErrBadPlan))
	}
	for _, o := range orders {
		if !d.node.schema().Has(o.Column) {
			return failed(fmt.Errorf("%w: sort column %q", storage.ErrUnknownField, o.Column))
		}
	}
	return &Dataset{node: &sortNode{child: d.node, orders: orders}}
}

type joinNode struct {
	left, right        planNode
	leftKey, rightKey  string
	kind               JoinType
	out                *storage.Schema
	rightPrefixedNames []string
}

func (n *joinNode) schema() *storage.Schema { return n.out }
func (n *joinNode) children() []planNode    { return []planNode{n.left, n.right} }
func (n *joinNode) label() string {
	return fmt.Sprintf("Join(%s, %s=%s)", n.kind, n.leftKey, n.rightKey)
}

// Join performs a hash equi-join between d (left) and other (right) on
// leftKey = rightKey. The output schema contains every left column followed by
// every right column; right columns whose names collide with a left column are
// prefixed with "right_".
func (d *Dataset) Join(other *Dataset, leftKey, rightKey string, kind JoinType) *Dataset {
	if bad, ok := d.invalid(); ok {
		return bad
	}
	if bad, ok := other.invalid(); ok {
		return bad
	}
	ls, rs := d.node.schema(), other.node.schema()
	if !ls.Has(leftKey) {
		return failed(fmt.Errorf("%w: join key %q (left)", storage.ErrUnknownField, leftKey))
	}
	if !rs.Has(rightKey) {
		return failed(fmt.Errorf("%w: join key %q (right)", storage.ErrUnknownField, rightKey))
	}
	if kind != InnerJoin && kind != LeftJoin {
		return failed(fmt.Errorf("%w: unsupported join type %v", ErrBadPlan, kind))
	}
	fields := ls.Fields()
	var rightNames []string
	for _, f := range rs.Fields() {
		name := f.Name
		if ls.Has(name) {
			name = "right_" + name
		}
		rightNames = append(rightNames, name)
		nf := f
		nf.Name = name
		nf.Nullable = nf.Nullable || kind == LeftJoin
		fields = append(fields, nf)
	}
	out, err := storage.NewSchema(fields...)
	if err != nil {
		return failed(fmt.Errorf("dataflow: join schema: %w", err))
	}
	return &Dataset{node: &joinNode{
		left: d.node, right: other.node,
		leftKey: leftKey, rightKey: rightKey,
		kind: kind, out: out, rightPrefixedNames: rightNames,
	}}
}

// GroupedDataset is the intermediate result of GroupBy, awaiting aggregations.
type GroupedDataset struct {
	parent *Dataset
	keys   []string
	err    error
}

// GroupBy groups records by the given key columns.
func (d *Dataset) GroupBy(keys ...string) *GroupedDataset {
	if bad, ok := d.invalid(); ok {
		return &GroupedDataset{err: bad.err}
	}
	if len(keys) == 0 {
		return &GroupedDataset{err: fmt.Errorf("%w: GroupBy requires at least one key", ErrBadPlan)}
	}
	for _, k := range keys {
		if !d.node.schema().Has(k) {
			return &GroupedDataset{err: fmt.Errorf("%w: group key %q", storage.ErrUnknownField, k)}
		}
	}
	return &GroupedDataset{parent: d, keys: keys}
}

type groupByNode struct {
	child planNode
	keys  []string
	aggs  []Aggregation
	out   *storage.Schema
}

func (n *groupByNode) schema() *storage.Schema { return n.out }
func (n *groupByNode) children() []planNode    { return []planNode{n.child} }
func (n *groupByNode) label() string {
	return fmt.Sprintf("GroupBy(keys=%v, aggs=%d)", n.keys, len(n.aggs))
}

// Agg applies the given aggregations to each group. The output schema is the
// key columns followed by one column per aggregation.
func (g *GroupedDataset) Agg(aggs ...Aggregation) *Dataset {
	if g.err != nil {
		return failed(g.err)
	}
	if len(aggs) == 0 {
		return failed(fmt.Errorf("%w: Agg requires at least one aggregation", ErrBadPlan))
	}
	in := g.parent.node.schema()
	fields := make([]storage.Field, 0, len(g.keys)+len(aggs))
	for _, k := range g.keys {
		f, err := in.FieldByName(k)
		if err != nil {
			return failed(err)
		}
		fields = append(fields, f)
	}
	for _, a := range aggs {
		if err := a.validate(in); err != nil {
			return failed(err)
		}
		fields = append(fields, storage.Field{Name: a.OutputName(), Type: a.outputType(), Nullable: true})
	}
	out, err := storage.NewSchema(fields...)
	if err != nil {
		return failed(fmt.Errorf("dataflow: aggregation schema: %w", err))
	}
	return &Dataset{node: &groupByNode{child: g.parent.node, keys: g.keys, aggs: aggs, out: out}}
}
