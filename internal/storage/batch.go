package storage

// batch.go implements the columnar batch layer: a partition of rows stored as
// typed column vectors ([]int64, []float64, []string, []bool) with null
// bitmaps instead of a slice of boxed []any rows. The dataflow engine uses
// ColumnBatch as its internal partition representation when vectorized
// execution is enabled: narrow kernels operate column-at-a-time, user
// closures read cells through zero-copy per-row views (no Row is
// materialised), and the shuffle machinery moves rows by batch index with
// typed copies instead of boxed Row pointers.
//
// A ColumnBatch is append-only while it is being built and read-only once it
// is handed to a consumer. Derived batches (Project, Head) share column
// storage with their parent, so batches must never be mutated after
// construction; every kernel that needs different row content builds a new
// batch (Gather, AppendRow).

import (
	"errors"
	"fmt"
	"math"
	"strconv"
)

// ErrInvalidBatch reports a ColumnBatch that breaks one of the invariants
// ValidateBatch checks.
var ErrInvalidBatch = errors.New("storage: invalid batch")

// nullBitmap records which rows of a column are null, one bit per row. The
// bitmap is grown lazily on the first null, so all-valid columns carry no
// bitmap at all.
type nullBitmap []uint64

// get reports whether bit i is set. Bits beyond the bitmap's length read as
// zero, which is how lazily-grown bitmaps encode trailing non-null rows.
func (m nullBitmap) get(i int) bool {
	w := i >> 6
	return w < len(m) && m[w]&(1<<(uint(i)&63)) != 0
}

// anyBelow reports whether any of bits [0, n) is set.
func (m nullBitmap) anyBelow(n int) bool {
	full := n >> 6
	for w := 0; w < full && w < len(m); w++ {
		if m[w] != 0 {
			return true
		}
	}
	if rem := uint(n) & 63; rem != 0 && full < len(m) {
		return m[full]&(1<<rem-1) != 0
	}
	return false
}

// set marks bit i, growing the bitmap as needed.
func (m *nullBitmap) set(i int) {
	w := i >> 6
	for len(*m) <= w {
		*m = append(*m, 0)
	}
	(*m)[w] |= 1 << (uint(i) & 63)
}

// Column is one typed vector of a ColumnBatch. Exactly one of the value
// slices is in use, selected by the column's field type (TypeTime shares the
// int64 vector).
//
// String columns decoded from v2 spill frames (frame.go) additionally carry
// the frame's sorted unique-value dictionary and the per-row codes into it:
// strs[i] == dict[codes[i]], dict is strictly ascending, so within one frame
// code equality is string equality and code order is string order. Operators
// use this for code-based fast paths (group-by, distinct); dictionaries from
// different frames are unrelated, so codes must never be compared across
// columns of different frames. Builder-constructed columns have no
// dictionary, and the read-only-after-construction contract keeps
// dict/codes consistent with strs.
type Column struct {
	typ    FieldType
	ints   []int64
	floats []float64
	strs   []string
	bools  []bool
	nulls  nullBitmap
	dict   []string
	codes  []uint32
}

// Type returns the column's field type.
func (c *Column) Type() FieldType { return c.typ }

// Dict returns the column's sorted per-frame dictionary, or nil when the
// column is not dictionary-backed. Read-only.
func (c *Column) Dict() []string { return c.dict }

// Codes returns the per-row dictionary codes of a dictionary-backed column
// (nil otherwise). Only indices below the owning batch's Len are meaningful —
// Head views share longer parent vectors. Read-only.
func (c *Column) Codes() []uint32 { return c.codes }

// Null reports whether row i of the column is null.
func (c *Column) Null(i int) bool { return c.nulls.get(i) }

// HasNulls reports whether the column carries a null bitmap at all. False
// guarantees every row is non-null; true only means some row may be (the
// bitmap is allocated on the first null and never dropped).
func (c *Column) HasNulls() bool { return len(c.nulls) > 0 }

// Int returns row i of an int/time column (0 when null).
func (c *Column) Int(i int) int64 { return c.ints[i] }

// Float returns row i of a float column (0 when null).
func (c *Column) Float(i int) float64 { return c.floats[i] }

// Str returns row i of a string column ("" when null).
func (c *Column) Str(i int) string { return c.strs[i] }

// Bool returns row i of a bool column (false when null).
func (c *Column) Bool(i int) bool { return c.bools[i] }

// Value returns row i as a boxed dynamic value (nil when null). Kernels avoid
// this accessor on hot paths: boxing a float64 or a string allocates.
func (c *Column) Value(i int) Value {
	if c.nulls.get(i) {
		return nil
	}
	switch c.typ {
	case TypeInt, TypeTime:
		return c.ints[i]
	case TypeFloat:
		return c.floats[i]
	case TypeString:
		return c.strs[i]
	case TypeBool:
		return c.bools[i]
	default:
		return nil
	}
}

// appendNull appends a null cell at row n.
func (c *Column) appendNull(n int) {
	c.nulls.set(n)
	switch c.typ {
	case TypeInt, TypeTime:
		c.ints = append(c.ints, 0)
	case TypeFloat:
		c.floats = append(c.floats, 0)
	case TypeString:
		c.strs = append(c.strs, "")
	case TypeBool:
		c.bools = append(c.bools, false)
	}
}

// append appends a boxed value at row n, asserting the exact dynamic type the
// schema demands (the same contract ValidateRow enforces on rows).
func (c *Column) append(f Field, v Value, n int) error {
	if v == nil {
		if !f.Nullable {
			return fmt.Errorf("storage: field %q is not nullable", f.Name)
		}
		c.appendNull(n)
		return nil
	}
	switch c.typ {
	case TypeInt, TypeTime:
		x, ok := v.(int64)
		if !ok {
			return fmt.Errorf("%w: field %q expects %s, got %T", ErrTypeMismatch, f.Name, f.Type, v)
		}
		c.ints = append(c.ints, x)
	case TypeFloat:
		x, ok := v.(float64)
		if !ok {
			return fmt.Errorf("%w: field %q expects %s, got %T", ErrTypeMismatch, f.Name, f.Type, v)
		}
		c.floats = append(c.floats, x)
	case TypeString:
		x, ok := v.(string)
		if !ok {
			return fmt.Errorf("%w: field %q expects %s, got %T", ErrTypeMismatch, f.Name, f.Type, v)
		}
		c.strs = append(c.strs, x)
	case TypeBool:
		x, ok := v.(bool)
		if !ok {
			return fmt.Errorf("%w: field %q expects %s, got %T", ErrTypeMismatch, f.Name, f.Type, v)
		}
		c.bools = append(c.bools, x)
	default:
		return fmt.Errorf("%w: field %q has unsupported type %s", ErrTypeMismatch, f.Name, f.Type)
	}
	return nil
}

// appendFrom appends row i of src (a column of the same type) at row n.
func (c *Column) appendFrom(src *Column, i, n int) {
	if src.nulls.get(i) {
		c.appendNull(n)
		return
	}
	switch c.typ {
	case TypeInt, TypeTime:
		c.ints = append(c.ints, src.ints[i])
	case TypeFloat:
		c.floats = append(c.floats, src.floats[i])
	case TypeString:
		c.strs = append(c.strs, src.strs[i])
	case TypeBool:
		c.bools = append(c.bools, src.bools[i])
	}
}

// appendGather appends the selected rows of src (a column of the same type)
// in selection order, with the type dispatch hoisted out of the row loop;
// dstStart is the destination row index of sel's first row. Columns without
// nulls take a tight typed copy loop; columns with nulls fall back to the
// per-cell copy, which maintains the destination bitmap.
func (c *Column) appendGather(src *Column, sel []int32, dstStart int) {
	if len(src.nulls) == 0 {
		switch c.typ {
		case TypeInt, TypeTime:
			for _, i := range sel {
				c.ints = append(c.ints, src.ints[i])
			}
		case TypeFloat:
			for _, i := range sel {
				c.floats = append(c.floats, src.floats[i])
			}
		case TypeString:
			for _, i := range sel {
				c.strs = append(c.strs, src.strs[i])
			}
		case TypeBool:
			for _, i := range sel {
				c.bools = append(c.bools, src.bools[i])
			}
		}
		return
	}
	for j, i := range sel {
		c.appendFrom(src, int(i), dstStart+j)
	}
}

// appendRange appends rows [lo, hi) of src (a column of the same type) at
// row dstStart: one slice copy per column when src has no nulls, the per-cell
// copy otherwise.
func (c *Column) appendRange(src *Column, lo, hi, dstStart int) {
	if len(src.nulls) == 0 {
		switch c.typ {
		case TypeInt, TypeTime:
			c.ints = append(c.ints, src.ints[lo:hi]...)
		case TypeFloat:
			c.floats = append(c.floats, src.floats[lo:hi]...)
		case TypeString:
			c.strs = append(c.strs, src.strs[lo:hi]...)
		case TypeBool:
			c.bools = append(c.bools, src.bools[lo:hi]...)
		}
		return
	}
	for i := lo; i < hi; i++ {
		c.appendFrom(src, i, dstStart+i-lo)
	}
}

// valueLen returns the length of the column's value vector.
func (c *Column) valueLen() int {
	switch c.typ {
	case TypeInt, TypeTime:
		return len(c.ints)
	case TypeFloat:
		return len(c.floats)
	case TypeString:
		return len(c.strs)
	case TypeBool:
		return len(c.bools)
	default:
		return 0
	}
}

// grow pre-sizes the column's value vector for capacity rows.
func (c *Column) grow(capacity int) {
	switch c.typ {
	case TypeInt, TypeTime:
		c.ints = make([]int64, 0, capacity)
	case TypeFloat:
		c.floats = make([]float64, 0, capacity)
	case TypeString:
		c.strs = make([]string, 0, capacity)
	case TypeBool:
		c.bools = make([]bool, 0, capacity)
	}
}

// ColumnBatch is one partition of rows in columnar form: a schema plus one
// typed Column per field.
type ColumnBatch struct {
	schema *Schema
	cols   []Column
	n      int
}

// NewColumnBatch returns an empty batch over schema with capacity rows
// pre-allocated per column.
func NewColumnBatch(schema *Schema, capacity int) *ColumnBatch {
	b := &ColumnBatch{schema: schema, cols: make([]Column, schema.Len())}
	for i := range b.cols {
		b.cols[i].typ = schema.Field(i).Type
		if capacity > 0 {
			b.cols[i].grow(capacity)
		}
	}
	return b
}

// BatchFromRows converts boxed rows into a columnar batch, validating each
// row against the schema exactly as ValidateRow would (arity, per-field
// dynamic type, nullability).
func BatchFromRows(schema *Schema, rows []Row) (*ColumnBatch, error) {
	b := NewColumnBatch(schema, len(rows))
	for i, r := range rows {
		if err := b.AppendRow(r); err != nil {
			return nil, fmt.Errorf("storage: batch row %d: %w", i, err)
		}
	}
	return b, nil
}

// Schema returns the batch schema.
func (b *ColumnBatch) Schema() *Schema { return b.schema }

// Len returns the number of rows in the batch.
func (b *ColumnBatch) Len() int { return b.n }

// Width returns the number of columns.
func (b *ColumnBatch) Width() int { return len(b.cols) }

// Column returns column c. The returned pointer shares the batch's storage
// and must be treated as read-only.
func (b *ColumnBatch) Column(c int) *Column { return &b.cols[c] }

// AppendRow appends a boxed row, enforcing the schema contract (the same
// errors ValidateRow reports: arity, field type, nullability). Unboxing into
// the typed vectors is the validation — mismatched rows cannot be stored.
func (b *ColumnBatch) AppendRow(r Row) error {
	if len(r) != b.schema.Len() {
		return fmt.Errorf("storage: row has %d values, schema has %d fields", len(r), b.schema.Len())
	}
	for i := range b.cols {
		if err := b.cols[i].append(b.schema.Field(i), r[i], b.n); err != nil {
			return err
		}
	}
	b.n++
	return nil
}

// AppendRowFrom appends row i of src, a batch with an identical column
// layout, using typed copies (no boxing).
func (b *ColumnBatch) AppendRowFrom(src *ColumnBatch, i int) {
	for c := range b.cols {
		b.cols[c].appendFrom(&src.cols[c], i, b.n)
	}
	b.n++
}

// AppendGather appends the selected rows of src, a batch with an identical
// column layout, in selection order. It is AppendRowFrom amortised over a
// selection vector: the per-column type dispatch runs once per (column,
// selection) instead of once per cell — the shuffle gather's hot path.
func (b *ColumnBatch) AppendGather(src *ColumnBatch, sel []int32) {
	for c := range b.cols {
		b.cols[c].appendGather(&src.cols[c], sel, b.n)
	}
	b.n += len(sel)
}

// AppendRange appends rows [lo, hi) of src, a batch with an identical column
// layout, with typed range copies (no boxing, no selection vector).
func (b *ColumnBatch) AppendRange(src *ColumnBatch, lo, hi int) {
	for c := range b.cols {
		b.cols[c].appendRange(&src.cols[c], lo, hi, b.n)
	}
	b.n += hi - lo
}

// AppendJoined appends the concatenation of row li of left and row ri of
// right; the batch's leading columns must match left's layout and the
// trailing columns right's. It is the typed emit path of the vectorized hash
// join.
func (b *ColumnBatch) AppendJoined(left *ColumnBatch, li int, right *ColumnBatch, ri int) {
	lw := len(left.cols)
	for c := range left.cols {
		b.cols[c].appendFrom(&left.cols[c], li, b.n)
	}
	for c := range right.cols {
		b.cols[lw+c].appendFrom(&right.cols[c], ri, b.n)
	}
	b.n++
}

// AppendNullExtended appends row li of left followed by nulls for the
// remaining columns — the unmatched-row emit path of a vectorized left join.
func (b *ColumnBatch) AppendNullExtended(left *ColumnBatch, li int) {
	lw := len(left.cols)
	for c := range left.cols {
		b.cols[c].appendFrom(&left.cols[c], li, b.n)
	}
	for c := lw; c < len(b.cols); c++ {
		b.cols[c].appendNull(b.n)
	}
	b.n++
}

// Value returns cell (row, col) as a boxed value (nil when null).
func (b *ColumnBatch) Value(row, col int) Value {
	if col < 0 || col >= len(b.cols) {
		return nil
	}
	return b.cols[col].Value(row)
}

// NullAt reports whether cell (row, col) is null (or col is out of range).
func (b *ColumnBatch) NullAt(row, col int) bool {
	if col < 0 || col >= len(b.cols) {
		return true
	}
	return b.cols[col].Null(row)
}

// FloatAt converts cell (row, col) to float64 with AsFloat semantics, reading
// the typed vector directly (no boxing).
func (b *ColumnBatch) FloatAt(row, col int) (float64, bool) {
	if col < 0 || col >= len(b.cols) {
		return 0, false
	}
	c := &b.cols[col]
	if c.nulls.get(row) {
		return 0, false
	}
	switch c.typ {
	case TypeFloat:
		return c.floats[row], true
	case TypeInt, TypeTime:
		return float64(c.ints[row]), true
	case TypeBool:
		if c.bools[row] {
			return 1, true
		}
		return 0, true
	case TypeString:
		f, err := strconv.ParseFloat(c.strs[row], 64)
		if err != nil {
			return 0, false
		}
		return f, true
	default:
		return 0, false
	}
}

// IntAt converts cell (row, col) to int64 with AsInt semantics, reading the
// typed vector directly.
func (b *ColumnBatch) IntAt(row, col int) (int64, bool) {
	if col < 0 || col >= len(b.cols) {
		return 0, false
	}
	c := &b.cols[col]
	if c.nulls.get(row) {
		return 0, false
	}
	switch c.typ {
	case TypeInt, TypeTime:
		return c.ints[row], true
	case TypeFloat:
		f := c.floats[row]
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return 0, false
		}
		return int64(f), true
	case TypeBool:
		if c.bools[row] {
			return 1, true
		}
		return 0, true
	case TypeString:
		i, err := strconv.ParseInt(c.strs[row], 10, 64)
		if err != nil {
			return 0, false
		}
		return i, true
	default:
		return 0, false
	}
}

// BoolAt converts cell (row, col) to bool with AsBool semantics.
func (b *ColumnBatch) BoolAt(row, col int) (bool, bool) {
	if col < 0 || col >= len(b.cols) {
		return false, false
	}
	c := &b.cols[col]
	if c.nulls.get(row) {
		return false, false
	}
	switch c.typ {
	case TypeBool:
		return c.bools[row], true
	case TypeInt, TypeTime:
		return c.ints[row] != 0, true
	case TypeFloat:
		return c.floats[row] != 0, true
	case TypeString:
		v, err := strconv.ParseBool(c.strs[row])
		if err != nil {
			return false, false
		}
		return v, true
	default:
		return false, false
	}
}

// StringAt converts cell (row, col) to a string with AsString semantics (""
// when null). Only string columns are read zero-copy; other types format.
func (b *ColumnBatch) StringAt(row, col int) string {
	if col < 0 || col >= len(b.cols) {
		return ""
	}
	c := &b.cols[col]
	if c.nulls.get(row) {
		return ""
	}
	switch c.typ {
	case TypeString:
		return c.strs[row]
	case TypeInt, TypeTime:
		return strconv.FormatInt(c.ints[row], 10)
	case TypeFloat:
		return strconv.FormatFloat(c.floats[row], 'g', -1, 64)
	case TypeBool:
		return strconv.FormatBool(c.bools[row])
	default:
		return ""
	}
}

// Row materialises row i as a boxed Row.
func (b *ColumnBatch) Row(i int) Row {
	r := make(Row, len(b.cols))
	for c := range b.cols {
		r[c] = b.cols[c].Value(i)
	}
	return r
}

// Rows materialises every row. All cells share one backing array, so the
// conversion costs one slice allocation plus the boxing of non-null numeric
// cells rather than one allocation per row.
func (b *ColumnBatch) Rows() []Row {
	if b.n == 0 {
		return nil
	}
	w := len(b.cols)
	backing := make([]Value, b.n*w)
	out := make([]Row, b.n)
	for i := 0; i < b.n; i++ {
		row := backing[i*w : (i+1)*w : (i+1)*w]
		for c := range b.cols {
			row[c] = b.cols[c].Value(i)
		}
		out[i] = row
	}
	return out
}

// Gather builds a new batch holding the selected rows, in selection order,
// with typed copies (no boxing). It materialises a selection vector.
func (b *ColumnBatch) Gather(sel []int32) *ColumnBatch {
	out := NewColumnBatch(b.schema, len(sel))
	out.AppendGather(b, sel)
	return out
}

// ProjectCols returns a batch exposing only the given columns (by index)
// under the projected schema. Column storage is shared with the parent — the
// projection itself copies and boxes nothing.
func (b *ColumnBatch) ProjectCols(out *Schema, indices []int) *ColumnBatch {
	cols := make([]Column, len(indices))
	for i, idx := range indices {
		cols[i] = b.cols[idx]
	}
	return &ColumnBatch{schema: out, cols: cols, n: b.n}
}

// WithAppendedColumn returns a batch over out (= b's schema plus one field)
// whose trailing column is col; the existing columns are shared, not copied.
func (b *ColumnBatch) WithAppendedColumn(out *Schema, col Column) *ColumnBatch {
	cols := make([]Column, len(b.cols)+1)
	copy(cols, b.cols)
	cols[len(b.cols)] = col
	return &ColumnBatch{schema: out, cols: cols, n: b.n}
}

// Head returns a view of the first k rows (k is clamped to Len). The view
// shares column storage with b.
func (b *ColumnBatch) Head(k int) *ColumnBatch {
	if k >= b.n {
		return b
	}
	if k < 0 {
		k = 0
	}
	return &ColumnBatch{schema: b.schema, cols: b.cols, n: k}
}

// NewColumnBuilder returns an empty column of the given type with capacity
// rows pre-allocated, for kernels that compute a derived column.
func NewColumnBuilder(t FieldType, capacity int) Column {
	c := Column{typ: t}
	c.grow(capacity)
	return c
}

// Gather returns a new column holding the selected rows of c, in selection
// order, with typed copies — the one-column counterpart of
// ColumnBatch.Gather.
func (c *Column) Gather(sel []int32) Column {
	out := NewColumnBuilder(c.typ, len(sel))
	out.appendGather(c, sel, 0)
	return out
}

// AppendValue appends a boxed value to the column under field f's contract;
// row n must be the column's current length.
func (c *Column) AppendValue(f Field, v Value, n int) error { return c.append(f, v, n) }

// Typed appends for kernels that build a column without boxing. Like
// appendFrom they trust the caller to match the column's type; mismatches are
// the builder's bug, not a data error, so there is no per-call validation.

// AppendInt appends v to an int/time column.
func (c *Column) AppendInt(v int64) { c.ints = append(c.ints, v) }

// AppendFloat appends v to a float column.
func (c *Column) AppendFloat(v float64) { c.floats = append(c.floats, v) }

// AppendStr appends v to a string column.
func (c *Column) AppendStr(v string) { c.strs = append(c.strs, v) }

// AppendBool appends v to a bool column.
func (c *Column) AppendBool(v bool) { c.bools = append(c.bools, v) }

// AppendNull appends a null cell; n must be the column's current length.
func (c *Column) AppendNull(n int) { c.appendNull(n) }

// BatchOfColumns assembles a batch over schema from externally built columns
// of n rows each. Column storage is adopted, not copied — the caller must not
// mutate the columns afterwards. Per-column types are verified against the
// schema; row counts and nullability are the caller's contract (columns built
// with the typed Append helpers or shared from another batch of n rows
// satisfy it), which ValidateBatch checks wherever a batch is adopted from
// outside the engine.
func BatchOfColumns(schema *Schema, n int, cols []Column) (*ColumnBatch, error) {
	if schema == nil {
		return nil, fmt.Errorf("%w: batch needs a schema", ErrEmptySchema)
	}
	if len(cols) != schema.Len() {
		return nil, fmt.Errorf("storage: batch has %d columns, schema %s has %d", len(cols), schema, schema.Len())
	}
	for i := range cols {
		if want := schema.Field(i).Type; cols[i].typ != want {
			return nil, fmt.Errorf("%w: column %d is %s, schema expects %s", ErrTypeMismatch, i, cols[i].typ, want)
		}
	}
	return &ColumnBatch{schema: schema, cols: cols, n: n}, nil
}

// ValidateBatch checks the invariants every consumer of a ColumnBatch relies
// on, and reports the first one b breaks, wrapping ErrInvalidBatch:
//   - the batch has one column per schema field, of the field's type;
//   - every value vector holds at least Len values (a Head view shares
//     longer vectors, so longer is allowed);
//   - no non-nullable field has a null in rows [0, Len);
//   - a dictionary-backed column keeps its stated invariant: the dictionary
//     is strictly ascending, every code in [0, Len) is in range, and
//     strs[i] == dict[codes[i]].
//
// Builders that go through AppendRow cannot break these; batches assembled
// from external columns (BatchOfColumns, adopted engine output) can.
func ValidateBatch(b *ColumnBatch) error {
	if b == nil {
		return fmt.Errorf("%w: nil batch", ErrInvalidBatch)
	}
	if b.schema == nil {
		return fmt.Errorf("%w: batch has no schema", ErrInvalidBatch)
	}
	if len(b.cols) != b.schema.Len() {
		return fmt.Errorf("%w: %d columns, schema %s has %d", ErrInvalidBatch, len(b.cols), b.schema, b.schema.Len())
	}
	n := b.n
	if n < 0 {
		return fmt.Errorf("%w: negative row count %d", ErrInvalidBatch, n)
	}
	for i := range b.cols {
		f, c := b.schema.Field(i), &b.cols[i]
		if c.typ != f.Type {
			return fmt.Errorf("%w: column %q is %s, schema expects %s", ErrInvalidBatch, f.Name, c.typ, f.Type)
		}
		if l := c.valueLen(); l < n {
			return fmt.Errorf("%w: column %q holds %d values, batch has %d rows", ErrInvalidBatch, f.Name, l, n)
		}
		if !f.Nullable && c.nulls.anyBelow(n) {
			return fmt.Errorf("%w: non-nullable column %q holds a null", ErrInvalidBatch, f.Name)
		}
		if c.dict == nil && c.codes == nil {
			continue
		}
		if c.typ != TypeString {
			return fmt.Errorf("%w: %s column %q carries a dictionary", ErrInvalidBatch, c.typ, f.Name)
		}
		for k := 1; k < len(c.dict); k++ {
			if c.dict[k] <= c.dict[k-1] {
				return fmt.Errorf("%w: column %q dictionary not strictly ascending at entry %d", ErrInvalidBatch, f.Name, k)
			}
		}
		if len(c.codes) < n {
			return fmt.Errorf("%w: column %q holds %d codes, batch has %d rows", ErrInvalidBatch, f.Name, len(c.codes), n)
		}
		for r, code := range c.codes[:n] {
			if int(code) >= len(c.dict) {
				return fmt.Errorf("%w: column %q row %d code %d outside its %d-entry dictionary", ErrInvalidBatch, f.Name, r, code, len(c.dict))
			}
			if c.strs[r] != c.dict[code] {
				return fmt.Errorf("%w: column %q row %d differs from its dictionary entry", ErrInvalidBatch, f.Name, r)
			}
		}
	}
	return nil
}
