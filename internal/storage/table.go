package storage

import (
	"fmt"
	"slices"
	"sync"
)

// Table is an in-memory, schema-validated table organised into a fixed
// number of partitions, each held as one growing ColumnBatch. Append
// validates a boxed row and unboxes it into its partition's typed columns;
// AppendBatch copies a batch's rows in with typed copies. Snapshot hands the
// dataflow engine the partitions as read-only batches in O(partitions), and
// later appends never change a snapshot. Partition, Rows and Scan box rows
// for row-shaped callers. Tables are safe for concurrent appends and reads.
type Table struct {
	name       string
	schema     *Schema
	partitions int
	keyField   string // field used for hash partitioning; "" = round robin
	keyIdx     int    // keyField's index, -1 for round robin

	mu     sync.RWMutex
	parts  []*ColumnBatch
	shared []bool // parts[p]'s storage is visible to a snapshot
	nextRR int    // next round-robin partition
}

// TableOption configures table construction.
type TableOption func(*Table)

// WithPartitions sets the number of hash partitions (default 4, minimum 1).
func WithPartitions(n int) TableOption {
	return func(t *Table) {
		if n >= 1 {
			t.partitions = n
		}
	}
}

// WithPartitionKey selects the field used to route rows to partitions. Rows
// are hash-partitioned on the field's string representation. When unset, rows
// are distributed round-robin.
func WithPartitionKey(field string) TableOption {
	return func(t *Table) { t.keyField = field }
}

// NewTable creates an empty table with the given name and schema.
func NewTable(name string, schema *Schema, opts ...TableOption) (*Table, error) {
	if name == "" {
		return nil, fmt.Errorf("storage: table name must not be empty")
	}
	if schema == nil || schema.Len() == 0 {
		return nil, ErrEmptySchema
	}
	t := &Table{
		name:       name,
		schema:     schema,
		partitions: 4,
	}
	for _, opt := range opts {
		opt(t)
	}
	t.keyIdx = -1
	if t.keyField != "" {
		if t.keyIdx = schema.IndexOf(t.keyField); t.keyIdx < 0 {
			return nil, fmt.Errorf("%w: partition key %q", ErrUnknownField, t.keyField)
		}
	}
	t.parts = make([]*ColumnBatch, t.partitions)
	for p := range t.parts {
		t.parts[p] = NewColumnBatch(schema, 0)
	}
	t.shared = make([]bool, t.partitions)
	return t, nil
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema.
func (t *Table) Schema() *Schema { return t.schema }

// Partitions returns the number of partitions.
func (t *Table) Partitions() int { return t.partitions }

// Append validates and adds a single row. A rejected row leaves the table
// unchanged.
func (t *Table) Append(r Row) error {
	if err := ValidateRow(t.schema, r); err != nil {
		return fmt.Errorf("storage: append to %q: %w", t.name, err)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.routeLocked(func() string { return AsString(r[t.keyIdx]) })
	// AppendRow checks the contract ValidateRow has just passed, so it cannot
	// fail half-way through the row.
	return t.writableLocked(p).AppendRow(r)
}

// AppendAll validates and adds a batch of rows; it stops at the first invalid
// row and reports how many rows were appended.
func (t *Table) AppendAll(rows []Row) (int, error) {
	for i, r := range rows {
		if err := t.Append(r); err != nil {
			return i, err
		}
	}
	return len(rows), nil
}

// AppendBatch adds every row of b, whose schema must equal the table's, with
// typed copies (no boxing). Each row lands in the partition Append would
// route it to. b is validated first, so a rejected batch leaves the table
// unchanged.
func (t *Table) AppendBatch(b *ColumnBatch) error {
	if err := ValidateBatch(b); err != nil {
		return fmt.Errorf("storage: append to %q: %w", t.name, err)
	}
	if !b.schema.Equal(t.schema) {
		return fmt.Errorf("%w: append to %q: batch schema %s, table schema %s", ErrTypeMismatch, t.name, b.schema, t.schema)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := 0; i < b.n; i++ {
		p := t.routeLocked(func() string { return b.StringAt(i, t.keyIdx) })
		t.writableLocked(p).AppendRowFrom(b, i)
	}
	return nil
}

// routeLocked picks the next row's partition: round robin, or the hash of the
// row's partition-key cell, whose canonical string form key returns.
func (t *Table) routeLocked(key func() string) int {
	if t.keyIdx < 0 {
		p := t.nextRR
		t.nextRR = (t.nextRR + 1) % t.partitions
		return p
	}
	return hashPartition(key(), t.partitions)
}

// writableLocked returns partition p's batch, ready for an append. A snapshot
// shares the partition's column storage. Appends only ever write value
// vectors past the snapshot's length, but one null-bitmap word covers 64
// rows, so a snapshotted partition gets its own bitmaps before it grows.
func (t *Table) writableLocked(p int) *ColumnBatch {
	b := t.parts[p]
	if t.shared[p] {
		for c := range b.cols {
			b.cols[c].nulls = slices.Clone(b.cols[c].nulls)
		}
		t.shared[p] = false
	}
	return b
}

// HashPartition maps a value onto one of n partitions using FNV-1a over the
// value's canonical string form.
func HashPartition(v Value, n int) int { return hashPartition(AsString(v), n) }

// hashPartition is HashPartition over a value's canonical string form: the
// 32-bit FNV-1a hash of s, modulo n.
func hashPartition(s string, n int) int {
	if n <= 1 {
		return 0
	}
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return int(h % uint32(n))
}

// Snapshot returns the table's partitions as read-only batches, one per
// partition, in O(partitions): they share column storage with the table, and
// later appends never change them.
func (t *Table) Snapshot() []*ColumnBatch {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*ColumnBatch, len(t.parts))
	for p, b := range t.parts {
		// Copy the column headers: the live batch's grow under later appends.
		out[p] = &ColumnBatch{schema: b.schema, cols: slices.Clone(b.cols), n: b.n}
		t.shared[p] = true
	}
	return out
}

// NumRows returns the total number of rows across partitions.
func (t *Table) NumRows() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := 0
	for _, b := range t.parts {
		n += b.Len()
	}
	return n
}

// Partition returns the rows of partition p, boxed.
func (t *Table) Partition(p int) ([]Row, error) {
	if p < 0 || p >= t.partitions {
		return nil, fmt.Errorf("storage: partition %d out of range [0,%d)", p, t.partitions)
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.parts[p].Rows(), nil
}

// Rows returns every row of the table in partition order, boxed.
func (t *Table) Rows() []Row {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := 0
	for _, b := range t.parts {
		n += b.Len()
	}
	out := make([]Row, 0, n)
	for _, b := range t.parts {
		out = append(out, b.Rows()...)
	}
	return out
}

// Scan invokes fn for every row, boxed, in partition order until fn returns
// false or rows are exhausted.
func (t *Table) Scan(fn func(Row) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, b := range t.parts {
		for i := 0; i < b.Len(); i++ {
			if !fn(b.Row(i)) {
				return
			}
		}
	}
}

// Catalog is a registry of named tables, mirroring the data-source registry of
// the TOREADOR platform.
type Catalog struct {
	mu     sync.RWMutex
	tables map[string]*Table
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{tables: make(map[string]*Table)}
}

// Register adds a table to the catalog. Registering a name twice is an error.
func (c *Catalog) Register(t *Table) error {
	if t == nil {
		return fmt.Errorf("storage: cannot register nil table")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.tables[t.Name()]; exists {
		return fmt.Errorf("storage: table %q already registered", t.Name())
	}
	c.tables[t.Name()] = t
	return nil
}

// Replace registers or overwrites a table.
func (c *Catalog) Replace(t *Table) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tables[t.Name()] = t
}

// Lookup returns the named table.
func (c *Catalog) Lookup(name string) (*Table, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[name]
	if !ok {
		return nil, fmt.Errorf("storage: table %q not found", name)
	}
	return t, nil
}

// Names returns the registered table names (unordered).
func (c *Catalog) Names() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.tables))
	for n := range c.tables {
		out = append(out, n)
	}
	return out
}
