package storage

import (
	"fmt"
	"hash/fnv"
	"sync"
)

// Table is an in-memory, schema-validated collection of rows organised into a
// fixed number of hash partitions. Tables are safe for concurrent appends and
// reads; partition contents are immutable once read through Partition (readers
// receive the live slice, so writers must not run concurrently with the
// dataflow engine — the engine snapshots tables before executing).
type Table struct {
	name       string
	schema     *Schema
	partitions int
	keyField   string // field used for hash partitioning; "" = round robin

	mu     sync.RWMutex
	blocks [][]Row
	nextRR int // next round-robin partition
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
	if t.keyField != "" && !schema.Has(t.keyField) {
		return nil, fmt.Errorf("%w: partition key %q", ErrUnknownField, t.keyField)
	}
	t.blocks = make([][]Row, t.partitions)
	return t, nil
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema.
func (t *Table) Schema() *Schema { return t.schema }

// Partitions returns the number of partitions.
func (t *Table) Partitions() int { return t.partitions }

// Append validates and adds a single row.
func (t *Table) Append(r Row) error {
	if err := ValidateRow(t.schema, r); err != nil {
		return fmt.Errorf("storage: append to %q: %w", t.name, err)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.routeLocked(r)
	t.blocks[p] = append(t.blocks[p], r)
	return nil
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

func (t *Table) routeLocked(r Row) int {
	if t.keyField == "" {
		p := t.nextRR
		t.nextRR = (t.nextRR + 1) % t.partitions
		return p
	}
	idx := t.schema.IndexOf(t.keyField)
	return HashPartition(r[idx], t.partitions)
}

// HashPartition maps a value onto one of n partitions using FNV-1a over the
// value's canonical string form.
func HashPartition(v Value, n int) int {
	if n <= 1 {
		return 0
	}
	h := fnv.New32a()
	_, _ = h.Write([]byte(AsString(v)))
	return int(h.Sum32() % uint32(n))
}

// NumRows returns the total number of rows across partitions.
func (t *Table) NumRows() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := 0
	for _, b := range t.blocks {
		n += len(b)
	}
	return n
}

// Partition returns the rows of partition p. The returned slice must be
// treated as read-only.
func (t *Table) Partition(p int) ([]Row, error) {
	if p < 0 || p >= t.partitions {
		return nil, fmt.Errorf("storage: partition %d out of range [0,%d)", p, t.partitions)
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.blocks[p], nil
}

// Rows returns every row of the table in partition order. The rows are copies
// of the slice headers only; callers must not mutate row contents.
func (t *Table) Rows() []Row {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]Row, 0, 64)
	for _, b := range t.blocks {
		out = append(out, b...)
	}
	return out
}

// Scan invokes fn for every row until fn returns false or rows are exhausted.
func (t *Table) Scan(fn func(Row) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, b := range t.blocks {
		for _, r := range b {
			if !fn(r) {
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
