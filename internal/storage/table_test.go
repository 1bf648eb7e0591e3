package storage

import (
	"hash/fnv"
	"sync"
	"testing"
	"testing/quick"
)

func newPeopleTable(t *testing.T, opts ...TableOption) *Table {
	t.Helper()
	tbl, err := NewTable("people", testSchema(t), opts...)
	if err != nil {
		t.Fatalf("NewTable: %v", err)
	}
	return tbl
}

func TestNewTableValidation(t *testing.T) {
	if _, err := NewTable("", testSchema(t)); err == nil {
		t.Error("empty table name must fail")
	}
	if _, err := NewTable("x", nil); err == nil {
		t.Error("nil schema must fail")
	}
	if _, err := NewTable("x", testSchema(t), WithPartitionKey("missing")); err == nil {
		t.Error("unknown partition key must fail")
	}
}

func TestTableAppendAndScan(t *testing.T) {
	tbl := newPeopleTable(t)
	rows := []Row{
		{int64(1), "alice", 10.0, true, int64(1000)},
		{int64(2), "bob", 20.0, nil, int64(2000)},
		{int64(3), "carol", 30.0, false, int64(3000)},
	}
	n, err := tbl.AppendAll(rows)
	if err != nil || n != 3 {
		t.Fatalf("AppendAll = %d, %v", n, err)
	}
	if tbl.NumRows() != 3 {
		t.Fatalf("NumRows = %d, want 3", tbl.NumRows())
	}
	seen := 0
	tbl.Scan(func(r Row) bool { seen++; return true })
	if seen != 3 {
		t.Errorf("Scan visited %d rows, want 3", seen)
	}
	seen = 0
	tbl.Scan(func(r Row) bool { seen++; return false })
	if seen != 1 {
		t.Errorf("Scan with early stop visited %d rows, want 1", seen)
	}
}

func TestTableAppendRejectsBadRows(t *testing.T) {
	tbl := newPeopleTable(t)
	n, err := tbl.AppendAll([]Row{
		{int64(1), "alice", 10.0, true, int64(1000)},
		{"bad", "bob", 20.0, nil, int64(2000)},
	})
	if err == nil {
		t.Fatal("AppendAll must fail on the invalid row")
	}
	if n != 1 || tbl.NumRows() != 1 {
		t.Errorf("appended = %d rows (table has %d), want 1", n, tbl.NumRows())
	}
}

func TestTableHashPartitioning(t *testing.T) {
	tbl := newPeopleTable(t, WithPartitions(3), WithPartitionKey("name"))
	names := []string{"alice", "bob", "carol", "alice", "alice", "dave"}
	for i, n := range names {
		if err := tbl.Append(Row{int64(i), n, 1.0, true, int64(0)}); err != nil {
			t.Fatal(err)
		}
	}
	// All rows with the same key must land in the same partition.
	byName := map[string]int{}
	for p := 0; p < tbl.Partitions(); p++ {
		rows, err := tbl.Partition(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			name := r[1].(string)
			if prev, ok := byName[name]; ok && prev != p {
				t.Errorf("key %q split across partitions %d and %d", name, prev, p)
			}
			byName[name] = p
		}
	}
	if tbl.NumRows() != len(names) {
		t.Errorf("NumRows = %d, want %d", tbl.NumRows(), len(names))
	}
	if _, err := tbl.Partition(99); err == nil {
		t.Error("out-of-range partition must fail")
	}
}

func TestTableRoundRobinSpreadsRows(t *testing.T) {
	tbl := newPeopleTable(t, WithPartitions(4))
	for i := 0; i < 8; i++ {
		if err := tbl.Append(Row{int64(i), "x", 1.0, true, int64(0)}); err != nil {
			t.Fatal(err)
		}
	}
	for p := 0; p < 4; p++ {
		rows, _ := tbl.Partition(p)
		if len(rows) != 2 {
			t.Errorf("partition %d has %d rows, want 2", p, len(rows))
		}
	}
}

func TestTableConcurrentAppend(t *testing.T) {
	tbl := newPeopleTable(t, WithPartitions(4), WithPartitionKey("name"))
	var wg sync.WaitGroup
	const writers = 8
	const perWriter = 200
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				_ = tbl.Append(Row{int64(w*1000 + i), "writer", 1.0, true, int64(0)})
			}
		}(w)
	}
	wg.Wait()
	if got := tbl.NumRows(); got != writers*perWriter {
		t.Fatalf("NumRows = %d, want %d", got, writers*perWriter)
	}
}

func TestHashPartitionProperties(t *testing.T) {
	// Property: HashPartition always returns a value in [0, n), is
	// deterministic, and is hash/fnv's 32-bit FNV-1a modulo n (partition
	// contents, and so plan output order, depend on the routing).
	f := func(key string, n uint8) bool {
		parts := int(n%16) + 1
		p1 := HashPartition(key, parts)
		p2 := HashPartition(key, parts)
		h := fnv.New32a()
		h.Write([]byte(key))
		return p1 == p2 && p1 == int(h.Sum32()%uint32(parts))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if HashPartition("anything", 1) != 0 {
		t.Error("single partition must always map to 0")
	}
	if HashPartition("anything", 0) != 0 {
		t.Error("degenerate partition count must map to 0")
	}
}

func TestCatalog(t *testing.T) {
	c := NewCatalog()
	tbl := newPeopleTable(t)
	if err := c.Register(tbl); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if err := c.Register(tbl); err == nil {
		t.Error("duplicate registration must fail")
	}
	if err := c.Register(nil); err == nil {
		t.Error("nil table registration must fail")
	}
	got, err := c.Lookup("people")
	if err != nil || got != tbl {
		t.Errorf("Lookup = %v, %v", got, err)
	}
	if _, err := c.Lookup("ghost"); err == nil {
		t.Error("lookup of unknown table must fail")
	}
	if names := c.Names(); len(names) != 1 || names[0] != "people" {
		t.Errorf("Names = %v", names)
	}
	other := newPeopleTable(t)
	c.Replace(other)
	got, _ = c.Lookup("people")
	if got != other {
		t.Error("Replace must overwrite")
	}
}
