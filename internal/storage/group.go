package storage

// group.go implements the GroupTable behind the dataflow engine's columnar
// hash aggregation: a hash table mapping encoded group keys to dense group
// ids. Aggregation state then lives in typed vectors indexed by group id
// (sums in a []float64, counts in a []int64, …) instead of one boxed state
// object per group, so the aggregate update loop is a tight typed pass per
// aggregation rather than per-row interface dispatch.
//
// The table keys rows straight from column vectors through KeyEncoder
// (BatchKey/BatchHash), so its grouping is byte-identical to the row paths'.
// Alongside the id map it keeps each group's 64-bit key hash (for
// re-partitioning overflowing state under a memory budget) and the group's
// key columns as a small columnar batch built with typed copies, which the
// aggregation emit path shares zero-copy into its output batch.

// GroupTable assigns dense group ids to distinct keys, first-seen order: the
// first distinct key gets id 0, the next id 1, and so on, so iterating ids
// 0..Groups() reproduces the exact group emission order of the row-at-a-time
// aggregation. Not safe for concurrent use; build one per task.
type GroupTable struct {
	enc       *KeyEncoder
	ids       map[string]int32
	hashes    []uint64
	keySchema *Schema
	keyIdx    []int
	keyRows   *ColumnBatch
	keyBytes  int64

	// codeCache maps a dictionary-backed key column's codes to group ids for
	// the frame currently being mapped (see MapRange): cacheDict identifies
	// the dictionary the cache was built for, -1 marks unseen codes. The
	// table's keys stay the full encoded strings — the cache only skips the
	// per-row encode+map-lookup for codes already seen in this frame.
	codeCache []int32
	cacheDict *string
}

// NewGroupTable returns an empty table. keySchema describes the key columns
// in output order; keyIdx maps each of them to its column index in the input
// batches; enc must encode exactly those input columns (the caller clones one
// per task, since encoders are not goroutine-safe). rows is the number of
// input rows the table will map, if known (0 otherwise): no more groups than
// that can appear, so the id map and key columns are sized for it up front.
func NewGroupTable(keySchema *Schema, keyIdx []int, enc *KeyEncoder, rows int) *GroupTable {
	return &GroupTable{
		enc:       enc,
		ids:       make(map[string]int32, rows),
		hashes:    make([]uint64, 0, rows),
		keySchema: keySchema,
		keyIdx:    keyIdx,
		keyRows:   NewColumnBatch(keySchema, rows),
	}
}

// MapBatch assigns a group id to every row of b, appending the ids to ids[:0]
// and returning the extended slice (callers reuse one scratch slice across
// batches). Unseen keys are assigned the next dense id and their key columns
// are copied into the table's key batch with typed appends.
func (t *GroupTable) MapBatch(b *ColumnBatch, ids []int32) []int32 {
	return t.MapRange(b, 0, b.Len(), ids)
}

// MapRange maps rows [lo, hi) of b, so a budget-bounded consumer can check
// its resident state between sub-ranges of one large batch. ids[j] is the
// group id of row lo+j.
func (t *GroupTable) MapRange(b *ColumnBatch, lo, hi int, ids []int32) []int32 {
	ids = ids[:0]
	// Code-based fast path: a single dictionary-backed string key without
	// nulls maps each distinct code through the hash table once per frame;
	// repeats hit the dense code cache. Grouping stays byte-identical — the
	// table still stores the encoded string key — because within a frame code
	// equality is string equality (frame.go's sorted-dictionary invariant),
	// and a null-free column means codes alone determine the key.
	if len(t.keyIdx) == 1 {
		if col := &b.cols[t.keyIdx[0]]; len(col.dict) > 0 && len(col.nulls) == 0 {
			d0 := &col.dict[0]
			if t.cacheDict != d0 {
				t.codeCache = t.codeCache[:0]
				for range col.dict {
					t.codeCache = append(t.codeCache, -1)
				}
				t.cacheDict = d0
			}
			for i := lo; i < hi; i++ {
				code := col.codes[i]
				if id := t.codeCache[code]; id >= 0 {
					ids = append(ids, id)
					continue
				}
				id := t.lookupRow(b, i)
				t.codeCache[code] = id
				ids = append(ids, id)
			}
			return ids
		}
	}
	for i := lo; i < hi; i++ {
		ids = append(ids, t.lookupRow(b, i))
	}
	return ids
}

// lookupRow maps row i of b to its group id, inserting an unseen key with the
// next dense id and copying its key columns into the table's key batch.
func (t *GroupTable) lookupRow(b *ColumnBatch, i int) int32 {
	k := t.enc.BatchKey(b, i)
	id, ok := t.ids[string(k)]
	if !ok {
		ks := string(k)
		id = int32(len(t.hashes))
		t.ids[ks] = id
		t.hashes = append(t.hashes, HashBytes64(k))
		t.keyBytes += int64(len(ks))
		for c, src := range t.keyIdx {
			t.keyRows.cols[c].appendFrom(&b.cols[src], i, t.keyRows.n)
		}
		t.keyRows.n++
	}
	return id
}

// Groups returns the number of distinct groups seen since the last Reset.
func (t *GroupTable) Groups() int { return len(t.hashes) }

// Hash returns group g's 64-bit key hash.
func (t *GroupTable) Hash(g int) uint64 { return t.hashes[g] }

// KeyRows returns the key columns of every group, one row per group id, in id
// order. The batch shares the table's storage and must be treated as
// read-only.
func (t *GroupTable) KeyRows() *ColumnBatch { return t.keyRows }

// MemSize estimates the table's resident footprint: the key batch, the
// encoded key bytes held by the id map, and per-group fixed overhead (hash,
// map entry). It is the quantity the spilling hash aggregation budgets
// against.
func (t *GroupTable) MemSize() int64 {
	const perGroup = 8 + 48 // hash + map entry estimate
	return int64(len(t.hashes))*perGroup + t.keyBytes + BatchMemSize(t.keyRows)
}

// Reset drops every group and releases the backing storage, so a spill flush
// returns the table to its empty footprint.
func (t *GroupTable) Reset() {
	t.ids = make(map[string]int32)
	t.hashes = nil
	t.keyBytes = 0
	t.keyRows = NewColumnBatch(t.keySchema, 0)
	// Cached ids are dense ids of the dropped generation — invalidate.
	t.cacheDict = nil
}
