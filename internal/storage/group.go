package storage

// group.go implements the hash table behind the dataflow engine's group-by
// and hash join: one open-addressing table (keyTable) that assigns dense ids
// to distinct keys in first-seen order. A slot holds an int32 id; the table
// keeps one 64-bit key hash per id (key.go's FNV-1a fold, the hash the
// shuffles partition by) and the id's key cells as a small columnar batch
// built with typed copies. A lookup starts at the slot mix64 of the row's
// hash picks and walks linearly; an id with the same hash is confirmed by
// comparing the row's typed key cells with the id's key row
// (keyCellsEqual), so no key is ever encoded to bytes or looked up in a
// string map.
//
// GroupTable serves the aggregation: typed accumulators indexed by group id
// (sums in a []float64, counts in a []int64, …) replace one boxed state
// object per group, the per-group hash picks the shuffle bucket a group's
// partial state goes to, and the emit path shares the key batch zero-copy
// into its output. JoinTable serves the hash join: the build side's rows laid out by
// key, probed with lookups only.

import (
	"fmt"
	"slices"
)

// hashChunkRows is how many rows' key hashes a lookup loop folds at once,
// into a stack buffer, before it looks them up.
const hashChunkRows = 256

// keyTable maps keys to dense ids, first-seen order. The key cells of a
// lookup live in columns idx of some batch row; the table never holds a
// reference to that batch.
type keyTable struct {
	// slots holds id+1 of a key, 0 for an empty slot. Its length is 0 or a
	// power of two, and it grows before more than half of it is used.
	slots  []int32
	hashes []uint64     // hashes[id] is the key's hash
	keys   *ColumnBatch // row id holds the key's cells
}

// newKeyTable returns an empty table whose key batch has keySchema. rows,
// when known (0 otherwise), bounds the keys to come, and everything is sized
// for that many up front: the slot array to hold them at most half full, the
// hashes and the key columns exactly. Without it they grow by doubling.
func newKeyTable(keySchema *Schema, rows int) keyTable {
	t := keyTable{keys: NewColumnBatch(keySchema, rows)}
	if rows > 0 {
		n := 16
		for n < 2*rows {
			n <<= 1
		}
		t.slots = make([]int32, n)
		t.hashes = make([]uint64, 0, rows)
	}
	return t
}

// len returns the number of keys.
func (t *keyTable) len() int { return len(t.hashes) }

// equal reports whether the key in columns idx of row i of b is key g.
func (t *keyTable) equal(b *ColumnBatch, idx []int, i int, g int32) bool {
	for c, src := range idx {
		if !keyCellsEqual(&b.cols[src], i, &t.keys.cols[c], int(g)) {
			return false
		}
	}
	return true
}

// find returns the id of the key in columns idx of row i of b, whose hash is
// h, or -1 when the table does not hold it.
func (t *keyTable) find(b *ColumnBatch, idx []int, i int, h uint64) int32 {
	if len(t.slots) == 0 {
		return -1
	}
	mask := uint64(len(t.slots) - 1)
	for s := mix64(h) & mask; ; s = (s + 1) & mask {
		v := t.slots[s]
		if v == 0 {
			return -1
		}
		if g := v - 1; t.hashes[g] == h && t.equal(b, idx, i, g) {
			return g
		}
	}
}

// findOrInsert is find, except that an unseen key gets the next dense id and
// its cells are copied into the key batch.
func (t *keyTable) findOrInsert(b *ColumnBatch, idx []int, i int, h uint64) int32 {
	if 2*(len(t.hashes)+1) > len(t.slots) {
		t.grow()
	}
	mask := uint64(len(t.slots) - 1)
	s := mix64(h) & mask
	for ; t.slots[s] != 0; s = (s + 1) & mask {
		if g := t.slots[s] - 1; t.hashes[g] == h && t.equal(b, idx, i, g) {
			return g
		}
	}
	g := int32(len(t.hashes))
	t.slots[s] = g + 1
	t.hashes = append(t.hashes, h)
	for c, src := range idx {
		t.keys.cols[c].appendFrom(&b.cols[src], i, t.keys.n)
	}
	t.keys.n++
	return g
}

// grow doubles the slot array and re-places every id by its stored hash.
func (t *keyTable) grow() {
	slots := make([]int32, max(16, 2*len(t.slots)))
	mask := uint64(len(slots) - 1)
	for g, h := range t.hashes {
		s := mix64(h) & mask
		for slots[s] != 0 {
			s = (s + 1) & mask
		}
		slots[s] = int32(g) + 1
	}
	t.slots = slots
}

// memSize counts the bytes the table holds: slots, hashes and key batch.
func (t *keyTable) memSize() int64 {
	return 4*int64(len(t.slots)) + 8*int64(len(t.hashes)) + BatchMemSize(t.keys)
}

// GroupTable assigns dense group ids to distinct keys, first-seen order: the
// first distinct key gets id 0, the next id 1, and so on, so iterating ids
// 0..Groups() reproduces the exact group emission order of the row-at-a-time
// aggregation. Not safe for concurrent use; build one per task.
type GroupTable struct {
	enc    *KeyEncoder
	keyIdx []int
	keys   keyTable

	// codeCache maps a dictionary-backed key column's codes to group ids for
	// the frame currently being mapped (see MapRange): cacheDict identifies
	// the dictionary the cache was built for, -1 marks unseen codes. The
	// table itself still keys the strings — the cache only skips the per-row
	// hash and lookup for codes already seen in this frame.
	codeCache []int32
	cacheDict *string
}

// NewGroupTable returns an empty table. keySchema describes the key columns
// in output order; keyIdx maps each of them to its column index in the input
// batches; enc hashes exactly those input columns (its hash methods are
// goroutine-safe, so tables may share one). rows is the number of input rows
// the table will map, if known (0 otherwise): no more groups than that can
// appear, so the table is sized for it up front.
func NewGroupTable(keySchema *Schema, keyIdx []int, enc *KeyEncoder, rows int) *GroupTable {
	return &GroupTable{
		enc:    enc,
		keyIdx: keyIdx,
		keys:   newKeyTable(keySchema, rows),
	}
}

// MapBatch assigns a group id to every row of b, appending the ids to ids[:0]
// and returning the extended slice (callers reuse one scratch slice across
// batches). Unseen keys are assigned the next dense id and their key columns
// are copied into the table's key batch with typed appends.
func (t *GroupTable) MapBatch(b *ColumnBatch, ids []int32) []int32 {
	return t.MapRange(b, 0, b.Len(), ids)
}

// MapRange maps rows [lo, hi) of b; ids[j] is the group id of row lo+j.
// MapBatch is MapRange over the whole batch.
func (t *GroupTable) MapRange(b *ColumnBatch, lo, hi int, ids []int32) []int32 {
	ids = slices.Grow(ids[:0], hi-lo)
	// Code-based fast path: a single dictionary-backed string key without
	// nulls maps each distinct code through the hash table once per frame;
	// repeats hit the dense code cache. Grouping stays the same — the table
	// still holds and compares the strings — because within a frame code
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
				id := t.keys.findOrInsert(b, t.keyIdx, i, t.enc.BatchHash(b, i))
				t.codeCache[code] = id
				ids = append(ids, id)
			}
			return ids
		}
	}
	var hs [hashChunkRows]uint64
	for lo < hi {
		n := min(hi-lo, len(hs))
		t.enc.BatchHashes(b, lo, hs[:n])
		for j, h := range hs[:n] {
			ids = append(ids, t.keys.findOrInsert(b, t.keyIdx, lo+j, h))
		}
		lo += n
	}
	return ids
}

// Groups returns the number of distinct groups seen.
func (t *GroupTable) Groups() int { return t.keys.len() }

// Hash returns group g's 64-bit key hash: the FNV-1a hash of its key bytes.
func (t *GroupTable) Hash(g int) uint64 { return t.keys.hashes[g] }

// KeyRows returns the key columns of every group, one row per group id, in id
// order. The batch shares the table's storage and must be treated as
// read-only.
func (t *GroupTable) KeyRows() *ColumnBatch { return t.keys.keys }

// MemSize counts the table's resident footprint: the slot array, one hash
// per group and the key batch.
func (t *GroupTable) MemSize() int64 { return t.keys.memSize() }

// JoinTable indexes the rows of one build-side batch of a hash join by key:
// each distinct key gets a dense id, and the build rows of a key lie
// together in build-row order. Once built it is read-only, so any number of
// probe tasks may share it.
type JoinTable struct {
	keys  keyTable
	start []int32 // rows[start[g]:start[g+1]] are key g's build rows
	rows  []int32
}

// NewJoinTable indexes the rows of build by the key columns enc encodes.
func NewJoinTable(build *ColumnBatch, enc *KeyEncoder) *JoinTable {
	hs := make([]uint64, build.Len())
	enc.BatchHashes(build, 0, hs)
	return newJoinTable(build, enc.idx, hs)
}

// newJoinTable indexes the rows of build by the key in columns idx, row i
// having hash hs[i].
func newJoinTable(build *ColumnBatch, idx []int, hs []uint64) *JoinTable {
	fields := make([]Field, len(idx))
	for c, src := range idx {
		fields[c] = Field{Name: fmt.Sprintf("k%d", c), Type: build.schema.Field(src).Type, Nullable: true}
	}
	t := &JoinTable{keys: newKeyTable(MustSchema(fields...), len(hs))}
	ids := make([]int32, len(hs))
	for i, h := range hs {
		ids[i] = t.keys.findOrInsert(build, idx, i, h)
	}
	t.start = make([]int32, t.keys.len()+1)
	for _, g := range ids {
		t.start[g+1]++
	}
	for g := 1; g < len(t.start); g++ {
		t.start[g] += t.start[g-1]
	}
	next := append([]int32(nil), t.start[:t.keys.len()]...)
	t.rows = make([]int32, len(ids))
	for i, g := range ids {
		t.rows[next[g]] = int32(i)
		next[g]++
	}
	return t
}

// Probe maps every row of b, keyed by enc's columns, to the id of the key its
// matching build rows share (see Rows), or to -1 when no build row has an
// equal key. The ids are appended to ids[:0].
func (t *JoinTable) Probe(b *ColumnBatch, enc *KeyEncoder, ids []int32) []int32 {
	ids = slices.Grow(ids[:0], b.Len())
	var hs [hashChunkRows]uint64
	for lo := 0; lo < b.Len(); lo += len(hs) {
		n := min(b.Len()-lo, len(hs))
		enc.BatchHashes(b, lo, hs[:n])
		ids = t.probe(b, enc.idx, lo, hs[:n], ids)
	}
	return ids
}

// probe appends the key id of rows [lo, lo+len(hs)) of b, keyed by columns
// idx, row lo+j having hash hs[j].
func (t *JoinTable) probe(b *ColumnBatch, idx []int, lo int, hs []uint64, ids []int32) []int32 {
	for j, h := range hs {
		ids = append(ids, t.keys.find(b, idx, lo+j, h))
	}
	return ids
}

// Rows returns the build rows of key g in build-row order. Read-only.
func (t *JoinTable) Rows(g int32) []int32 { return t.rows[t.start[g]:t.start[g+1]] }
