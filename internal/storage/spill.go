package storage

// spill.go implements the spill-to-disk layer under the columnar batch
// representation: a compact binary codec that serialises ColumnBatch typed
// vectors (round-trip exact, including float bit patterns and null bitmaps)
// and a size-bounded PartitionStore that keeps hot batches in memory and
// spills cold ones to a temp file once a configurable byte budget is
// exceeded, restoring them transparently on read. The dataflow engine
// accumulates shuffle buckets, sort inputs and join/group-by build sides into
// a store instead of bare slices, which lets wide operators run over inputs
// larger than the memory budget; the external sort's runs live in one too
// (RunStore, runs.go), so this is the only code that touches a spill file.

import (
	"encoding/binary"
	"fmt"
	"os"
	"sync"
)

// Batch codec framing.
const (
	batchMagic   byte = 0xCB // "column batch"
	batchVersion byte = 1
)

// ErrBadBatchEncoding is returned when DecodeBatch meets bytes that are not a
// valid encoded batch (or one encoded for a different schema).
var ErrBadBatchEncoding = fmt.Errorf("storage: bad batch encoding")

// BatchMemSize estimates the in-memory footprint of a batch in bytes: the
// typed vectors, string payloads, and null bitmap words. It is the unit the
// PartitionStore budgets against.
func BatchMemSize(b *ColumnBatch) int64 {
	if b == nil {
		return 0
	}
	n := int64(b.n)
	var total int64
	for c := range b.cols {
		col := &b.cols[c]
		switch col.typ {
		case TypeInt, TypeTime, TypeFloat:
			total += 8 * n
		case TypeBool:
			total += n
		case TypeString:
			// Slice header per string plus payload bytes.
			total += 16 * n
			for i := 0; i < b.n; i++ {
				total += int64(len(col.strs[i]))
			}
		}
		total += 8 * int64(len(col.nulls))
	}
	return total
}

// EncodeBatch appends the binary encoding of b to dst and returns the
// extended slice. The format is self-describing per column — a type tag and a
// byte-length prefix ahead of each column payload — and round-trip exact:
// floats are stored as their raw IEEE-754 bits, so -0.0 and NaN payloads
// survive a spill/restore cycle unchanged.
//
// Layout:
//
//	magic, version
//	uvarint rows, uvarint cols
//	per column:
//	  type byte
//	  uvarint payload length
//	  payload: uvarint null words + words (LE) + values
//	    int/time/float: rows × 8 bytes (BE)
//	    bool:           ceil(rows/8) packed bytes
//	    string:         per row uvarint length + bytes
//
// The null words run up to the last word holding a null, none for a column
// without one. It is FrameEncoder's v1 layout (frame.go).
func EncodeBatch(dst []byte, b *ColumnBatch) []byte {
	return EncodeBatchOpts(dst, b, CodecOptions{})
}

// DecodeBatch reconstructs a batch encoded by EncodeBatch or EncodeBatchOpts.
// The version byte selects the codec — v1 raw frames and v2 compressed frames
// (frame.go) both decode, so spill files written before the codec bump stay
// readable. The schema must be the one the batch was encoded under; column
// count and per-column types are verified against it.
func DecodeBatch(schema *Schema, data []byte) (*ColumnBatch, error) {
	if schema == nil {
		return nil, fmt.Errorf("%w: decode needs a schema", ErrEmptySchema)
	}
	if len(data) < 2 || data[0] != batchMagic {
		return nil, fmt.Errorf("%w: missing magic/version header", ErrBadBatchEncoding)
	}
	if data[1] == batchVersion2 {
		if len(data) < 3 {
			return nil, fmt.Errorf("%w: truncated frame flags", ErrBadBatchEncoding)
		}
		if flags := data[2]; flags != 0 {
			return nil, fmt.Errorf("%w: unknown frame flags %#x", ErrBadBatchEncoding, flags)
		}
		return decodeBatchV2(schema, data[3:])
	}
	if data[1] != batchVersion {
		return nil, fmt.Errorf("%w: unsupported codec version %d", ErrBadBatchEncoding, data[1])
	}
	data = data[2:]
	rows, k := binary.Uvarint(data)
	if k <= 0 {
		return nil, fmt.Errorf("%w: truncated row count", ErrBadBatchEncoding)
	}
	data = data[k:]
	// Cheapest possible column footprint is one bit per row (packed bools),
	// so a row count past 8× the remaining bytes cannot be backed by any
	// payload — reject it here instead of letting a corrupt frame drive a
	// huge allocation below.
	if rows > uint64(len(data))*8 {
		return nil, fmt.Errorf("%w: row count %d exceeds payload capacity", ErrBadBatchEncoding, rows)
	}
	cols, k := binary.Uvarint(data)
	if k <= 0 {
		return nil, fmt.Errorf("%w: truncated column count", ErrBadBatchEncoding)
	}
	data = data[k:]
	if int(cols) != schema.Len() {
		return nil, fmt.Errorf("%w: batch has %d columns, schema %s has %d",
			ErrBadBatchEncoding, cols, schema, schema.Len())
	}
	n := int(rows)
	b := &ColumnBatch{schema: schema, cols: make([]Column, cols), n: n}
	for c := range b.cols {
		if len(data) < 1 {
			return nil, fmt.Errorf("%w: truncated column %d", ErrBadBatchEncoding, c)
		}
		typ := FieldType(data[0])
		if want := schema.Field(c).Type; typ != want {
			return nil, fmt.Errorf("%w: column %d encoded as %s, schema expects %s",
				ErrBadBatchEncoding, c, typ, want)
		}
		data = data[1:]
		plen, k := binary.Uvarint(data)
		if k <= 0 || uint64(len(data)-k) < plen {
			return nil, fmt.Errorf("%w: truncated column %d payload", ErrBadBatchEncoding, c)
		}
		data = data[k:]
		if err := decodeColumnPayload(&b.cols[c], typ, data[:plen], n); err != nil {
			return nil, fmt.Errorf("column %d: %w", c, err)
		}
		data = data[plen:]
	}
	return b, nil
}

// decodeColumnPayload decodes a v1 column payload: the null bitmap's word
// count and words, then the raw values.
func decodeColumnPayload(col *Column, typ FieldType, data []byte, n int) error {
	col.typ = typ
	words, k := binary.Uvarint(data)
	// Compare by division, not words*8: a forged word count near 2^64 would
	// overflow the multiplication and slip past the bound.
	if k <= 0 || words > uint64(len(data)-k)/8 {
		return fmt.Errorf("%w: truncated null bitmap", ErrBadBatchEncoding)
	}
	data = data[k:]
	if words > 0 {
		col.nulls = make(nullBitmap, words)
		for w := range col.nulls {
			col.nulls[w] = binary.LittleEndian.Uint64(data[w*8:])
		}
		data = data[words*8:]
	}
	return decodeRawValues(col, typ, data, n)
}

// StoreOption configures a PartitionStore.
type StoreOption func(*PartitionStore)

// WithMemoryBudget bounds the bytes of batch data the store keeps resident
// (estimated by BatchMemSize). Once an append pushes the resident total past
// the budget, the coldest batches — oldest appends first — are encoded to the
// store's spill file and their memory released. bytes <= 0 means unlimited
// (the default): nothing ever spills.
func WithMemoryBudget(bytes int64) StoreOption {
	return func(s *PartitionStore) { s.budget = bytes }
}

// WithCodec selects the batch codec spilled batches are written with. The
// zero value (the default) is the raw v1 codec; CodecOptions{Compress: true}
// writes v2 compressed frames. Reads auto-detect the version, so the option
// only affects writes.
func WithCodec(c CodecOptions) StoreOption {
	return func(s *PartitionStore) { s.codec = c }
}

// WithSpillDir places the store's spill temp file in dir instead of the
// system temp directory. "" (the default) keeps os.TempDir(); the directory
// must already exist.
func WithSpillDir(dir string) StoreOption {
	return func(s *PartitionStore) { s.spillDir = dir }
}

// spillFrame is one encoded frame of a cold slot: a range of the spill file.
type spillFrame struct {
	off int64
	len int64
}

// batchSlot is one sealed batch of a partition: resident (batch != nil) or
// cold (spilled as frames of the spill file). A resident slot its consumer
// released early (releaseSlot) is neither.
type batchSlot struct {
	batch  *ColumnBatch
	mem    int64 // BatchMemSize estimate while resident
	rows   int
	frames []spillFrame
	cold   bool
}

// PartitionStore holds the sealed column batches of a fixed number of
// partitions, spilling cold batches to a single temp file when a memory
// budget is configured and exceeded. It is the module's one spill store:
// shuffles, join sides and group-by overflow use it directly, and RunStore
// is a merge over a one-partition store. Appends are expected from one
// goroutine (the shuffle gather loop); reads (Partition, EachBatch) are safe
// from concurrent task goroutines once appending is done, and restores go
// through ReadAt so readers never contend on a file cursor. Close releases
// the spill file; the store is single-use.
type PartitionStore struct {
	mu     sync.Mutex
	schema *Schema
	parts  [][]*batchSlot
	rows   []int

	budget   int64
	codec    CodecOptions
	spillDir string
	closed   bool
	// frameRows splits a spilled slot into frames of at most this many rows,
	// so a streaming consumer restores one frame at a time; 0 writes each
	// slot as one frame. filePattern names the spill temp file.
	frameRows   int
	filePattern string
	// resident counts the bytes of resident slots plus the restored frames a
	// consumer holds (hold); maxResident is its high-water mark.
	resident    int64
	maxResident int64
	// appendOrder tracks resident slots oldest-first, so spilling evicts the
	// coldest batches.
	appendOrder []*batchSlot

	file     *os.File
	fileSize int64

	spilledBatches  int64
	spilledBytes    int64
	logicalBytes    int64
	restoredBatches int64

	encodeBuf []byte
}

// NewPartitionStore returns an empty store over nParts partitions of batches
// sharing the given schema.
func NewPartitionStore(schema *Schema, nParts int, opts ...StoreOption) (*PartitionStore, error) {
	if schema == nil {
		return nil, fmt.Errorf("%w: partition store needs a schema", ErrEmptySchema)
	}
	if nParts < 1 {
		nParts = 1
	}
	s := &PartitionStore{
		schema:      schema,
		parts:       make([][]*batchSlot, nParts),
		rows:        make([]int, nParts),
		filePattern: "toreador-spill-*.bin",
	}
	for _, opt := range opts {
		opt(s)
	}
	return s, nil
}

// Partitions returns the number of partitions.
func (s *PartitionStore) Partitions() int { return len(s.parts) }

// PartitionRows returns the number of rows accumulated in partition p.
func (s *PartitionStore) PartitionRows(p int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rows[p]
}

// SpilledBatches returns the number of frames written to the spill file
// (one per spilled batch unless the store splits slots into frames).
func (s *PartitionStore) SpilledBatches() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.spilledBatches
}

// SpilledBytes returns the cumulative physical bytes written to the spill
// file: every eviction adds its encoded (possibly compressed) length, and
// restores never subtract — this is write traffic, not occupancy.
func (s *PartitionStore) SpilledBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.spilledBytes
}

// SpilledLogicalBytes returns the cumulative logical bytes spilled: the size
// the same batches would occupy under the raw v1 codec. The physical/logical
// ratio is the spill compression ratio; with compression off the two are
// equal.
func (s *PartitionStore) SpilledLogicalBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.logicalBytes
}

// FileBytes returns the bytes currently occupied by the spill file. The file
// is append-only and never truncated, so this is also the store's
// physical-on-disk high-water mark (and equals SpilledBytes for a single
// store; the distinction matters at the run level, where stores come and go).
func (s *PartitionStore) FileBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fileSize
}

// RestoredBatches returns the number of spilled frames decoded back on read.
func (s *PartitionStore) RestoredBatches() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.restoredBatches
}

// Append seals b into partition p. The batch must not be mutated afterwards
// (the store may hold a reference until it spills). Under budget pressure the
// coldest resident batches — possibly b itself — are spilled before Append
// returns, so resident bytes stay at or under the budget whenever batches are
// individually smaller than it.
func (s *PartitionStore) Append(p int, b *ColumnBatch) error {
	if b == nil || b.Len() == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	slot := &batchSlot{batch: b, mem: BatchMemSize(b), rows: b.Len()}
	s.parts[p] = append(s.parts[p], slot)
	s.rows[p] += b.Len()
	s.noteResidentLocked(slot.mem)
	s.appendOrder = append(s.appendOrder, slot)
	return s.enforceBudgetLocked()
}

// noteResidentLocked adjusts the resident total and tracks its high-water
// mark. Caller holds s.mu.
func (s *PartitionStore) noteResidentLocked(delta int64) {
	s.resident += delta
	if s.resident > s.maxResident {
		s.maxResident = s.resident
	}
}

// enforceBudgetLocked spills oldest resident slots until the resident total
// fits the budget. Caller holds s.mu.
func (s *PartitionStore) enforceBudgetLocked() error {
	if s.budget <= 0 {
		return nil
	}
	i := 0
	for s.resident > s.budget && i < len(s.appendOrder) {
		slot := s.appendOrder[i]
		i++
		if err := s.spillLocked(slot); err != nil {
			return err
		}
	}
	s.appendOrder = s.appendOrder[i:]
	return nil
}

// spillLocked encodes one slot to the spill file, frameRows rows per frame,
// and releases its memory. Caller holds s.mu.
func (s *PartitionStore) spillLocked(slot *batchSlot) error {
	if s.closed {
		return fmt.Errorf("storage: spill to closed store")
	}
	if s.file == nil {
		f, err := os.CreateTemp(s.spillDir, s.filePattern)
		if err != nil {
			return fmt.Errorf("storage: create spill file: %w", err)
		}
		s.file = f
	}
	step := s.frameRows
	if step <= 0 {
		step = slot.rows
	}
	// The encoder lives for one slot: kept per store, its dictionary scratch,
	// sized to the largest slot it encoded, would stay allocated in every
	// open store and raise the engine's peak memory.
	var encoder FrameEncoder
	for lo := 0; lo < slot.rows; lo += step {
		hi := min(lo+step, slot.rows)
		s.encodeBuf = encoder.Encode(s.encodeBuf[:0], slot.batch, lo, hi, s.codec)
		if _, err := s.file.WriteAt(s.encodeBuf, s.fileSize); err != nil {
			return fmt.Errorf("storage: write spill file: %w", err)
		}
		n := int64(len(s.encodeBuf))
		logical := n
		if s.codec.Compress {
			logical = int64(encoder.v1Len(slot.batch, lo, hi))
		}
		slot.frames = append(slot.frames, spillFrame{off: s.fileSize, len: n})
		s.fileSize += n
		s.spilledBatches++
		s.spilledBytes += n
		s.logicalBytes += logical
	}
	slot.cold = true
	slot.batch = nil
	s.resident -= slot.mem
	return nil
}

// restore decodes one spilled frame. Restored batches are handed to the
// caller without being re-cached: consumers stream them once, and re-caching
// would immediately push the store back over budget. A consumer that keeps a
// frame decoded for a while (the run merge) accounts it through hold.
func (s *PartitionStore) restore(f spillFrame) (*ColumnBatch, error) {
	buf := make([]byte, f.len)
	if _, err := s.file.ReadAt(buf, f.off); err != nil {
		return nil, fmt.Errorf("storage: read spill file: %w", err)
	}
	b, err := DecodeBatch(s.schema, buf)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.restoredBatches++
	s.mu.Unlock()
	return b, nil
}

// hold counts delta bytes of restored frames as resident (negative releases
// them), so the high-water mark covers what a consumer holds decoded.
func (s *PartitionStore) hold(delta int64) {
	s.mu.Lock()
	s.noteResidentLocked(delta)
	s.mu.Unlock()
}

// releaseSlot drops a resident slot whose consumer is done with it, ahead of
// Close. The slot must not be read again.
func (s *PartitionStore) releaseSlot(slot *batchSlot) {
	s.mu.Lock()
	if slot.batch != nil {
		slot.batch = nil
		s.resident -= slot.mem
	}
	s.mu.Unlock()
}

// EachBatch streams the batches of partition p in append order (a spilled
// batch as its frames), restoring spilled ones transparently. At most one
// restored frame is alive at a time, so a streaming consumer's extra memory
// is bounded by the largest batch.
func (s *PartitionStore) EachBatch(p int, f func(*ColumnBatch) error) error {
	s.mu.Lock()
	slots := s.parts[p]
	s.mu.Unlock()
	for _, slot := range slots {
		if !slot.cold {
			if err := f(slot.batch); err != nil {
				return err
			}
			continue
		}
		for _, fr := range slot.frames {
			b, err := s.restore(fr)
			if err != nil {
				return err
			}
			if err := f(b); err != nil {
				return err
			}
		}
	}
	return nil
}

// Partition materialises every batch of partition p, restoring spilled ones.
func (s *PartitionStore) Partition(p int) ([]*ColumnBatch, error) {
	var out []*ColumnBatch
	err := s.EachBatch(p, func(b *ColumnBatch) error {
		out = append(out, b)
		return nil
	})
	return out, err
}

// FlattenPartition concatenates partition p into one batch (typed copies),
// restoring spilled batches one at a time — the build-side read path of the
// spilled hash join. A partition holding a single resident batch (the
// unbudgeted shuffle's shape) is returned directly without copying; callers
// must treat the result as read-only either way.
func (s *PartitionStore) FlattenPartition(p int) (*ColumnBatch, error) {
	s.mu.Lock()
	if slots := s.parts[p]; len(slots) == 1 && !slots[0].cold {
		b := slots[0].batch
		s.mu.Unlock()
		return b, nil
	}
	s.mu.Unlock()
	out := NewColumnBatch(s.schema, s.PartitionRows(p))
	err := s.EachBatch(p, func(b *ColumnBatch) error {
		for i := 0; i < b.Len(); i++ {
			out.AppendRowFrom(b, i)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Close releases the spill file (if one was created). Idempotent: a second
// call is a no-op, never a double remove. The store must not be used for
// appends afterwards.
func (s *PartitionStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.file == nil {
		return nil
	}
	name := s.file.Name()
	err := s.file.Close()
	if rmErr := os.Remove(name); err == nil {
		err = rmErr
	}
	s.file = nil
	return err
}
