package store

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"path"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/metrics"
	"repro/internal/storage"
)

// Store is the durable table layer. All mutation goes through the manifest
// WAL: a save or drop is durable exactly when its WAL record is fsynced, and
// recovery on Open reconstructs the manifest from the log alone.
//
// Directory layout under the store root:
//
//	wal.log      append-only manifest log (see manifest.go)
//	segs/        immutable segment files, seg-<seq>.seg
//	tmp/         in-flight segment/checkpoint files; swept on open
//	quarantine/  segments that failed checksum verification on open
type Store struct {
	mu  sync.Mutex
	fs  FS
	dir string

	manifest manifestState
	nextSeq  uint64
	walLen   int64 // bytes of wal.log known to hold only valid records
	walDirty bool  // a failed append may have left a torn tail at walLen

	recordsSinceCheckpoint int
	checkpointEvery        int
	segmentRows            int
	frameRows              int

	reg    *metrics.Registry
	closed bool

	// Quarantined lists tables dropped during recovery because a referenced
	// segment failed verification, for surfacing to operators.
	quarantined []string
}

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("store: closed")

// ErrNoTable is returned when a named table is not in the manifest.
var ErrNoTable = errors.New("store: no such table")

const (
	walName        = "wal.log"
	segsDirName    = "segs"
	tmpDirName     = "tmp"
	quarantineName = "quarantine"

	defaultSegmentRows     = 8192
	defaultFrameRows       = 2048
	defaultCheckpointEvery = 64
)

// Option configures Open.
type Option func(*Store)

// WithFS substitutes the filesystem (tests use FaultFS).
func WithFS(fs FS) Option { return func(s *Store) { s.fs = fs } }

// WithSegmentRows caps rows per segment file (default 8192).
func WithSegmentRows(n int) Option {
	return func(s *Store) {
		if n > 0 {
			s.segmentRows = n
		}
	}
}

// WithFrameRows caps rows per frame inside a segment (default 2048).
func WithFrameRows(n int) Option {
	return func(s *Store) {
		if n > 0 {
			s.frameRows = n
		}
	}
}

// WithCheckpointEvery sets how many WAL records accumulate before an
// automatic checkpoint folds the log into one snapshot (default 64).
func WithCheckpointEvery(n int) Option {
	return func(s *Store) {
		if n > 0 {
			s.checkpointEvery = n
		}
	}
}

// TableOption configures SaveTable.
type TableOption func(*tableOpts)

type tableOpts struct{ bloomCol string }

// WithBloomColumn builds a per-segment bloom filter over the named column so
// equality scans can skip segments without the key.
func WithBloomColumn(col string) TableOption { return func(o *tableOpts) { o.bloomCol = col } }

// Open opens (creating if needed) the store rooted at dir and runs recovery:
// replay the WAL, truncate any torn tail, verify every referenced segment's
// footer checksum (quarantining failures), and sweep orphaned files.
func Open(dir string, opts ...Option) (*Store, error) {
	s := &Store{
		fs:              OSFS{},
		dir:             dir,
		manifest:        newManifestState(),
		segmentRows:     defaultSegmentRows,
		frameRows:       defaultFrameRows,
		reg:             metrics.NewRegistry(),
		checkpointEvery: defaultCheckpointEvery,
	}
	for _, o := range opts {
		o(s)
	}
	for _, d := range []string{dir, s.segsDir(), s.tmpDir(), s.quarantineDir()} {
		if err := s.fs.MkdirAll(d); err != nil {
			return nil, fmt.Errorf("store: mkdir %s: %w", d, err)
		}
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *Store) walPath() string         { return path.Join(s.dir, walName) }
func (s *Store) segsDir() string         { return path.Join(s.dir, segsDirName) }
func (s *Store) tmpDir() string          { return path.Join(s.dir, tmpDirName) }
func (s *Store) quarantineDir() string   { return path.Join(s.dir, quarantineName) }
func (s *Store) segPath(n string) string { return path.Join(s.segsDir(), n) }

func segFileName(seq uint64) string { return fmt.Sprintf("seg-%08d.seg", seq) }

// segSeq parses the sequence number out of a segment (or tmp) file name.
func segSeq(name string) (uint64, bool) {
	base := path.Base(name)
	if !strings.HasPrefix(base, "seg-") {
		return 0, false
	}
	base = strings.TrimPrefix(base, "seg-")
	i := strings.IndexByte(base, '.')
	if i < 0 {
		return 0, false
	}
	n, err := strconv.ParseUint(base[:i], 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// recover is the open-time repair pass described in the package comment.
func (s *Store) recover() error {
	// 1. Replay the WAL, discarding any torn tail.
	data, err := readAll(s.fs, s.walPath())
	switch {
	case err == nil:
	case IsNotExist(err):
		data = nil
	default:
		return fmt.Errorf("store: reading %s: %w", s.walPath(), err)
	}
	m, goodLen, torn := recoverManifest(data)
	if torn {
		s.reg.Counter("store.recovery.torn_tails").Inc()
		if err := s.fs.Truncate(s.walPath(), goodLen); err != nil {
			return fmt.Errorf("store: truncating torn wal tail: %w", err)
		}
	}
	s.walLen = goodLen
	s.recordsSinceCheckpoint = 0 // conservative: checkpoint cadence restarts per open

	// 2. Verify every referenced segment; quarantine tables that fail.
	for _, name := range m.tableNames() {
		t := m.Tables[name]
		bad := false
		for _, ref := range t.Segments {
			footer, crc, err := readSegmentFooter(s.fs, s.segPath(ref.Name))
			if err == nil && footer.Rows == ref.Rows && crc == ref.FooterCRC {
				continue
			}
			bad = true
			s.reg.Counter("store.segments.quarantined").Inc()
			if err == nil || !IsNotExist(err) {
				// Move the corrupt file aside so operators can inspect it
				// and so the GC below cannot mistake it for live data.
				_ = s.fs.Rename(s.segPath(ref.Name), path.Join(s.quarantineDir(), ref.Name))
			}
		}
		if bad {
			delete(m.Tables, name)
			s.quarantined = append(s.quarantined, name)
		}
	}
	s.manifest = m

	// 3. Sweep tmp/ and unreferenced segments (commits that never reached
	// their WAL record), and derive the next file sequence number.
	live := map[string]bool{}
	for _, t := range m.Tables {
		for _, ref := range t.Segments {
			live[ref.Name] = true
		}
	}
	var maxSeq uint64
	if names, err := s.fs.ReadDir(s.segsDir()); err == nil {
		for _, n := range names {
			if seq, ok := segSeq(n); ok && seq > maxSeq {
				maxSeq = seq
			}
			if !live[n] {
				_ = s.fs.Remove(s.segPath(n))
			}
		}
	}
	if names, err := s.fs.ReadDir(s.tmpDir()); err == nil {
		for _, n := range names {
			if seq, ok := segSeq(n); ok && seq > maxSeq {
				maxSeq = seq
			}
			_ = s.fs.Remove(path.Join(s.tmpDir(), n))
		}
	}
	if names, err := s.fs.ReadDir(s.quarantineDir()); err == nil {
		for _, n := range names {
			if seq, ok := segSeq(n); ok && seq > maxSeq {
				maxSeq = seq
			}
		}
	}
	s.nextSeq = maxSeq + 1
	s.reg.Counter("store.recovery.opens").Inc()
	return nil
}

// readAll slurps a file through the FS abstraction.
func readAll(fs FS, name string) ([]byte, error) {
	f, err := fs.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		return nil, err
	}
	data := make([]byte, size)
	if size == 0 {
		return data, nil
	}
	if _, err := f.ReadAt(data, 0); err != nil && err != io.EOF {
		return nil, err
	}
	return data, nil
}

// Quarantined returns table names dropped during recovery because a segment
// failed verification.
func (s *Store) Quarantined() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.quarantined...)
}

// Metrics returns the store's counter registry.
func (s *Store) Metrics() *metrics.Registry { return s.reg }

// Close marks the store closed. Idempotent; the on-disk state needs no
// shutdown step because every commit is already durable.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	return nil
}

// Tables lists live tables, sorted by name.
func (s *Store) Tables() []TableInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]TableInfo, 0, len(s.manifest.Tables))
	for _, name := range s.manifest.tableNames() {
		out = append(out, infoFor(s.manifest.Tables[name]))
	}
	return out
}

// TableInfo is the operator-facing summary of one live table.
type TableInfo struct {
	Name     string
	Rows     int
	Segments int
	Bytes    int64
	Columns  []string
}

func infoFor(t TableMeta) TableInfo {
	info := TableInfo{Name: t.Name, Rows: t.Rows, Segments: len(t.Segments)}
	for _, f := range t.Fields {
		info.Columns = append(info.Columns, f.Name)
	}
	for _, ref := range t.Segments {
		info.Bytes += ref.Bytes
	}
	return info
}

// Info returns the summary of one live table.
func (s *Store) Info(name string) (TableInfo, error) {
	s.mu.Lock()
	t, ok := s.manifest.Tables[name]
	s.mu.Unlock()
	if !ok {
		return TableInfo{}, fmt.Errorf("%w: %q", ErrNoTable, name)
	}
	return infoFor(t), nil
}

// Has reports whether a table is live.
func (s *Store) Has(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.manifest.Tables[name]
	return ok
}

// Schema returns a live table's schema.
func (s *Store) Schema(name string) (*storage.Schema, error) {
	s.mu.Lock()
	t, ok := s.manifest.Tables[name]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoTable, name)
	}
	return t.schema()
}

// SaveTable durably writes batches as the named table, replacing any
// previous version. The commit point is the fsync of the table's WAL
// record: a crash before it leaves the old version (or no table), a crash
// after it leaves the new one — never a mix. Every batch must have the
// table's schema and pass storage.ValidateBatch; otherwise SaveTable fails
// before writing anything and the previous version stays. The batches are
// only read, never retained.
func (s *Store) SaveTable(name string, schema *storage.Schema, batches []*storage.ColumnBatch, topts ...TableOption) error {
	if name == "" {
		return errors.New("store: empty table name")
	}
	if schema == nil {
		return errors.New("store: nil schema")
	}
	var o tableOpts
	for _, opt := range topts {
		opt(&o)
	}
	// Validate, cut and encode before taking the lock, so that the lock
	// covers only the filesystem work and concurrent saves encode in
	// parallel.
	frames, segments, totalRows, err := s.chunkForSegments(schema, batches)
	if err != nil {
		return err
	}
	encodeFrames(frames)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	meta := TableMeta{Name: name, Fields: fieldsFromSchema(schema), Rows: totalRows}

	// Phase 1: write every segment through tmp + rename, in order. Nothing
	// here is visible to readers or survives recovery until the WAL record
	// commits.
	for _, seg := range segments {
		seq := s.nextSeq
		s.nextSeq++
		fileName := segFileName(seq)
		tmpPath := path.Join(s.tmpDir(), fmt.Sprintf("seg-%08d.tmp", seq))
		ref, _, err := writeSegment(s.fs, tmpPath, schema, seg, o.bloomCol)
		if err != nil {
			return fmt.Errorf("store: writing segment for %q: %w", name, err)
		}
		if err := s.fs.Rename(tmpPath, s.segPath(fileName)); err != nil {
			return fmt.Errorf("store: publishing segment for %q: %w", name, err)
		}
		ref.Name = fileName
		meta.Segments = append(meta.Segments, ref)
		s.reg.Counter("store.segments.written").Inc()
		s.reg.Counter("store.bytes.written").Add(ref.Bytes)
	}
	if err := s.fs.SyncDir(s.segsDir()); err != nil {
		return fmt.Errorf("store: syncing segment dir: %w", err)
	}

	// Phase 2: commit.
	rec, err := encodeUpsert(meta)
	if err != nil {
		return err
	}
	if err := s.appendWAL(rec); err != nil {
		return fmt.Errorf("store: committing %q: %w", name, err)
	}
	s.manifest.Tables[name] = meta
	s.reg.Counter("store.tables.saved").Inc()
	s.maybeCheckpointLocked()
	return nil
}

// SaveRows is SaveTable for row-shaped data: the row edge for tests and
// tools. Campaign runs hand SaveTable the engine's batches directly.
func (s *Store) SaveRows(name string, schema *storage.Schema, rows []storage.Row, topts ...TableOption) error {
	b, err := storage.BatchFromRows(schema, rows)
	if err != nil {
		return err
	}
	return s.SaveTable(name, schema, []*storage.ColumnBatch{b}, topts...)
}

// chunkForSegments cuts the input batches into frames of exactly frameRows
// rows (the last one may be short) and groups consecutive frames into
// segments that close once they hold at least segmentRows rows. Row order is
// preserved. A frame is a row span of one input batch; only a frame that
// straddles two batches is copied, by typed ranges, into a batch of its own.
// Every input batch must match schema and pass storage.ValidateBatch: the
// encoder trusts the vectors, so a malformed batch is an error here, never a
// dropped or corrupt frame. The segments are views of frames.
func (s *Store) chunkForSegments(schema *storage.Schema, batches []*storage.ColumnBatch) (frames []segFrame, segments [][]segFrame, rows int, err error) {
	remaining := 0
	for i, b := range batches {
		if err := storage.ValidateBatch(b); err != nil {
			return nil, nil, 0, fmt.Errorf("store: batch %d: %w", i, err)
		}
		if !b.Schema().Equal(schema) {
			return nil, nil, 0, fmt.Errorf("store: batch %d has schema %s, table schema is %s", i, b.Schema(), schema)
		}
		remaining += b.Len()
	}
	rows = remaining
	var ends []int
	segRows := 0
	var straddle *storage.ColumnBatch // a frame being copied together from several batches
	want := 0                         // the rows straddle will hold
	for _, b := range batches {
		for lo := 0; lo < b.Len(); {
			if n := min(s.frameRows, remaining); straddle == nil && lo+n <= b.Len() {
				frames = append(frames, segFrame{b: b, lo: lo, hi: lo + n})
				lo += n
				remaining -= n
			} else {
				if straddle == nil {
					want = n
					straddle = storage.NewColumnBatch(schema, want)
				}
				hi := min(b.Len(), lo+want-straddle.Len())
				straddle.AppendRange(b, lo, hi)
				remaining -= hi - lo
				lo = hi
				if straddle.Len() < want {
					continue
				}
				frames = append(frames, segFrame{b: straddle, hi: want})
				straddle = nil
			}
			last := frames[len(frames)-1]
			if segRows += last.hi - last.lo; segRows >= s.segmentRows || remaining == 0 {
				ends = append(ends, len(frames))
				segRows = 0
			}
		}
	}
	start := 0
	for _, end := range ends {
		segments = append(segments, frames[start:end])
		start = end
	}
	return frames, segments, rows, nil
}

// encodeFrames encodes every frame on min(GOMAXPROCS, len(frames))
// goroutines, the caller's among them, each with its own encoder. It returns
// once every goroutine has; a panic in any of them is raised again on the
// caller's goroutine.
func encodeFrames(frames []segFrame) {
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		mu       sync.Mutex
		panicked any
	)
	work := func() {
		defer func() {
			if p := recover(); p != nil {
				mu.Lock()
				panicked = p
				mu.Unlock()
			}
		}()
		var enc storage.FrameEncoder
		var scratch []byte
		for i := next.Add(1) - 1; i < int64(len(frames)); i = next.Add(1) - 1 {
			scratch = frames[i].encode(&enc, scratch)
		}
	}
	workers := min(runtime.GOMAXPROCS(0), len(frames))
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

// Drop removes a table. Durable at its WAL record's fsync; the table's
// segment files are deleted best-effort afterwards (recovery sweeps any
// survivors).
func (s *Store) Drop(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	t, ok := s.manifest.Tables[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoTable, name)
	}
	rec, err := encodeDrop(name)
	if err != nil {
		return err
	}
	if err := s.appendWAL(rec); err != nil {
		return fmt.Errorf("store: dropping %q: %w", name, err)
	}
	delete(s.manifest.Tables, name)
	for _, ref := range t.Segments {
		_ = s.fs.Remove(s.segPath(ref.Name))
	}
	s.reg.Counter("store.tables.dropped").Inc()
	s.maybeCheckpointLocked()
	return nil
}

// appendWAL appends one framed record to the log and fsyncs it. Callers
// hold s.mu. On failure the log may carry a torn tail; the next append
// repairs it first by re-reading the log and truncating to its recoverable
// length, so a half-written record can never sit in front of (and on replay
// swallow) a later acknowledged one. A complete-but-unsynced record is kept:
// the next successful fsync makes it durable, and surfacing an
// unacknowledged commit is legal — losing an acknowledged one is not.
func (s *Store) appendWAL(rec []byte) error {
	if s.walDirty {
		data, err := readAll(s.fs, s.walPath())
		switch {
		case err == nil:
			_, goodLen, torn := recoverManifest(data)
			if torn {
				if terr := s.fs.Truncate(s.walPath(), goodLen); terr != nil {
					return fmt.Errorf("store: repairing wal tail: %w", terr)
				}
			}
			s.walLen = goodLen
		case IsNotExist(err):
			s.walLen = 0
		default:
			return fmt.Errorf("store: repairing wal tail: %w", err)
		}
		s.walDirty = false
	}
	created := s.walLen == 0
	f, err := s.fs.Append(s.walPath())
	if err != nil {
		return err
	}
	if _, err := f.Write(rec); err != nil {
		s.walDirty = true
		_ = f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		s.walDirty = true
		_ = f.Close()
		return err
	}
	if created {
		// A brand-new wal.log needs its directory entry fsynced too, or the
		// file itself (not just its bytes) can vanish with the crash.
		if err := s.fs.SyncDir(s.dir); err != nil {
			s.walDirty = true
			_ = f.Close()
			return err
		}
	}
	if err := f.Close(); err != nil {
		// The record is already durable; a close failure does not un-commit.
		s.walLen += int64(len(rec))
		s.recordsSinceCheckpoint++
		s.reg.Counter("store.wal.records").Inc()
		return nil
	}
	s.walLen += int64(len(rec))
	s.recordsSinceCheckpoint++
	s.reg.Counter("store.wal.records").Inc()
	return nil
}

func (s *Store) maybeCheckpointLocked() {
	if s.recordsSinceCheckpoint >= s.checkpointEvery {
		// Best-effort: a failed checkpoint leaves the longer-but-valid log.
		_ = s.checkpointLocked()
	}
}

// Checkpoint folds the WAL into a single snapshot record, bounding replay
// cost. The snapshot is written to a temp file, fsynced, and atomically
// renamed over the log, so there is no moment without a valid manifest.
func (s *Store) Checkpoint() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	return s.checkpointLocked()
}

func (s *Store) checkpointLocked() error {
	rec, err := encodeSnapshot(s.manifest)
	if err != nil {
		return err
	}
	tmpPath := path.Join(s.tmpDir(), "wal.ckpt")
	f, err := s.fs.Create(tmpPath)
	if err != nil {
		return err
	}
	if _, err := f.Write(rec); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := s.fs.Rename(tmpPath, s.walPath()); err != nil {
		return err
	}
	// Bookkeeping must reflect the live file before the fallible directory
	// sync: after the rename, wal.log IS the snapshot, whether or not the
	// rename is crash-durable yet.
	s.walLen = int64(len(rec))
	s.walDirty = false
	s.recordsSinceCheckpoint = 0
	if err := s.fs.SyncDir(s.dir); err != nil {
		// Crash-durability of the swap is unknown; both old and new logs
		// replay to the same manifest, so this is safe to surface as a
		// retriable error.
		return err
	}
	s.reg.Counter("store.wal.checkpoints").Inc()
	return nil
}

// ScanStats reports pruning effectiveness for one Scan.
type ScanStats struct {
	SegmentsScanned int
	SegmentsSkipped int
	FramesScanned   int
	FramesSkipped   int
	Rows            int
}

// Scan streams the named table's batches through fn in segment order,
// skipping segments and frames whose zone maps (or bloom filter, for Eq
// predicates on the indexed column) prove no row can match the filter.
// Batches may still contain non-matching rows — pruning is conservative and
// row-level filtering stays the caller's job. Every byte that reaches fn
// has passed its frame CRC and the footer checksum.
func (s *Store) Scan(name string, filter Filter, fn func(*storage.ColumnBatch) error) (ScanStats, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ScanStats{}, ErrClosed
	}
	t, ok := s.manifest.Tables[name]
	s.mu.Unlock()
	if !ok {
		return ScanStats{}, fmt.Errorf("%w: %q", ErrNoTable, name)
	}
	var stats ScanStats
	for _, ref := range t.Segments {
		if zonesPrune(ref.Zones, filter) {
			stats.SegmentsSkipped++
			continue
		}
		segStats, skipped, err := s.scanOneSegment(ref, filter, fn)
		if err != nil {
			return stats, fmt.Errorf("store: scanning %q segment %s: %w", name, ref.Name, err)
		}
		if skipped {
			stats.SegmentsSkipped++
			continue
		}
		stats.SegmentsScanned++
		stats.FramesScanned += segStats.framesScanned
		stats.FramesSkipped += segStats.framesSkipped
		stats.Rows += segStats.rows
	}
	s.reg.Counter("store.segments.scanned").Add(int64(stats.SegmentsScanned))
	s.reg.Counter("store.segments.skipped").Add(int64(stats.SegmentsSkipped))
	s.reg.Counter("store.frames.scanned").Add(int64(stats.FramesScanned))
	s.reg.Counter("store.frames.skipped").Add(int64(stats.FramesSkipped))
	s.reg.Counter("store.scan.rows").Add(int64(stats.Rows))
	return stats, nil
}

// scanOneSegment opens one segment, applies the bloom gate, and streams
// frames. skipped=true means the bloom filter excluded the whole segment.
func (s *Store) scanOneSegment(ref SegmentRef, filter Filter, fn func(*storage.ColumnBatch) error) (segScanStats, bool, error) {
	f, err := s.fs.Open(s.segPath(ref.Name))
	if err != nil {
		return segScanStats{}, false, err
	}
	defer f.Close()
	footer, crc, err := decodeSegmentFooter(f)
	if err != nil {
		return segScanStats{}, false, err
	}
	if crc != ref.FooterCRC {
		return segScanStats{}, false, corruptf("footer checksum drifted from manifest")
	}
	if segmentBloomSkips(footer.Bloom, filter) {
		return segScanStats{}, true, nil
	}
	meta := TableMeta{Name: ref.Name, Fields: footer.Fields}
	schema, err := meta.schema()
	if err != nil {
		return segScanStats{}, false, corruptf("footer schema: %v", err)
	}
	var stats segScanStats
	var body []byte // one frame buffer per segment: DecodeBatch copies out of it
	for _, fr := range footer.Frames {
		if zonesPrune(fr.Zones, filter) {
			stats.framesSkipped++
			continue
		}
		body = slices.Grow(body[:0], fr.Len)[:fr.Len]
		if _, err := f.ReadAt(body, fr.Off); err != nil {
			return stats, false, corruptf("reading frame at %d: %v", fr.Off, err)
		}
		if crc32.ChecksumIEEE(body) != fr.CRC {
			return stats, false, corruptf("frame checksum mismatch at offset %d", fr.Off)
		}
		b, err := storage.DecodeBatch(schema, body)
		if err != nil {
			return stats, false, corruptf("frame decode at %d: %v", fr.Off, err)
		}
		if b.Len() != fr.Rows {
			return stats, false, corruptf("frame rows %d != index %d", b.Len(), fr.Rows)
		}
		stats.framesScanned++
		stats.rows += b.Len()
		if err := fn(b); err != nil {
			return stats, false, err
		}
	}
	return stats, false, nil
}

// ReadTable materialises a stored table back into an in-memory
// storage.Table, bit-identical to what SaveTable was given: the decoded
// batches are routed into the table's partitions with typed copies.
func (s *Store) ReadTable(name string) (*storage.Table, error) {
	schema, err := s.Schema(name)
	if err != nil {
		return nil, err
	}
	t, err := storage.NewTable(name, schema)
	if err != nil {
		return nil, err
	}
	if _, err := s.Scan(name, nil, t.AppendBatch); err != nil {
		return nil, err
	}
	return t, nil
}

// Rows returns a stored table's rows, in saved order.
func (s *Store) Rows(name string) ([]storage.Row, error) {
	var rows []storage.Row
	_, err := s.Scan(name, nil, func(b *storage.ColumnBatch) error {
		for i := 0; i < b.Len(); i++ {
			rows = append(rows, b.Row(i))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}
