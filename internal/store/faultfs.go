package store

import (
	"errors"
	"fmt"
	"io"
	"path"
	"sort"
	"strings"
	"sync"
)

// FaultFS is a deterministic in-memory filesystem with injectable errors and
// hard crash points. It exists so the crash-recovery matrix can prove the
// store's commit protocol correct at every step, not just assert it.
//
// Semantics mirror a POSIX filesystem under a strict durability model:
//
//   - Every file tracks two byte strings: data (what a live process sees)
//     and synced (what survives a crash). File.Sync promotes data to synced.
//   - Namespace operations (create, rename, remove) take effect immediately
//     for the live view but stay "pending" until SyncDir on the parent
//     directory makes them durable. A crash rolls back pending ops.
//   - Crash() simulates power loss: per the configured LossMode, unsynced
//     bytes are dropped entirely, half-kept (producing torn tails), or kept.
//
// Fault injection is driven by a monotonically increasing operation counter
// over mutating operations. CrashAt(k) makes the k-th mutating op take
// partial effect and then fail with ErrCrashed, after which every operation
// fails until Reset. FailAt(k, err) makes the k-th op fail with err without
// entering the crashed state, modelling a transient I/O error.
type FaultFS struct {
	mu      sync.Mutex
	files   map[string]*memFile
	dirs    map[string]bool
	pending []nsOp // namespace ops not yet made durable by SyncDir

	ops     int // mutating-op counter
	crashAt int // crash on the op with this ordinal (1-based); 0 = off
	failAt  int // fail the op with this ordinal (1-based); 0 = off
	failErr error
	crashed bool
	loss    LossMode
}

// LossMode selects what happens to unsynced bytes at crash time.
type LossMode int

const (
	// LossAll drops every unsynced byte: files revert to their last-synced
	// content and pending namespace ops are rolled back. The adversarial
	// maximum-loss model.
	LossAll LossMode = iota
	// LossHalf keeps half of each unsynced tail and keeps pending namespace
	// ops, producing torn WAL records and partially written segments.
	LossHalf
	// LossNone keeps everything written so far (the crash only interrupts
	// the process). Distinguishes "unsynced but present" from "lost".
	LossNone
)

// ErrCrashed is returned by every FaultFS operation after a crash point has
// fired, and by the op at the crash point itself.
var ErrCrashed = errors.New("faultfs: crashed")

// ErrInjected is the default error used by FailAt when none is given.
var ErrInjected = errors.New("faultfs: injected I/O error")

type nsOp struct {
	kind     byte // 'c' create, 'r' rename, 'm' remove
	name     string
	old      string   // rename source
	prior    *memFile // snapshot of durable state displaced by the op (nil = none)
	oldPrior *memFile // rename: durable state of the source before the op
}

type memFile struct {
	data   []byte
	synced []byte
}

func (f *memFile) clone() *memFile {
	if f == nil {
		return nil
	}
	c := &memFile{data: append([]byte(nil), f.data...), synced: append([]byte(nil), f.synced...)}
	return c
}

// NewFaultFS returns an empty in-memory filesystem with no faults armed.
func NewFaultFS() *FaultFS {
	return &FaultFS{files: map[string]*memFile{}, dirs: map[string]bool{"/": true, ".": true}}
}

// CrashAt arms a hard crash on the k-th mutating operation (1-based).
func (fs *FaultFS) CrashAt(k int) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.crashAt = k
}

// FailAt arms a transient error on the k-th mutating operation (1-based).
// A nil err injects ErrInjected.
func (fs *FaultFS) FailAt(k int, err error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err == nil {
		err = ErrInjected
	}
	fs.failAt, fs.failErr = k, err
}

// SetLossMode selects the crash retention model (default LossAll).
func (fs *FaultFS) SetLossMode(m LossMode) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.loss = m
}

// Ops reports how many mutating operations have run so far. Running a
// workload once without faults and reading Ops gives the matrix its bound.
func (fs *FaultFS) Ops() int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.ops
}

// Reset clears the crashed state and disarms faults, simulating the process
// restart that follows power loss. Durable state is preserved.
func (fs *FaultFS) Reset() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.crashed = false
	fs.crashAt, fs.failAt, fs.failErr = 0, 0, nil
}

// step gates a mutating operation: bumps the op counter and fires armed
// faults. Callers hold fs.mu. A non-nil return means the op must fail; at
// the crash point the loss model has already been applied when step returns.
func (fs *FaultFS) step() error {
	if fs.crashed {
		return ErrCrashed
	}
	fs.ops++
	if fs.failAt != 0 && fs.ops == fs.failAt {
		return fs.failErr
	}
	if fs.crashAt != 0 && fs.ops == fs.crashAt {
		fs.crashed = true
		fs.applyCrashLocked()
		return ErrCrashed
	}
	return nil
}

// applyCrashLocked applies the configured loss model to all files and
// pending namespace operations. Callers hold fs.mu.
func (fs *FaultFS) applyCrashLocked() {
	switch fs.loss {
	case LossNone:
		// Everything written survives; pending namespace ops survive too.
	case LossHalf:
		for _, f := range fs.files {
			if len(f.data) > len(f.synced) {
				keep := len(f.synced) + (len(f.data)-len(f.synced))/2
				f.data = f.data[:keep]
			} else if len(f.data) < len(f.synced) {
				// An unsynced truncation is undone by the crash.
				f.data = append([]byte(nil), f.synced...)
			}
			f.synced = append([]byte(nil), f.data...)
		}
	default: // LossAll
		for name, f := range fs.files {
			if f.synced == nil && fileWasCreatedPending(fs.pending, name) {
				continue // rolled back below with the namespace op
			}
			f.data = append([]byte(nil), f.synced...)
		}
		// Roll back pending namespace ops newest-first.
		for i := len(fs.pending) - 1; i >= 0; i-- {
			op := fs.pending[i]
			switch op.kind {
			case 'c':
				if op.prior == nil {
					delete(fs.files, op.name)
				} else {
					fs.files[op.name] = op.prior.clone()
				}
			case 'r':
				if op.prior == nil {
					delete(fs.files, op.name)
				} else {
					fs.files[op.name] = op.prior.clone()
				}
				if op.oldPrior != nil {
					fs.files[op.old] = op.oldPrior.clone()
				}
			case 'm':
				if op.prior != nil {
					fs.files[op.name] = op.prior.clone()
				}
			}
		}
	}
	fs.pending = nil
}

func fileWasCreatedPending(pending []nsOp, name string) bool {
	for _, op := range pending {
		if op.kind == 'c' && op.name == name && op.prior == nil {
			return true
		}
	}
	return false
}

// Crash forces an immediate crash outside any operation (e.g. between two
// workload steps). Idempotent.
func (fs *FaultFS) Crash() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.crashed {
		return
	}
	fs.crashed = true
	fs.applyCrashLocked()
}

// --- FS interface ---

// MkdirAll implements FS. Directory creation is considered instantly durable
// (the store only makes its fixed layout once).
func (fs *FaultFS) MkdirAll(dir string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.crashed {
		return ErrCrashed
	}
	d := path.Clean(dir)
	for d != "/" && d != "." && d != "" {
		fs.dirs[d] = true
		d = path.Dir(d)
	}
	return nil
}

// Create implements FS.
func (fs *FaultFS) Create(name string) (File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.step(); err != nil {
		return nil, err
	}
	name = path.Clean(name)
	var prior *memFile
	if old, ok := fs.files[name]; ok && old.synced != nil {
		prior = &memFile{data: append([]byte(nil), old.synced...), synced: append([]byte(nil), old.synced...)}
	}
	fs.files[name] = &memFile{}
	fs.pending = append(fs.pending, nsOp{kind: 'c', name: name, prior: prior})
	return &faultFile{fs: fs, name: name}, nil
}

// Append implements FS.
func (fs *FaultFS) Append(name string) (File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.step(); err != nil {
		return nil, err
	}
	name = path.Clean(name)
	if _, ok := fs.files[name]; !ok {
		fs.files[name] = &memFile{}
		fs.pending = append(fs.pending, nsOp{kind: 'c', name: name})
	}
	return &faultFile{fs: fs, name: name}, nil
}

// Open implements FS. Reads are not mutating and never consume an op.
func (fs *FaultFS) Open(name string) (ReadFile, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.crashed {
		return nil, ErrCrashed
	}
	f, ok := fs.files[path.Clean(name)]
	if !ok {
		return nil, &pathError{"open", name}
	}
	return &faultReadFile{data: append([]byte(nil), f.data...)}, nil
}

// Rename implements FS.
func (fs *FaultFS) Rename(oldpath, newpath string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.step(); err != nil {
		return err
	}
	oldpath, newpath = path.Clean(oldpath), path.Clean(newpath)
	src, ok := fs.files[oldpath]
	if !ok {
		return &pathError{"rename", oldpath}
	}
	op := nsOp{kind: 'r', name: newpath, old: oldpath}
	if dst, ok := fs.files[newpath]; ok && dst.synced != nil {
		op.prior = &memFile{data: append([]byte(nil), dst.synced...), synced: append([]byte(nil), dst.synced...)}
	}
	if src.synced != nil {
		op.oldPrior = &memFile{data: append([]byte(nil), src.synced...), synced: append([]byte(nil), src.synced...)}
	}
	fs.files[newpath] = src
	delete(fs.files, oldpath)
	fs.pending = append(fs.pending, op)
	return nil
}

// Remove implements FS.
func (fs *FaultFS) Remove(name string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.step(); err != nil {
		return err
	}
	name = path.Clean(name)
	f, ok := fs.files[name]
	if !ok {
		return &pathError{"remove", name}
	}
	op := nsOp{kind: 'm', name: name}
	if f.synced != nil {
		op.prior = &memFile{data: append([]byte(nil), f.synced...), synced: append([]byte(nil), f.synced...)}
	}
	delete(fs.files, name)
	fs.pending = append(fs.pending, op)
	return nil
}

// Truncate implements FS.
func (fs *FaultFS) Truncate(name string, size int64) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.step(); err != nil {
		return err
	}
	f, ok := fs.files[path.Clean(name)]
	if !ok {
		return &pathError{"truncate", name}
	}
	if size < 0 || size > int64(len(f.data)) {
		return fmt.Errorf("faultfs: truncate %s to %d out of range", name, size)
	}
	f.data = f.data[:size]
	return nil
}

// ReadDir implements FS.
func (fs *FaultFS) ReadDir(dir string) ([]string, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.crashed {
		return nil, ErrCrashed
	}
	dir = path.Clean(dir)
	var names []string
	for name := range fs.files {
		if path.Dir(name) == dir {
			names = append(names, path.Base(name))
		}
	}
	sort.Strings(names)
	return names, nil
}

// SyncDir implements FS: pending namespace operations under dir (recursively)
// become durable, and the durable content of renamed/created files is pinned
// at their current synced bytes.
func (fs *FaultFS) SyncDir(dir string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.step(); err != nil {
		return err
	}
	dir = path.Clean(dir)
	kept := fs.pending[:0]
	for _, op := range fs.pending {
		if !underDir(op.name, dir) && !(op.kind == 'r' && underDir(op.old, dir)) {
			kept = append(kept, op)
			continue
		}
		if op.kind == 'c' || op.kind == 'r' {
			if f, ok := fs.files[op.name]; ok && f.synced == nil {
				f.synced = []byte{}
			}
		}
	}
	fs.pending = append([]nsOp(nil), kept...)
	return nil
}

func underDir(name, dir string) bool {
	return path.Dir(name) == dir || strings.HasPrefix(name, dir+"/")
}

type faultFile struct {
	fs     *FaultFS
	name   string
	closed bool
}

func (f *faultFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.closed {
		return 0, errors.New("faultfs: write on closed file")
	}
	if err := f.fs.step(); err != nil {
		// Crash mid-write: model a partial write of half the buffer.
		if errors.Is(err, ErrCrashed) && f.fs.loss != LossAll {
			if mf, ok := f.fs.files[f.name]; ok {
				mf.data = append(mf.data, p[:len(p)/2]...)
				if f.fs.loss == LossNone || f.fs.loss == LossHalf {
					mf.synced = append([]byte(nil), mf.data...)
				}
			}
		}
		return 0, err
	}
	mf, ok := f.fs.files[f.name]
	if !ok {
		return 0, &pathError{"write", f.name}
	}
	mf.data = append(mf.data, p...)
	return len(p), nil
}

func (f *faultFile) Sync() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.closed {
		return errors.New("faultfs: sync on closed file")
	}
	if err := f.fs.step(); err != nil {
		return err
	}
	mf, ok := f.fs.files[f.name]
	if !ok {
		return &pathError{"sync", f.name}
	}
	mf.synced = append([]byte(nil), mf.data...)
	return nil
}

func (f *faultFile) Close() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.closed {
		return nil
	}
	f.closed = true
	if f.fs.crashed {
		return ErrCrashed
	}
	return nil
}

type faultReadFile struct {
	data   []byte
	closed bool
}

func (f *faultReadFile) ReadAt(p []byte, off int64) (int, error) {
	if f.closed {
		return 0, errors.New("faultfs: read on closed file")
	}
	if off < 0 || off > int64(len(f.data)) {
		return 0, io.EOF
	}
	n := copy(p, f.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *faultReadFile) Size() (int64, error) { return int64(len(f.data)), nil }
func (f *faultReadFile) Close() error         { f.closed = true; return nil }

type pathError struct {
	op   string
	name string
}

func (e *pathError) Error() string { return fmt.Sprintf("faultfs: %s %s: no such file", e.op, e.name) }

// IsNotExist reports whether err is a FaultFS or OS "file does not exist".
func IsNotExist(err error) bool {
	var pe *pathError
	if errors.As(err, &pe) {
		return true
	}
	return errorsIsNotExist(err)
}
