// Package store implements the durable columnar table layer: immutable
// segment files of v2-codec frames under a versioned, crash-safe manifest.
//
// The design follows the MANIFEST/WAL/checkpoint discipline of LSM stores:
//
//   - data lives in immutable segment files (segment.go) — checksummed v2
//     frames plus a checksummed footer carrying per-column min/max zone maps,
//     the one structure a filtered scan prunes segments and frames with;
//   - which tables exist, and which segments make them up, is recorded by a
//     manifest reconstructed on open from an append-only write-ahead log of
//     CRC-framed records (manifest.go); a commit is the fsync of its WAL
//     record, never anything earlier;
//   - checkpoints rewrite the log as a single snapshot record through the
//     temp-file + atomic-rename idiom, so the log stays short without ever
//     having a moment where no valid manifest exists on disk;
//   - recovery on open replays the log, discards the torn tail a crash may
//     have left, verifies every referenced segment's footer checksum
//     (quarantining failures), and deletes unreferenced segment files left
//     behind by commits that never reached their WAL record.
//
// Everything the store does to disk goes through the FS interface below, so
// the crash-recovery tests can substitute FaultFS (faultfs.go) — a
// deterministic in-memory filesystem with injectable errors and hard crash
// points — and prove, for every injected point in the write/commit/checkpoint
// path, that reopening yields exactly the pre-commit or post-commit manifest.
package store

import (
	"io"
	"os"
	"path/filepath"
	"sort"
)

// FS is the slice of filesystem behaviour the store depends on. OSFS is the
// real implementation; FaultFS is the deterministic in-memory one the
// crash-recovery matrix drives.
type FS interface {
	// MkdirAll creates dir and any missing parents.
	MkdirAll(dir string) error
	// Create opens name for writing, truncating any existing content.
	Create(name string) (File, error)
	// Append opens name for appending, creating it when missing.
	Append(name string) (File, error)
	// Open opens name read-only.
	Open(name string) (ReadFile, error)
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes name.
	Remove(name string) error
	// Truncate shortens name to size bytes.
	Truncate(name string, size int64) error
	// ReadDir lists the file names (not paths) inside dir, sorted.
	ReadDir(dir string) ([]string, error)
	// SyncDir makes preceding creates/renames/removes inside dir durable.
	SyncDir(dir string) error
}

// File is a writable file handle.
type File interface {
	io.Writer
	// Sync makes all written bytes durable.
	Sync() error
	io.Closer
}

// ReadFile is a read-only file handle.
type ReadFile interface {
	io.ReaderAt
	io.Closer
	// Size returns the file's current length in bytes.
	Size() (int64, error)
}

// OSFS is the production FS backed by the real filesystem.
type OSFS struct{}

// MkdirAll implements FS.
func (OSFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

// Create implements FS.
func (OSFS) Create(name string) (File, error) {
	f, err := os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// Append implements FS.
func (OSFS) Append(name string) (File, error) {
	f, err := os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// Open implements FS.
func (OSFS) Open(name string) (ReadFile, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	return osReadFile{f}, nil
}

type osReadFile struct{ *os.File }

func (f osReadFile) Size() (int64, error) {
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// Rename implements FS.
func (OSFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// Remove implements FS.
func (OSFS) Remove(name string) error { return os.Remove(name) }

// Truncate implements FS.
func (OSFS) Truncate(name string, size int64) error { return os.Truncate(name, size) }

// ReadDir implements FS.
func (OSFS) ReadDir(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

func errorsIsNotExist(err error) bool { return os.IsNotExist(err) }

// SyncDir implements FS. Directory fsync is how a rename/create becomes
// durable on POSIX systems; platforms where directories cannot be fsynced
// degrade to a no-op.
func (OSFS) SyncDir(dir string) error {
	d, err := os.Open(filepath.Clean(dir))
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		// Some filesystems refuse fsync on directories; the rename itself is
		// still atomic, so degrade rather than fail the commit.
		return nil
	}
	return nil
}
