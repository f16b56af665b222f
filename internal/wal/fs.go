package wal

import (
	"io"
	"os"
	"path/filepath"
)

// File is the journal's view of one writable file. It is the narrow
// surface the committer, rotation, and snapshot paths touch, which makes
// it the natural seam for fault injection: a wrapped File can fail a
// Sync, tear a Write, or slow the disk without the journal knowing.
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// FS is the journal's filesystem surface. Every file operation the
// journal performs — segment creation, snapshot tmp/rename, pruning,
// directory scans, recovery reads — goes through an FS, so tests and the
// chaos harness can interpose failures (fsync errors, ENOSPC, torn
// appends, slow disk) at exactly the boundary a real disk would produce
// them. The default implementation is the real OS filesystem.
type FS interface {
	// MkdirAll creates dir and parents.
	MkdirAll(dir string, perm os.FileMode) error
	// Create opens name for writing. excl refuses an existing file
	// (segments must be fresh); otherwise the file is truncated
	// (snapshot tmp files are overwritten).
	Create(name string, excl bool) (File, error)
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes a file.
	Remove(name string) error
	// ReadDir lists a directory.
	ReadDir(dir string) ([]os.DirEntry, error)
	// ReadFile reads a whole file (recovery path).
	ReadFile(name string) ([]byte, error)
	// SyncDir fsyncs a directory, making renames within it durable.
	SyncDir(dir string) error
}

// OS is the real filesystem — the FS every production journal uses.
var OS FS = osFS{}

type osFS struct{}

func (osFS) MkdirAll(dir string, perm os.FileMode) error { return os.MkdirAll(dir, perm) }

func (osFS) Create(name string, excl bool) (File, error) {
	flag := os.O_CREATE | os.O_WRONLY
	if excl {
		flag |= os.O_EXCL
	} else {
		flag |= os.O_TRUNC
	}
	return os.OpenFile(name, flag, 0o644)
}

func (osFS) Rename(oldpath, newpath string) error      { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                  { return os.Remove(name) }
func (osFS) ReadDir(dir string) ([]os.DirEntry, error) { return os.ReadDir(dir) }
func (osFS) ReadFile(name string) ([]byte, error)      { return os.ReadFile(name) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(filepath.Clean(dir))
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
