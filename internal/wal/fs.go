// Package wal implements the durable write path of a collection: a
// per-collection append-only log of update batches with checksummed,
// length-prefixed records, group-committed fsyncs, torn-tail-tolerant
// recovery, and an injectable filesystem layer so every crash window
// can be exercised deterministically in tests.
package wal

import (
	"io"
	"os"
	"path/filepath"
	"sort"
)

// FS is the filesystem surface the durable write path runs on. The
// production implementation is osFS; CrashFS (crashfs.go) is an
// in-memory model with syscall-level fault injection and power-loss
// simulation. Everything the collection persists — the WAL, document
// images, temp files, directory fsyncs — goes through one FS so a
// crash test covers the whole write path, not just the log.
type FS interface {
	// MkdirAll creates dir and any missing parents.
	MkdirAll(dir string) error
	// ReadDir returns the names (not paths) of the plain files in dir.
	ReadDir(dir string) ([]string, error)
	// Open opens the named file for reading.
	Open(name string) (io.ReadCloser, error)
	// Create creates (or truncates) the named file for writing.
	Create(name string) (File, error)
	// OpenAppend opens the named file for appending, creating it if
	// needed.
	OpenAppend(name string) (File, error)
	// Rename atomically replaces newname with oldname. Durability of
	// the new directory entry requires a subsequent SyncDir.
	Rename(oldname, newname string) error
	// Remove deletes the named file (no error if it does not exist).
	Remove(name string) error
	// SyncDir fsyncs the directory itself, making completed
	// create/rename/remove operations durable across power loss. On
	// ext4 the rename alone orders the data but does not persist the
	// directory entry.
	SyncDir(dir string) error
}

// File is a writable file handle.
type File interface {
	io.Writer
	// Sync flushes written data to stable storage.
	Sync() error
	Close() error
	// Name returns the path the file was opened with.
	Name() string
}

// osFS is the real operating-system implementation of FS.
type osFS struct{}

// OS is the shared osFS instance.
var OS FS = osFS{}

func (osFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (osFS) ReadDir(dir string) ([]string, error) {
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

func (osFS) Open(name string) (io.ReadCloser, error) { return os.Open(name) }

func (osFS) Create(name string) (File, error) {
	return os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
}

func (osFS) OpenAppend(name string) (File, error) {
	return os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
}

func (osFS) Rename(oldname, newname string) error { return os.Rename(oldname, newname) }

func (osFS) Remove(name string) error {
	err := os.Remove(name)
	if err != nil && os.IsNotExist(err) {
		return nil
	}
	return err
}

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(filepath.Clean(dir))
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
