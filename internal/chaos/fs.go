package chaos

import (
	"io/fs"
	"os"
	"path/filepath"
	"syscall"
)

// FS is the slice of the filesystem the point cache uses. The production
// implementation passes straight through to the os package; Flaky wraps
// any FS with injected EIO/ENOSPC/torn-write faults so tests and drills
// can exercise every degradation path deterministically.
type FS interface {
	MkdirAll(path string, perm fs.FileMode) error
	ReadFile(name string) ([]byte, error)
	ReadDir(name string) ([]fs.DirEntry, error)
	CreateTemp(dir, pattern string) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
}

// File is the writable-file slice of FS consumers' needs.
type File interface {
	Write(p []byte) (int, error)
	Close() error
	Name() string
}

// OS returns the pass-through filesystem.
func OS() FS { return osFS{} }

type osFS struct{}

func (osFS) MkdirAll(path string, perm fs.FileMode) error { return os.MkdirAll(path, perm) }
func (osFS) ReadFile(name string) ([]byte, error)         { return os.ReadFile(name) }
func (osFS) ReadDir(name string) ([]fs.DirEntry, error)   { return os.ReadDir(name) }
func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }

func (osFS) CreateTemp(dir, pattern string) (File, error) {
	return os.CreateTemp(dir, pattern)
}

// Flaky wraps a filesystem with fault injection: reads and writes
// consult the injector (labelled "read:<base>", "write:<label>") and
// fail with realistic errors when the schedule says so. Torn writes
// persist half the buffer before failing — the on-disk state of a
// process killed mid-write — so the cache's temp-file cleanup meets
// real partial bytes, not just error returns. Rename, remove and mkdir pass
// through untouched (the cache's atomic-rename protocol
// corrupts through torn temp-file writes, never through rename).
func Flaky(base FS, inj *Injector) FS {
	return &flakyFS{base: base, inj: inj}
}

type flakyFS struct {
	base FS
	inj  *Injector
}

// label names a file stably across temp directories: temp files are
// labelled by their creation pattern (so every ".tmp-*" cache write
// shares one decision sequence), everything else by base name.
func label(name string) string { return filepath.Base(name) }

func (f *flakyFS) MkdirAll(path string, perm fs.FileMode) error { return f.base.MkdirAll(path, perm) }

// ReadDir passes through: directory listings are metadata (the cache's
// segment discovery); content faults are injected on the files.
func (f *flakyFS) ReadDir(name string) ([]fs.DirEntry, error) { return f.base.ReadDir(name) }
func (f *flakyFS) Rename(oldpath, newpath string) error       { return f.base.Rename(oldpath, newpath) }
func (f *flakyFS) Remove(name string) error                   { return f.base.Remove(name) }

func (f *flakyFS) ReadFile(name string) ([]byte, error) {
	if ev, ok := f.inj.Decide(OpRead, "read:"+label(name)); ok && ev.Kind == ReadErr {
		return nil, &fs.PathError{Op: "read", Path: name, Err: syscall.EIO}
	}
	return f.base.ReadFile(name)
}

func (f *flakyFS) CreateTemp(dir, pattern string) (File, error) {
	file, err := f.base.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &flakyFile{File: file, inj: f.inj, label: pattern}, nil
}

// flakyFile injects write faults into one open file.
type flakyFile struct {
	File
	inj   *Injector
	label string
}

func (f *flakyFile) Write(p []byte) (int, error) {
	ev, ok := f.inj.Decide(OpWrite, "write:"+f.label)
	if !ok {
		return f.File.Write(p)
	}
	switch ev.Kind {
	case WriteErr:
		return 0, &fs.PathError{Op: "write", Path: f.Name(), Err: syscall.EIO}
	case NoSpace:
		return 0, &fs.PathError{Op: "write", Path: f.Name(), Err: syscall.ENOSPC}
	case TornWrite:
		// Persist half the buffer, then fail: the caller sees an error,
		// the disk keeps a torn record.
		n, _ := f.File.Write(p[:len(p)/2])
		return n, &fs.PathError{Op: "write", Path: f.Name(), Err: syscall.EIO}
	}
	return f.File.Write(p)
}
