// Filesystem seam for the durability stack. Production code runs on the
// passthrough OSFS; the fault-injection tests swap in a FaultFS that can
// fail fsync, run out of space mid-write (tearing the write at byte
// granularity), and die at named crash points — after which every
// mutating call fails, which is exactly the shape of a kill -9: bytes
// already written survive in the page cache, buffered data is lost
// because nothing can flush it anymore.
package oplog

import (
	"errors"
	"io"
	iofs "io/fs"
	"os"
	"sync"
)

// FS is the filesystem surface the engine's durability layer needs. It
// is deliberately narrow: append handles, whole-file reads (segments are
// bounded by the roll threshold), directory scans, and the rename/
// remove/truncate/dirsync calls of the checkpoint commit protocol.
type FS interface {
	OpenFile(name string, flag int, perm iofs.FileMode) (File, error)
	ReadFile(name string) ([]byte, error)
	ReadDir(name string) ([]iofs.DirEntry, error)
	MkdirAll(path string, perm iofs.FileMode) error
	Remove(name string) error
	Rename(oldpath, newpath string) error
	Truncate(name string, size int64) error
	// SyncDir fsyncs a directory, making renames and unlinks inside it
	// durable.
	SyncDir(name string) error
	// Crash is a named crash point: a nil error on the real filesystem,
	// an injected-death trigger on a FaultFS armed for that point.
	// Durability code calls it at the commit-protocol boundaries
	// (ckpt-pre-fsync, ckpt-post-fsync-pre-rename,
	// ckpt-post-rename-pre-unlink, compact-mid).
	Crash(point string) error
}

// File is the open-handle surface: write, fsync, close.
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// OSFS is the passthrough implementation over the real filesystem.
var OSFS FS = osFS{}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm iofs.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}
func (osFS) ReadFile(name string) ([]byte, error)           { return os.ReadFile(name) }
func (osFS) ReadDir(name string) ([]iofs.DirEntry, error)   { return os.ReadDir(name) }
func (osFS) MkdirAll(path string, perm iofs.FileMode) error { return os.MkdirAll(path, perm) }
func (osFS) Remove(name string) error                       { return os.Remove(name) }
func (osFS) Rename(oldpath, newpath string) error           { return os.Rename(oldpath, newpath) }
func (osFS) Truncate(name string, size int64) error         { return os.Truncate(name, size) }
func (osFS) Crash(string) error                             { return nil }

func (osFS) SyncDir(name string) error {
	d, err := os.Open(name)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Injected-failure sentinels. ErrInjectedCrash marks the simulated
// process death; ErrNoSpace the simulated full disk.
var (
	ErrInjectedCrash = errors.New("oplog: injected crash")
	ErrNoSpace       = errors.New("oplog: injected ENOSPC")
)

// FaultFS wraps a base FS (nil → OSFS) with injectable failures. All
// methods are safe for concurrent use. Once the FS has crashed — via an
// armed crash point or CrashNow — every call fails with
// ErrInjectedCrash: the bytes that reached the base FS before the crash
// are what a restarted process will find.
type FaultFS struct {
	Base FS

	mu       sync.Mutex
	dead     bool
	syncErr  error
	budgeted bool
	budget   int64          // write bytes remaining before ErrNoSpace
	crashArm map[string]int // point → remaining hits before death (1 = next hit)
}

// NewFaultFS wraps base (nil → OSFS).
func NewFaultFS(base FS) *FaultFS {
	if base == nil {
		base = OSFS
	}
	return &FaultFS{Base: base, crashArm: map[string]int{}}
}

// FailSync makes every future Sync and SyncDir fail with err; nil
// restores normal behavior.
func (f *FaultFS) FailSync(err error) {
	f.mu.Lock()
	f.syncErr = err
	f.mu.Unlock()
}

// LimitWriteBytes allows n more bytes of file writes; the write that
// crosses the budget lands only its in-budget prefix (a torn write at
// byte granularity) and returns ErrNoSpace, as do all writes after it.
func (f *FaultFS) LimitWriteBytes(n int64) {
	f.mu.Lock()
	f.budgeted, f.budget = true, n
	f.mu.Unlock()
}

// CrashAt arms the named crash point: the hit-th call of Crash(point)
// (1 = next) kills the filesystem. See Crash on FS.
func (f *FaultFS) CrashAt(point string, hit int) {
	if hit < 1 {
		hit = 1
	}
	f.mu.Lock()
	f.crashArm[point] = hit
	f.mu.Unlock()
}

// CrashNow kills the filesystem immediately.
func (f *FaultFS) CrashNow() {
	f.mu.Lock()
	f.dead = true
	f.mu.Unlock()
}

// Crashed reports whether an injected crash has fired.
func (f *FaultFS) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dead
}

// check is the common per-call gate.
func (f *FaultFS) check() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.dead {
		return ErrInjectedCrash
	}
	return nil
}

func (f *FaultFS) Crash(point string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.dead {
		return ErrInjectedCrash
	}
	if n, ok := f.crashArm[point]; ok {
		if n <= 1 {
			f.dead = true
			return ErrInjectedCrash
		}
		f.crashArm[point] = n - 1
	}
	return nil
}

func (f *FaultFS) OpenFile(name string, flag int, perm iofs.FileMode) (File, error) {
	if err := f.check(); err != nil {
		return nil, err
	}
	file, err := f.Base.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, f: file}, nil
}

func (f *FaultFS) ReadFile(name string) ([]byte, error) {
	if err := f.check(); err != nil {
		return nil, err
	}
	return f.Base.ReadFile(name)
}

func (f *FaultFS) ReadDir(name string) ([]iofs.DirEntry, error) {
	if err := f.check(); err != nil {
		return nil, err
	}
	return f.Base.ReadDir(name)
}

func (f *FaultFS) MkdirAll(path string, perm iofs.FileMode) error {
	if err := f.check(); err != nil {
		return err
	}
	return f.Base.MkdirAll(path, perm)
}

func (f *FaultFS) Remove(name string) error {
	if err := f.check(); err != nil {
		return err
	}
	return f.Base.Remove(name)
}

func (f *FaultFS) Rename(oldpath, newpath string) error {
	if err := f.check(); err != nil {
		return err
	}
	return f.Base.Rename(oldpath, newpath)
}

func (f *FaultFS) Truncate(name string, size int64) error {
	if err := f.check(); err != nil {
		return err
	}
	return f.Base.Truncate(name, size)
}

func (f *FaultFS) SyncDir(name string) error {
	f.mu.Lock()
	dead, syncErr := f.dead, f.syncErr
	f.mu.Unlock()
	if dead {
		return ErrInjectedCrash
	}
	if syncErr != nil {
		return syncErr
	}
	return f.Base.SyncDir(name)
}

// faultFile applies the write budget and sync failures to one handle.
type faultFile struct {
	fs *FaultFS
	f  File
}

func (w *faultFile) Write(p []byte) (int, error) {
	w.fs.mu.Lock()
	if w.fs.dead {
		w.fs.mu.Unlock()
		return 0, ErrInjectedCrash
	}
	allow := len(p)
	var inject error
	if w.fs.budgeted {
		if int64(allow) > w.fs.budget {
			allow, inject = int(w.fs.budget), ErrNoSpace
		}
		w.fs.budget -= int64(allow)
	}
	w.fs.mu.Unlock()
	n := 0
	if allow > 0 {
		var err error
		n, err = w.f.Write(p[:allow])
		if err != nil {
			return n, err
		}
	}
	if inject != nil {
		return n, inject
	}
	return n, nil
}

func (w *faultFile) Sync() error {
	w.fs.mu.Lock()
	dead, syncErr := w.fs.dead, w.fs.syncErr
	w.fs.mu.Unlock()
	if dead {
		return ErrInjectedCrash
	}
	if syncErr != nil {
		return syncErr
	}
	return w.f.Sync()
}

// Close always closes the underlying handle (no fd leaks in torture
// loops) but reports the injected death when the FS is dead.
func (w *faultFile) Close() error {
	err := w.f.Close()
	if w.fs.Crashed() {
		return ErrInjectedCrash
	}
	return err
}
