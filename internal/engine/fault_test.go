package engine

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"amstrack/internal/exact"
	"amstrack/internal/oplog"
	"amstrack/internal/refmodel"
	"amstrack/internal/stream"
	"amstrack/internal/xrand"
)

// faultOpts is durOpts plus an injected fault filesystem and segment
// rolling (the torture tests exercise multi-segment recovery).
func faultOpts(dir string, ffs *oplog.FaultFS) Options {
	opts := durOpts(dir)
	opts.FS = ffs
	opts.SegmentOps = 64
	return opts
}

// keepFS is a passthrough filesystem that keeps the last contents of
// every file it removes, so a torture test can reconstruct every op that
// ever reached a log — segments compacted away included.
type keepFS struct {
	oplog.FS
	mu      sync.Mutex
	removed map[string][]byte
}

func newKeepFS() *keepFS { return &keepFS{FS: oplog.OSFS, removed: map[string][]byte{}} }

func (k *keepFS) Remove(name string) error {
	if data, err := k.FS.ReadFile(name); err == nil {
		k.mu.Lock()
		k.removed[name] = data
		k.mu.Unlock()
	}
	return k.FS.Remove(name)
}

// loggedModel feeds the reference model relation "f" with every op
// record of every log segment of dir — the files still on disk plus the
// ones kfs saw removed — cut at a torn tail. That is exactly the op
// multiset recovery owes: the checkpoint covers the segments it retired,
// replay the rest.
func loggedModel(t *testing.T, dir string, kfs *keepFS) *refmodel.Model {
	t.Helper()
	m := newModel(t, durOpts(""))
	f := modelDefine(t, m, "f", Schema{})
	segs := map[string][]byte{}
	for path, data := range kfs.removed {
		segs[path] = data
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		path := filepath.Join(dir, ent.Name())
		if segs[path], err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
	}
	for path, data := range segs {
		name, _, _, ok := relNameFromFile(filepath.Base(path))
		if !ok {
			continue
		}
		if name != "f" {
			t.Fatalf("unexpected relation log %s", path)
		}
		lr := oplog.NewReader(bytes.NewReader(data))
		for {
			op, err := lr.Next()
			if err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) {
				break
			}
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			if op.Kind == stream.Delete {
				_ = f.Delete(op.Value)
			} else {
				f.Insert(op.Value)
			}
		}
	}
	return m
}

// TestFsyncFailureSurfaces: a failing fsync must error on Sync and
// Checkpoint, never report durability it does not have. The checkpoint
// hits the failure after the epoch fence, which poisons the logs — and a
// restart recovers every op that reached the OS.
func TestFsyncFailureSurfaces(t *testing.T) {
	dir := t.TempDir()
	ffs := oplog.NewFaultFS(nil)
	e, err := Open(faultOpts(dir, ffs))
	if err != nil {
		t.Fatal(err)
	}
	f, err := e.Define("f")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		f.Insert(uint64(i % 11))
	}
	if err := e.Sync(); err != nil {
		t.Fatalf("healthy Sync: %v", err)
	}
	boom := errors.New("fsync: device on fire")
	ffs.FailSync(boom)
	for i := 0; i < 10; i++ {
		f.Insert(uint64(i))
	}
	if err := e.Sync(); err == nil {
		t.Fatal("Sync with failing fsync reported success")
	}
	if _, err := e.Checkpoint(); err == nil {
		t.Fatal("Checkpoint with failing fsync reported success")
	}
	ffs.FailSync(nil)
	// The failure hit after the epoch fence: the logs must be poisoned
	// (ops since the fence may not be durable) and stay poisoned.
	if f.Err() == nil {
		t.Fatal("post-fence fsync failure did not poison the log")
	}
	_ = e.Close()
	// Every op was OS-owned (flushed) before the process "died", so the
	// restart recovers all 210.
	back, err := Open(durOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	rel, err := back.Get("f")
	if err != nil {
		t.Fatal(err)
	}
	if n := rel.Len(); n != 210 {
		t.Fatalf("recovered Len = %d, want 210", n)
	}
}

// TestTornWriteRecovery: an ENOSPC that tears a write at byte
// granularity must surface as a sticky error, and recovery must cut the
// log back to the last whole record — exactly budget/recordSize ops
// survive.
func TestTornWriteRecovery(t *testing.T) {
	dir := t.TempDir()
	ffs := oplog.NewFaultFS(nil)
	opts := durOpts(dir)
	opts.FS = ffs
	e, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	f, err := e.Define("f")
	if err != nil {
		t.Fatal(err)
	}
	// Room for exactly 100 records plus 5 torn bytes of the 101st.
	const whole = 100
	ffs.LimitWriteBytes(whole*oplog.MinRecordSize + 5)
	for i := 0; i < 300; i++ {
		f.Insert(uint64(i % 50))
	}
	if err := f.Drain(); err == nil {
		t.Fatal("no sticky error after the disk filled")
	}
	if !errors.Is(f.Err(), oplog.ErrNoSpace) {
		t.Fatalf("sticky error = %v, want ErrNoSpace", f.Err())
	}
	_ = e.Close()

	back, err := Open(durOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	rel, err := back.Get("f")
	if err != nil {
		t.Fatal(err)
	}
	if n := rel.Len(); n != whole {
		t.Fatalf("recovered Len = %d, want %d (the whole records before the tear)", n, whole)
	}
}

// crashPoints is the named crash-point matrix of the checkpoint commit
// protocol (see writeFileAtomic and the compaction loops).
var crashPoints = []string{
	"ckpt-pre-fsync",
	"ckpt-post-fsync-pre-rename",
	"ckpt-post-rename-pre-unlink",
	"compact-mid",
}

// TestCrashPointMatrix kills the engine at every named crash point of a
// checkpoint and asserts recovery is bit-identical to the reference
// model fed the same op stream: everything was fsynced before
// the doomed checkpoint, so whether it died before or after the rename
// commit, no op may be lost or double-applied.
func TestCrashPointMatrix(t *testing.T) {
	for _, point := range crashPoints {
		t.Run(point, func(t *testing.T) {
			dir := t.TempDir()
			ffs := oplog.NewFaultFS(nil)
			e, err := Open(faultOpts(dir, ffs))
			if err != nil {
				t.Fatal(err)
			}
			ingestPhase1(e, t)
			if _, err := e.Checkpoint(); err != nil {
				t.Fatalf("baseline checkpoint: %v", err)
			}
			ingestPhase2(e, t)
			if err := e.Sync(); err != nil {
				t.Fatal(err)
			}
			ffs.CrashAt(point, 1)
			if _, err := e.Checkpoint(); err == nil {
				t.Fatalf("checkpoint survived a crash at %s", point)
			}
			if !ffs.Crashed() {
				t.Fatalf("crash point %s never fired", point)
			}
			_ = e.Close()

			back, err := Open(durOpts(dir))
			if err != nil {
				t.Fatalf("recovery after crash at %s: %v", point, err)
			}
			defer back.Close()
			expectEngineMatchesModel(t, back, phaseModel(t, true))
		})
	}
}

// TestTortureConcurrentCrash is the torture loop: ingest runs WHILE the
// checkpoint crashes at each named point. Ops synced before the crash
// must all survive; ops racing the crash may be lost (they were never
// acknowledged durable) but never corrupt the image. The recovered
// relation must match, byte for byte, the reference model fed every op
// record that reached a log segment before the crash — whether the
// recovered checkpoint absorbed its segment or replay re-read it.
func TestTortureConcurrentCrash(t *testing.T) {
	for round, point := range crashPoints {
		t.Run(point, func(t *testing.T) {
			dir := t.TempDir()
			kfs := newKeepFS()
			ffs := oplog.NewFaultFS(kfs)
			opts := faultOpts(dir, ffs)
			opts.SegmentOps = 32
			e, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			f, err := e.Define("f")
			if err != nil {
				t.Fatal(err)
			}
			const pre, racing = 400, 400
			synced := exact.NewHistogram()
			rng := xrand.New(0xBEEF + uint64(round))
			for i := 0; i < pre; i++ {
				v := rng.Uint64n(64)
				f.Insert(v)
				synced.Insert(v)
			}
			if err := e.Sync(); err != nil {
				t.Fatal(err)
			}
			ffs.CrashAt(point, 1)
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				r := xrand.New(0xD00D + uint64(round))
				for i := 0; i < racing; i++ {
					f.Insert(r.Uint64n(64))
				}
			}()
			if _, err := e.Checkpoint(); err == nil {
				t.Fatalf("checkpoint survived a crash at %s", point)
			}
			wg.Wait()
			_ = e.Close()

			// The model reads the disk image before recovery rewrites it.
			m := loggedModel(t, dir, kfs)
			logged := m.Relation("f").Histogram()
			synced.Each(func(v uint64, n int64) {
				if got := logged.Frequency(v); got < n {
					t.Fatalf("synced value %d: %d logged, %d synced before the crash", v, got, n)
				}
			})
			back, err := Open(durOpts(dir))
			if err != nil {
				t.Fatalf("recovery after crash at %s: %v", point, err)
			}
			defer back.Close()
			expectEngineMatchesModel(t, back, m)
			rel, err := back.Get("f")
			if err != nil {
				t.Fatal(err)
			}
			if n := rel.Len(); n < pre || n > pre+racing {
				t.Fatalf("recovered Len = %d, want within [%d, %d] (synced ops kept, racing ops at most lost)",
					n, pre, pre+racing)
			}
		})
	}
}

// TestCheckpointerSurvivesCrashedFS: after an injected death the
// background checkpointer keeps attempting (and failing) checkpoints
// without wedging, and Close still returns. Regression guard for the
// stop path racing a dead filesystem.
func TestCheckpointerSurvivesCrashedFS(t *testing.T) {
	dir := t.TempDir()
	ffs := oplog.NewFaultFS(nil)
	opts := faultOpts(dir, ffs)
	opts.CheckpointInterval = 5 * time.Millisecond
	e, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	f, err := e.Define("f")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		f.Insert(uint64(i))
	}
	ffs.CrashNow()
	time.Sleep(30 * time.Millisecond) // a few doomed checkpointer ticks
	// The only assertion is liveness: Close must stop the checkpointer
	// and return even though every filesystem call now fails (a wedge
	// here would time the whole test binary out).
	_ = e.Close()
}
