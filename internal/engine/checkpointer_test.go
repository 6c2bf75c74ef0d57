package engine

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"amstrack/internal/oplog"
	"amstrack/internal/xrand"
)

// TestBackgroundCheckpointTimer: with CheckpointInterval set, checkpoints
// happen on their own, the stats record them, and a restart recovers the
// full state without anyone ever calling Checkpoint.
func TestBackgroundCheckpointTimer(t *testing.T) {
	dir := t.TempDir()
	opts := durOpts(dir)
	opts.CheckpointInterval = 20 * time.Millisecond
	e, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	f, err := e.Define("f")
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(42)
	total := 0
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		for i := 0; i < 100; i++ {
			f.Insert(rng.Uint64n(1000))
		}
		total += 100
		st := e.DurabilityStats()
		if st.Checkpoints >= 2 && !st.LastCheckpointAt.IsZero() {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	st := e.DurabilityStats()
	if st.Checkpoints < 2 {
		t.Fatalf("background checkpointer took %d checkpoints in 2s at a 20ms interval", st.Checkpoints)
	}
	if st.LastCheckpointAt.IsZero() || st.LastCheckpointBytes == 0 {
		t.Fatalf("stats not recorded: at=%v bytes=%d", st.LastCheckpointAt, st.LastCheckpointBytes)
	}
	if st.LastCheckpointError != "" {
		t.Fatalf("background checkpoint failed: %s", st.LastCheckpointError)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	back, err := Open(durOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	rel, err := back.Get("f")
	if err != nil {
		t.Fatal(err)
	}
	if n := rel.Len(); n != int64(total) {
		t.Fatalf("recovered Len = %d, want %d", n, total)
	}
}

// TestCheckpointSegmentsBounded: under sustained ingest with segment
// rolling, the CheckpointSegments trigger keeps the live segment count
// bounded — the log cannot grow without bound between checkpoints.
func TestCheckpointSegmentsBounded(t *testing.T) {
	dir := t.TempDir()
	opts := durOpts(dir)
	opts.SegmentOps = 16
	opts.CheckpointSegments = 4
	e, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	f, err := e.Define("f")
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(7)
	vals := make([]uint64, 16)
	peak := 0
	for i := 0; i < 200; i++ {
		for j := range vals {
			vals[j] = rng.Uint64n(512)
		}
		f.InsertBatch(vals)
		if err := f.Drain(); err != nil {
			t.Fatal(err)
		}
		if n := e.maxLiveSegments(); n > peak {
			peak = n
		}
		if i%10 == 9 {
			time.Sleep(time.Millisecond) // let the checkpointer win sometimes
		}
	}
	// 200 batches × 16 ops at 16 ops/segment is 200 segments without
	// compaction; the trigger at 4 must keep the peak far below that
	// (the bound is loose — the checkpointer runs asynchronously).
	if peak > 20 {
		t.Fatalf("live segments peaked at %d with CheckpointSegments=4", peak)
	}
	st := e.DurabilityStats()
	if st.Checkpoints < 1 {
		t.Fatal("segment trigger never fired")
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	back, err := Open(durOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	rel, err := back.Get("f")
	if err != nil {
		t.Fatal(err)
	}
	if n := rel.Len(); n != 200*16 {
		t.Fatalf("recovered Len = %d, want %d", n, 200*16)
	}
}

// TestPauseFreeCheckpointExact is the fence's exactness oracle: four
// writers ingest concurrently while checkpoints fire repeatedly, and the
// final synopses — live, and recovered after a restart — must be
// bit-identical to the reference model fed the same op multiset. Any op
// lost (or double-counted) by the epoch fence, the split-log routing, or
// compaction shifts a counter and fails the comparison.
func TestPauseFreeCheckpointExact(t *testing.T) {
	dir := t.TempDir()
	opts := durOpts(dir)
	opts.SegmentOps = 128
	e, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	f, err := e.Define("f")
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 4, 4000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := xrand.New(100 + uint64(w))
			for i := 0; i < perWriter; i++ {
				if i%7 == 6 {
					_ = f.Delete(rng.Uint64n(256)) // deletes may go negative; linearity holds
				} else {
					f.Insert(rng.Uint64n(256))
				}
			}
		}(w)
	}
	var writersDone atomic.Bool
	go func() {
		wg.Wait()
		writersDone.Store(true)
	}()
	// At least the first checkpoint races the writers (they are still
	// streaming when it starts); keep fencing until two have completed
	// even if the writers outpace slow checkpoints (race-detector runs).
	ckpts := 0
	for !writersDone.Load() || ckpts < 2 {
		if _, err := e.Checkpoint(); err != nil {
			t.Fatalf("checkpoint under load: %v", err)
		}
		ckpts++
	}
	wg.Wait()
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}

	m := newModel(t, durOpts(""))
	mf := modelDefine(t, m, "f", Schema{})
	for w := 0; w < writers; w++ {
		rng := xrand.New(100 + uint64(w))
		for i := 0; i < perWriter; i++ {
			if i%7 == 6 {
				_ = mf.Delete(rng.Uint64n(256))
			} else {
				mf.Insert(rng.Uint64n(256))
			}
		}
	}
	expectEngineMatchesModel(t, e, m)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	back, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	expectEngineMatchesModel(t, back, m)
}

// blockFS is the real filesystem with one crash point that blocks its
// caller: once armed, the first call at point closes reached, then waits
// for unblock.
type blockFS struct {
	oplog.FS
	point   string
	armed   atomic.Bool
	reached chan struct{}
	release chan struct{}
	once    sync.Once
	unOnce  sync.Once
}

func newBlockFS(point string) *blockFS {
	return &blockFS{FS: oplog.OSFS, point: point, reached: make(chan struct{}), release: make(chan struct{})}
}

func (b *blockFS) Crash(point string) error {
	if point == b.point && b.armed.Load() {
		b.once.Do(func() {
			close(b.reached)
			<-b.release
		})
	}
	return b.FS.Crash(point)
}

func (b *blockFS) unblock() { b.unOnce.Do(func() { close(b.release) }) }

// TestCheckpointDoesNotBlockReads holds a checkpoint between writing its
// blob and the blob's fsync, and requires ingest through a relation
// handle, name lookups, join estimates, stat probes and exports all to
// return meanwhile: a checkpoint costs bandwidth, not stalls. Released,
// the checkpoint succeeds and a reopen matches the reference model.
func TestCheckpointDoesNotBlockReads(t *testing.T) {
	dir := t.TempDir()
	fsys := newBlockFS("ckpt-pre-fsync")
	t.Cleanup(fsys.unblock)
	opts := durOpts(dir)
	opts.FS = fsys
	e, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	m := newModel(t, durOpts(""))
	rels := map[string]*Relation{}
	rng := xrand.New(7)
	for _, name := range []string{"f", "g"} {
		if rels[name], err = e.Define(name); err != nil {
			t.Fatal(err)
		}
		mr := modelDefine(t, m, name, Schema{})
		vals := make([]uint64, 2000)
		for i := range vals {
			vals[i] = rng.Uint64n(512)
		}
		rels[name].InsertBatch(vals)
		mr.InsertBatch(vals)
	}
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}

	fsys.armed.Store(true)
	done := make(chan error, 1)
	go func() {
		_, err := e.Checkpoint()
		done <- err
	}()
	const bound = 10 * time.Second // failure bound only; the calls wait on events
	select {
	case <-fsys.reached:
	case <-time.After(bound):
		t.Fatal("checkpoint never reached ckpt-pre-fsync")
	}
	more := []uint64{3, 5, 3, 511}
	returns := func(what string, call func() error) {
		t.Helper()
		ret := make(chan error, 1)
		go func() { ret <- call() }()
		select {
		case err := <-ret:
			if err != nil {
				t.Fatalf("%s during a checkpoint: %v", what, err)
			}
		case <-time.After(bound):
			t.Fatalf("%s waited for the checkpoint's blob write", what)
		}
	}
	returns("InsertBatch then Drain", func() error {
		rels["f"].InsertBatch(more)
		return rels["f"].Drain()
	})
	returns("Get", func() error { _, err := e.Get("g"); return err })
	returns("EstimateJoin", func() error { _, err := e.EstimateJoin("f", "g"); return err })
	returns("StatRelation", func() error { _, err := e.StatRelation("f"); return err })
	returns("ExportRelation", func() error { _, err := e.ExportRelation("g"); return err })
	m.Relation("f").InsertBatch(more)

	fsys.unblock()
	if err := <-done; err != nil {
		t.Fatalf("released checkpoint: %v", err)
	}
	expectEngineMatchesModel(t, e, m)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	back, err := Open(durOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	expectEngineMatchesModel(t, back, m)
}
