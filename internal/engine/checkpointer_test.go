package engine

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

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
