package core

import (
	"sync"
	"testing"

	"amstrack/internal/xrand"
)

func TestShardedMatchesSingleStream(t *testing.T) {
	cfg := Config{S1: 16, S2: 4, Seed: 9}
	st, err := NewShardedTugOfWar(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	single, _ := NewTugOfWar(cfg)
	r := xrand.New(3)
	for i := 0; i < 20000; i++ {
		v := r.Uint64n(500)
		st.Insert(v)
		single.Insert(v)
	}
	if st.Estimate() != single.Estimate() {
		t.Fatalf("sharded %v != single %v", st.Estimate(), single.Estimate())
	}
	if st.Len() != single.Len() {
		t.Fatalf("Len %d != %d", st.Len(), single.Len())
	}
}

func TestShardedConcurrentIngest(t *testing.T) {
	cfg := Config{S1: 16, S2: 4, Seed: 11}
	st, err := NewShardedTugOfWar(cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	single, _ := NewTugOfWar(cfg)

	const workers = 8
	const perWorker = 5000
	values := make([][]uint64, workers)
	for w := range values {
		r := xrand.New(uint64(w) + 100)
		values[w] = make([]uint64, perWorker)
		for i := range values[w] {
			values[w][i] = r.Uint64n(300)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, v := range values[w] {
				if w%2 == 0 && i%7 == 6 {
					// Interleave deletes of a value this worker inserted.
					_ = st.Delete(values[w][i-1])
				}
				st.Insert(v)
			}
		}(w)
	}
	wg.Wait()
	// Replay the same multiset serially.
	for w := 0; w < workers; w++ {
		for i, v := range values[w] {
			if w%2 == 0 && i%7 == 6 {
				_ = single.Delete(values[w][i-1])
			}
			single.Insert(v)
		}
	}
	if st.Estimate() != single.Estimate() {
		t.Fatalf("concurrent sharded %v != serial %v", st.Estimate(), single.Estimate())
	}
}

func TestShardedConcurrentQueries(t *testing.T) {
	st, err := NewShardedTugOfWar(Config{S1: 8, S2: 2, Seed: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		r := xrand.New(1)
		for {
			select {
			case <-stop:
				return
			default:
				st.Insert(r.Uint64n(100))
			}
		}
	}()
	for q := 0; q < 50; q++ {
		if est := st.Estimate(); est < 0 {
			t.Errorf("negative estimate %v", est)
		}
	}
	close(stop)
	wg.Wait()
}

func TestShardedSnapshotIsPlainSketch(t *testing.T) {
	cfg := Config{S1: 8, S2: 2, Seed: 5}
	st, _ := NewShardedTugOfWar(cfg, 2)
	for i := 0; i < 1000; i++ {
		st.Insert(uint64(i % 37))
	}
	snap, err := st.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Estimate() != st.Estimate() {
		t.Fatal("snapshot estimate differs")
	}
	// Snapshots serialize like any other sketch.
	blob, err := snap.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back TugOfWar
	if err := back.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if back.Estimate() != snap.Estimate() {
		t.Fatal("serialized snapshot diverged")
	}
}

func TestShardedShardCounts(t *testing.T) {
	st, _ := NewShardedTugOfWar(Config{S1: 2, S2: 2, Seed: 1}, 3)
	if st.Shards() != 4 {
		t.Fatalf("shards = %d, want next power of two 4", st.Shards())
	}
	if st.MemoryWords() != 4*4 {
		t.Fatalf("memory = %d", st.MemoryWords())
	}
	if _, err := NewShardedTugOfWar(Config{S1: 2, S2: 2}, -1); err == nil {
		t.Fatal("negative shards accepted")
	}
	if _, err := NewShardedTugOfWar(Config{S1: 0, S2: 2}, 2); err == nil {
		t.Fatal("bad config accepted")
	}
	auto, _ := NewShardedTugOfWar(Config{S1: 2, S2: 2, Seed: 1}, 0)
	if auto.Shards() < 1 {
		t.Fatal("auto shard count < 1")
	}
}

func BenchmarkShardedInsertParallel(b *testing.B) {
	st, _ := NewShardedTugOfWar(Config{S1: 32, S2: 8, Seed: 1}, 0)
	b.RunParallel(func(pb *testing.PB) {
		r := xrand.New(uint64(b.N))
		for pb.Next() {
			st.Insert(r.Uint64n(1 << 14))
		}
	})
}

// TestConcurrentEstimateReadOnly runs Estimate from several goroutines
// on one shared, fully built sketch (the coordinator's cached-bundle
// shape: many /v1/join requests reading one merged sketch). Estimate
// must be read-only — every caller gets the serial answer, and -race
// sees no write.
func TestConcurrentEstimateReadOnly(t *testing.T) {
	cfg := Config{S1: 64, S2: 8, Seed: 17}
	flat, _ := NewTugOfWar(cfg)
	fast, _ := NewFastTugOfWar(cfg)
	r := xrand.New(5)
	for i := 0; i < 4000; i++ {
		v := r.Uint64n(200)
		flat.Insert(v)
		fast.Insert(v)
	}
	for _, tr := range []Tracker{flat, fast} {
		want := tr.Estimate()
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					if got := tr.Estimate(); got != want {
						t.Errorf("%T: concurrent Estimate = %v, serial %v", tr, got, want)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}
