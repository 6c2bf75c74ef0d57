package core

import (
	"fmt"
	"runtime"
	"sync"
)

// ShardedFastTugOfWar is the concurrent-ingest wrapper around FastTugOfWar,
// mirroring ShardedTugOfWar: every shard is an independent FastTugOfWar
// over the SAME hash family, so by linearity the sum of shard counters
// equals the single-stream sketch no matter how updates are distributed.
// With O(S2) per-update work the lock hold times are tiny, which is where
// the sharded fast sketch earns its keep: parallel loaders spend their
// time hashing, not serialized on counter arrays.
type ShardedFastTugOfWar struct {
	cfg    Config
	shards []fastShard
	mask   uint64
}

type fastShard struct {
	mu sync.Mutex
	tw *FastTugOfWar
	_  [40]byte // pad to reduce false sharing between shard locks
}

// NewShardedFastTugOfWar builds a concurrent fast sketch with the given
// number of shards (rounded up to a power of two; 0 means GOMAXPROCS).
func NewShardedFastTugOfWar(cfg Config, shards int) (*ShardedFastTugOfWar, error) {
	if shards < 0 {
		return nil, fmt.Errorf("core: negative shard count %d", shards)
	}
	if shards == 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	st := &ShardedFastTugOfWar{cfg: cfg, shards: make([]fastShard, n), mask: uint64(n - 1)}
	for i := range st.shards {
		tw, err := NewFastTugOfWar(cfg)
		if err != nil {
			return nil, err
		}
		st.shards[i].tw = tw
	}
	return st, nil
}

// Shards returns the shard count.
func (st *ShardedFastTugOfWar) Shards() int { return len(st.shards) }

// shardFor spreads values across shards via the shared shardIndex mix.
func (st *ShardedFastTugOfWar) shardFor(v uint64) *fastShard {
	return &st.shards[shardIndex(v, st.mask)]
}

// Insert adds one occurrence of v; safe for concurrent use.
func (st *ShardedFastTugOfWar) Insert(v uint64) {
	s := st.shardFor(v)
	s.mu.Lock()
	s.tw.Insert(v)
	s.mu.Unlock()
}

// Delete removes one occurrence of v; safe for concurrent use.
func (st *ShardedFastTugOfWar) Delete(v uint64) error {
	s := st.shardFor(v)
	s.mu.Lock()
	err := s.tw.Delete(v)
	s.mu.Unlock()
	return err
}

// InsertBatch partitions vs by shard, then applies each group under a
// single lock acquisition, so concurrent loaders contend once per batch
// per shard instead of once per value. Safe for concurrent use.
func (st *ShardedFastTugOfWar) InsertBatch(vs []uint64) {
	st.applyBatch(vs, false)
}

// DeleteBatch removes every value in vs; safe for concurrent use. Fast
// tug-of-war deletes always succeed.
func (st *ShardedFastTugOfWar) DeleteBatch(vs []uint64) error {
	st.applyBatch(vs, true)
	return nil
}

func (st *ShardedFastTugOfWar) applyBatch(vs []uint64, del bool) {
	for i, g := range groupByShard(vs, len(st.shards), st.mask) {
		if len(g) == 0 {
			continue
		}
		s := &st.shards[i]
		s.mu.Lock()
		if del {
			_ = s.tw.DeleteBatch(g)
		} else {
			s.tw.InsertBatch(g)
		}
		s.mu.Unlock()
	}
}

// Estimate sums the shard counters and answers the query directly: a
// read-only merge needs only the counters, not a whole Snapshot sketch.
// Safe for concurrent use with updates; the estimate reflects some
// linearization of the concurrent operations.
func (st *ShardedFastTugOfWar) Estimate() float64 {
	z := make([]int64, st.cfg.S1*st.cfg.S2)
	for i := range st.shards {
		s := &st.shards[i]
		s.mu.Lock()
		for k, v := range s.tw.z {
			z[k] += v
		}
		s.mu.Unlock()
	}
	return fastEstimate(z, st.cfg.S1, st.cfg.S2)
}

// Snapshot returns a plain FastTugOfWar equal to the merge of all shards.
func (st *ShardedFastTugOfWar) Snapshot() (*FastTugOfWar, error) {
	merged, err := NewFastTugOfWar(st.cfg)
	if err != nil {
		return nil, err
	}
	for i := range st.shards {
		s := &st.shards[i]
		s.mu.Lock()
		err = merged.Merge(s.tw)
		s.mu.Unlock()
		if err != nil {
			return nil, err
		}
	}
	return merged, nil
}

// MemoryWords reports the total storage across shards.
func (st *ShardedFastTugOfWar) MemoryWords() int {
	return len(st.shards) * st.cfg.S1 * st.cfg.S2
}

// Len returns the current multiset size across shards.
func (st *ShardedFastTugOfWar) Len() int64 {
	var n int64
	for i := range st.shards {
		s := &st.shards[i]
		s.mu.Lock()
		n += s.tw.Len()
		s.mu.Unlock()
	}
	return n
}

var _ Tracker = (*ShardedFastTugOfWar)(nil)
