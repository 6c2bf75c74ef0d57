package core

import (
	"fmt"
	"runtime"
	"sync"
)

// shardSketch is what a Sharded wrapper keeps per shard: a linear
// tracker that merges with another of its own kind.
type shardSketch[S any] interface {
	Tracker
	Len() int64
	Merge(other S) error
}

// Sharded ingests updates concurrently from many goroutines. It exploits
// the sketch's linearity: each shard is an independent sketch over the
// SAME hash family (same Config), so the sum of shard counters equals the
// counters of the whole stream regardless of how updates were distributed
// across shards. Queries merge on the fly.
//
// This is the natural parallel-load construction for the paper's
// warehouse scenario (§5): loader threads each own a shard, no
// cross-thread contention on the hot path, and the synopsis stays exactly
// the single-stream sketch. With FastTugOfWar's O(S2) per-update work the
// lock hold times are tiny, so parallel loaders spend their time hashing,
// not serialized on counter arrays.
type Sharded[S shardSketch[S]] struct {
	cfg    Config
	newSk  func(Config) (S, error)
	shards []shard[S]
	mask   uint64
}

// ShardedTugOfWar is the concurrent wrapper around the flat TugOfWar.
type ShardedTugOfWar = Sharded[*TugOfWar]

// ShardedFastTugOfWar is the concurrent wrapper around FastTugOfWar.
type ShardedFastTugOfWar = Sharded[*FastTugOfWar]

type shard[S any] struct {
	mu sync.Mutex
	sk S
	_  [40]byte // pad to reduce false sharing between shard locks
}

// NewShardedTugOfWar builds a sketch with the given number of shards
// (rounded up to a power of two; 0 means GOMAXPROCS).
func NewShardedTugOfWar(cfg Config, shards int) (*ShardedTugOfWar, error) {
	return newSharded(cfg, shards, NewTugOfWar)
}

// NewShardedFastTugOfWar builds a concurrent fast sketch with the given
// number of shards (rounded up to a power of two; 0 means GOMAXPROCS).
func NewShardedFastTugOfWar(cfg Config, shards int) (*ShardedFastTugOfWar, error) {
	return newSharded(cfg, shards, NewFastTugOfWar)
}

func newSharded[S shardSketch[S]](cfg Config, shards int, newSk func(Config) (S, error)) (*Sharded[S], error) {
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
	st := &Sharded[S]{cfg: cfg, newSk: newSk, shards: make([]shard[S], n), mask: uint64(n - 1)}
	for i := range st.shards {
		sk, err := newSk(cfg)
		if err != nil {
			return nil, err
		}
		st.shards[i].sk = sk
	}
	return st, nil
}

// Shards returns the shard count.
func (st *Sharded[S]) Shards() int { return len(st.shards) }

// shardIndex spreads values across mask+1 (a power of two) shards; ANY
// assignment is correct for the linear sketches, so a cheap mix of the
// value is used purely to balance load. Shared by the single-value and
// batch paths so the assignment can never diverge.
func shardIndex(v, mask uint64) uint64 {
	v ^= v >> 33
	v *= 0xff51afd7ed558ccd
	return v & mask
}

// Insert adds one occurrence of v; safe for concurrent use.
func (st *Sharded[S]) Insert(v uint64) {
	s := &st.shards[shardIndex(v, st.mask)]
	s.mu.Lock()
	s.sk.Insert(v)
	s.mu.Unlock()
}

// Delete removes one occurrence of v; safe for concurrent use.
func (st *Sharded[S]) Delete(v uint64) error {
	s := &st.shards[shardIndex(v, st.mask)]
	s.mu.Lock()
	err := s.sk.Delete(v)
	s.mu.Unlock()
	return err
}

// InsertBatch partitions vs by shard, then applies each group under a
// single lock acquisition so concurrent loaders contend once per batch per
// shard. Safe for concurrent use.
func (st *Sharded[S]) InsertBatch(vs []uint64) {
	st.applyBatch(vs, false)
}

// DeleteBatch removes every value in vs; safe for concurrent use.
// Tug-of-war deletes always succeed.
func (st *Sharded[S]) DeleteBatch(vs []uint64) error {
	st.applyBatch(vs, true)
	return nil
}

func (st *Sharded[S]) applyBatch(vs []uint64, del bool) {
	groups := make([][]uint64, len(st.shards))
	for _, v := range vs {
		i := shardIndex(v, st.mask)
		groups[i] = append(groups[i], v)
	}
	for i, g := range groups {
		if len(g) == 0 {
			continue
		}
		s := &st.shards[i]
		s.mu.Lock()
		if del {
			_ = s.sk.DeleteBatch(g)
		} else {
			s.sk.InsertBatch(g)
		}
		s.mu.Unlock()
	}
}

// Estimate merges the shards and answers the query. Safe for concurrent
// use with updates; the estimate reflects some linearization of the
// concurrent operations.
func (st *Sharded[S]) Estimate() float64 {
	merged, err := st.Snapshot()
	if err != nil {
		// Cannot happen: shards share one Config by construction.
		panic(err)
	}
	return merged.Estimate()
}

// Snapshot returns a plain sketch equal to the merge of all shards —
// e.g. to serialize the sketch or to hand it to a query thread.
func (st *Sharded[S]) Snapshot() (S, error) {
	merged, err := st.newSk(st.cfg)
	if err != nil {
		return merged, err
	}
	for i := range st.shards {
		s := &st.shards[i]
		s.mu.Lock()
		err = merged.Merge(s.sk)
		s.mu.Unlock()
		if err != nil {
			return merged, err
		}
	}
	return merged, nil
}

// MemoryWords reports the total storage across shards.
func (st *Sharded[S]) MemoryWords() int {
	return len(st.shards) * st.cfg.S1 * st.cfg.S2
}

// Len returns the current multiset size across shards.
func (st *Sharded[S]) Len() int64 {
	var n int64
	for i := range st.shards {
		s := &st.shards[i]
		s.mu.Lock()
		n += s.sk.Len()
		s.mu.Unlock()
	}
	return n
}

var (
	_ Tracker = (*ShardedTugOfWar)(nil)
	_ Tracker = (*ShardedFastTugOfWar)(nil)
)
