package core

import (
	"errors"
	"fmt"

	"amstrack/internal/blob"
	"amstrack/internal/hash"
	"amstrack/internal/xrand"
)

// FastTugOfWar is the bucketed tug-of-war sketch (Fast-AMS): the estimator
// of Thorup & Zhang (SODA 2004) / Cormode & Garofalakis that keeps the
// accuracy of §2.2's flat sketch while making the update cost independent
// of the accuracy parameter S1.
//
// Layout: S2 rows, each with S1 counters and its own tabulation hash. An
// update hashes the value ONCE per row; the high output bits select a
// bucket b, the low bit a sign ε, and only Z[j][b] += ε is touched — O(S2)
// work per update versus the flat sketch's O(S1·S2).
//
// Estimator: per row, X_j = Σ_b Z[j][b]²; the answer is the median over
// rows. Writing f_v for the frequencies, E[X_j] = Σ_v f_v² = SJ exactly
// (signs are pairwise independent across distinct values), and
// Var(X_j) ≤ 2·SJ²/S1 — the same bound as a row of S1 averaged independent
// tug-of-war estimators, because two distinct values only interact when
// the bucket hash collides them (probability 1/S1) and the sign hash is
// four-wise independent (Thorup–Zhang Theorem 1). Theorem 2.2's guarantee
// therefore carries over verbatim: relative error ≤ 4/√S1 with probability
// ≥ 1 − 2^(−S2/2).
//
// Like the flat sketch, the counters are a linear function of the
// frequency vector: deletions are exact, sketches with equal Config merge
// by addition, and SetFrequencies is bit-identical to streaming.
type FastTugOfWar struct {
	cfg  Config
	rows []hash.Tab4 // one tabulation hash per row (group)
	z    []int64     // counters, row-major: row j occupies [j*S1, (j+1)*S1)
	n    int64       // current multiset size (diagnostics only)
}

// NewFastTugOfWar builds a bucketed tug-of-war tracker. As with NewTugOfWar,
// the hash family is derived deterministically from cfg.Seed, so equal
// Configs yield mergeable sketches. The row hashes use a seed stream
// disjoint from the flat sketch's counter hashes, so the two trackers are
// statistically independent even under one seed. S2 is bounded by
// hash.MaxTab4Rows, since every row needs its own table.
func NewFastTugOfWar(cfg Config) (*FastTugOfWar, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.S2 > hash.MaxTab4Rows {
		return nil, fmt.Errorf("core: fast sketch S2 = %d, must be <= %d", cfg.S2, hash.MaxTab4Rows)
	}
	t := &FastTugOfWar{
		cfg:  cfg,
		rows: make([]hash.Tab4, cfg.S2),
		z:    make([]int64, cfg.S1*cfg.S2),
	}
	for j := range t.rows {
		t.rows[j] = hash.NewTab4(fastRowSeed(cfg.Seed, j))
	}
	return t, nil
}

// fastRowSeed derives row j's hash seed from the master seed.
func fastRowSeed(seed uint64, j int) uint64 {
	return xrand.Mix64(seed ^ (uint64(j)+1)*0xbf58476d1ce4e5b9)
}

// bucket maps a hash output to a row-local counter index in [0, s1) using
// the high 32 output bits (disjoint from the sign bit, so bucket and sign
// are jointly four-wise independent). The multiply-shift reduction is
// unbiased up to s1/2^32, negligible for any practical row width.
func bucket(h uint64, s1 int) int {
	return int((h >> 32) * uint64(s1) >> 32)
}

// Insert adds one occurrence of v. O(S2) time — one hash evaluation and one
// counter touch per row, independent of S1.
func (t *FastTugOfWar) Insert(v uint64) {
	s1 := t.cfg.S1
	for j := range t.rows {
		h := t.rows[j].Hash(v)
		t.z[j*s1+bucket(h, s1)] += int64(h&1)*2 - 1
	}
	t.n++
}

// Delete removes one occurrence of v. Exact, by linearity (see
// TugOfWar.Delete for the contract on the op sequence).
func (t *FastTugOfWar) Delete(v uint64) error {
	s1 := t.cfg.S1
	for j := range t.rows {
		h := t.rows[j].Hash(v)
		t.z[j*s1+bucket(h, s1)] -= int64(h&1)*2 - 1
	}
	t.n--
	return nil
}

// InsertBatch adds every value in vs. The row loop is hoisted outside the
// value loop so each row's tables and counters stay cache-resident for the
// whole batch — measurably faster than per-value Insert on large batches.
func (t *FastTugOfWar) InsertBatch(vs []uint64) {
	t.applyBatch(vs, +1)
	t.n += int64(len(vs))
}

// DeleteBatch removes every value in vs.
func (t *FastTugOfWar) DeleteBatch(vs []uint64) error {
	t.applyBatch(vs, -1)
	t.n -= int64(len(vs))
	return nil
}

func (t *FastTugOfWar) applyBatch(vs []uint64, dir int64) {
	s1 := t.cfg.S1
	for j := range t.rows {
		row := t.z[j*s1 : (j+1)*s1 : (j+1)*s1]
		hj := t.rows[j]
		for _, v := range vs {
			h := hj.Hash(v)
			row[bucket(h, s1)] += dir * (int64(h&1)*2 - 1)
		}
	}
}

// Estimate returns the median over rows of Σ_b Z². O(S1·S2) — queries pay
// the full sketch scan, updates do not. It only reads the sketch (the row
// sums live in a per-call buffer), so concurrent Estimate calls on one
// sketch are safe.
func (t *FastTugOfWar) Estimate() float64 {
	s1 := t.cfg.S1
	sums := make([]float64, len(t.rows))
	for j := range sums {
		sum := 0.0
		for _, v := range t.z[j*s1 : (j+1)*s1] {
			sum += float64(v) * float64(v)
		}
		sums[j] = sum
	}
	return Median(sums)
}

// MemoryWords returns S1·S2: one word per counter, the paper's storage
// unit. The tabulation tables (64 KiB per row) are not counted: they do
// not scale with S1, the accuracy knob, and hash.NewTab4 shares them
// among every sketch on the same seed in the process.
func (t *FastTugOfWar) MemoryWords() int { return len(t.z) }

// Len returns the current multiset size implied by the update stream.
func (t *FastTugOfWar) Len() int64 { return t.n }

// Config returns the tracker's configuration.
func (t *FastTugOfWar) Config() Config { return t.cfg }

// Counters returns a copy of the raw counters (row-major, row j at
// [j*S1, (j+1)*S1)).
func (t *FastTugOfWar) Counters() []int64 {
	out := make([]int64, len(t.z))
	copy(out, t.z)
	return out
}

// SetFrequencies loads the sketch directly from a frequency vector,
// replacing the current state. Bit-identical to streaming every occurrence
// (linearity); one hash evaluation per (row, distinct value).
func (t *FastTugOfWar) SetFrequencies(freq map[uint64]int64) {
	for k := range t.z {
		t.z[k] = 0
	}
	t.n = 0
	s1 := t.cfg.S1
	for v, f := range freq {
		for j := range t.rows {
			h := t.rows[j].Hash(v)
			t.z[j*s1+bucket(h, s1)] += (int64(h&1)*2 - 1) * f
		}
		t.n += f
	}
}

// Merge adds the counters of other into t. Equal Configs share one hash
// family, so the merged sketch is exactly the sketch of the concatenated
// streams. The loop runs over local slices of equal length, so it pays
// no per-counter bounds check or field reload: every relation read
// merges one sketch per shard.
func (t *FastTugOfWar) Merge(other *FastTugOfWar) error {
	if t.cfg != other.cfg {
		return errors.New("core: cannot merge fast tug-of-war sketches with different configs")
	}
	z, o := t.z, other.z[:len(t.z)]
	for k := range z {
		z[k] += o[k]
	}
	t.n += other.n
	return nil
}

// MarshalBinary serializes the sketch in the same payload layout as
// TugOfWar's format under a distinct magic, via the shared blob codec.
// Hash tables are re-derived from the seed on load, so blobs stay small.
func (t *FastTugOfWar) MarshalBinary() ([]byte, error) {
	return marshalSketch(blob.MagicFastTugOfWar, t.cfg, t.n, t.z), nil
}

// UnmarshalBinary restores a sketch serialized by MarshalBinary.
func (t *FastTugOfWar) UnmarshalBinary(data []byte) error {
	cfg, n, z, err := unmarshalSketch(blob.MagicFastTugOfWar, "fast tug-of-war", data)
	if err != nil {
		return err
	}
	fresh, err := NewFastTugOfWar(cfg)
	if err != nil {
		return err
	}
	fresh.n = n
	copy(fresh.z, z)
	*t = *fresh
	return nil
}

var _ Tracker = (*FastTugOfWar)(nil)
