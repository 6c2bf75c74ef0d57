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
// by addition, and SetFrequencies is bit-identical to streaming. The
// counters, their updates and the row sums are the Grid both Fast-AMS
// synopses share; the sketch adds its Config, its row-seed stream and its
// blob format.
type FastTugOfWar struct {
	cfg Config
	Grid
}

// NewFastTugOfWar builds a bucketed tug-of-war tracker. As with NewTugOfWar,
// the hash family is derived deterministically from cfg.Seed, so equal
// Configs yield mergeable sketches. The row hashes use a seed stream
// disjoint from the flat sketch's counter hashes, so the two trackers are
// statistically independent even under one seed. S2 is bounded by
// hash.MaxTab4Rows, since every row needs its own tables.
func NewFastTugOfWar(cfg Config) (*FastTugOfWar, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.S2 > hash.MaxTab4Rows {
		return nil, fmt.Errorf("core: fast sketch S2 = %d, must be <= %d", cfg.S2, hash.MaxTab4Rows)
	}
	seeds := make([]uint64, cfg.S2)
	for j := range seeds {
		seeds[j] = fastRowSeed(cfg.Seed, j)
	}
	return &FastTugOfWar{cfg: cfg, Grid: NewGrid(hash.NewTab4Rows(seeds, cfg.S1))}, nil
}

// fastRowSeed derives row j's hash seed from the master seed.
func fastRowSeed(seed uint64, j int) uint64 {
	return xrand.Mix64(seed ^ (uint64(j)+1)*0xbf58476d1ce4e5b9)
}

// Estimate returns the median over rows of Σ_b Z². O(S1·S2) — queries pay
// the full sketch scan, updates do not. It only reads the sketch (the row
// sums live in a per-call buffer), so concurrent Estimate calls on one
// sketch are safe.
func (t *FastTugOfWar) Estimate() float64 { return Median(RowProducts(&t.Grid, &t.Grid)) }

// Config returns the tracker's configuration.
func (t *FastTugOfWar) Config() Config { return t.cfg }

// Merge adds the counters of other into t. Equal Configs share one hash
// family, so the merged sketch is exactly the sketch of the concatenated
// streams.
func (t *FastTugOfWar) Merge(other *FastTugOfWar) error {
	if t.cfg != other.cfg {
		return errors.New("core: cannot merge fast tug-of-war sketches with different configs")
	}
	AddGrid(&t.Grid, &other.Grid)
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
	LoadGrid(&fresh.Grid, n, z)
	*t = *fresh
	return nil
}

var _ Tracker = (*FastTugOfWar)(nil)
