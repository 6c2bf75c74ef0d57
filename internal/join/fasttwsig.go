package join

import (
	"errors"
	"fmt"

	"amstrack/internal/blob"
	"amstrack/internal/core"
	"amstrack/internal/hash"
	"amstrack/internal/xrand"
)

// FastFamily is the bucketed counterpart of Family: instead of k
// independent ±1 functions each touching its own counter on every update,
// it keeps `rows` tabulation hashes (lanes of hash.Tab4x8 groups), each
// owning a row of `buckets` counters. One evaluation yields 64 jointly
// four-wise independent bits, from which a row derives BOTH the bucket
// index (high bits) and the sign (low bit) — so an update touches one
// counter per row: O(rows) work however large the signature grows,
// against the flat scheme's O(k). This is the §4.3 signature restructured exactly the way
// core.FastTugOfWar restructures the §2.2 sketch.
//
// Estimator and guarantee. For signatures S_F, S_G of one family, row j's
// statistic is the bucket-wise inner product Y_j = Σ_b Z_F[j][b]·Z_G[j][b].
// Writing f, g for the frequency vectors and ε_j, b_j for row j's sign and
// bucket functions,
//
//	E[Y_j] = Σ_{u,v} f_u·g_v·E[ε_j(u)ε_j(v)·1{b_j(u)=b_j(v)}] = Σ_v f_v·g_v,
//
// because for u ≠ v the pair (h_j(u), h_j(v)) is jointly uniform (four-wise
// independence implies pairwise), making the sign product mean-zero even
// conditioned on the bucket bits — so each row is an unbiased estimator of
// |F ⋈ G|, mirroring Lemma 4.4. Distinct values only interact when a row's
// bucket hash collides them (probability 1/buckets), and the signs are
// four-wise independent, so
//
//	Var(Y_j) ≤ (SJ(F)·SJ(G) + |F ⋈ G|²)/buckets ≤ 2·SJ(F)·SJ(G)/buckets
//
// (Cauchy–Schwarz bounds the join size term). Averaging the rows divides
// the variance by rows, so with k = buckets·rows total words the final
// bound Var ≤ 2·SJ(F)·SJ(G)/k is EXACTLY the flat signature's Lemma 4.4
// bound at equal memory — ErrorBound(sjF, sjG, MemoryWords()) applies to
// either scheme unchanged.
//
// A FastFamily holds tabulation tables per group of eight rows, 128 KiB
// when buckets is a power of two up to 2^15 and 512 KiB otherwise, where
// a Family holds a few polynomial coefficients per counter, but
// hash.NewTab4Rows shares the groups per seed tuple: every family,
// signature and decoded blob on one seed in the process reads one copy.
type FastFamily struct {
	buckets int
	rows    int
	seed    uint64
	hs      []hash.Tab4x8
}

// NewFastFamily creates a bucketed family: `rows` independent tabulation
// hashes over `buckets` counters each. Signatures from equal
// (buckets, rows, seed) triples are mutually estimable and mergeable.
// rows is bounded by hash.MaxTab4Rows, since every row needs its own
// tables.
func NewFastFamily(buckets, rows int, seed uint64) (*FastFamily, error) {
	if buckets < 1 {
		return nil, fmt.Errorf("join: fast family buckets = %d, must be >= 1", buckets)
	}
	if rows < 1 || rows > hash.MaxTab4Rows {
		return nil, fmt.Errorf("join: fast family rows = %d, must be in [1, %d]", rows, hash.MaxTab4Rows)
	}
	seeds := make([]uint64, rows)
	for j := range seeds {
		// Seed stream disjoint from both the flat Family's polynomial
		// hashes and core's fast sketch rows, so a catalog running all
		// three under one master seed keeps them statistically independent.
		seeds[j] = xrand.Mix64(seed ^ (uint64(j)+1)*0x94d049bb133111eb)
	}
	return &FastFamily{buckets: buckets, rows: rows, seed: seed, hs: hash.NewTab4Rows(seeds, buckets)}, nil
}

// Buckets returns the per-row counter count (the accuracy knob).
func (f *FastFamily) Buckets() int { return f.buckets }

// Rows returns the row count (the confidence knob, and the per-update cost).
func (f *FastFamily) Rows() int { return f.rows }

// Seed returns the family seed.
func (f *FastFamily) Seed() uint64 { return f.seed }

// K returns the total signature size buckets·rows in memory words,
// comparable to Family.K.
func (f *FastFamily) K() int { return f.buckets * f.rows }

// NewSignature returns an empty signature bound to this family.
func (f *FastFamily) NewSignature() *FastTWSignature {
	return &FastTWSignature{family: f, Grid: core.NewGrid(f.hs)}
}

// FastTWSignature is a bucketed k-TW join signature: rows × buckets
// counters updated with one hash evaluation and one counter touch per row.
// Its counters and their updates are the core.Grid behind
// core.FastTugOfWar too; the signature adds its family (the row-seed
// stream) and its blob format. It satisfies Signature alongside the flat
// TWSignature; EstimateJoin and EstimateJoinMedianOfMeans accept either
// scheme (both sides must share one family).
type FastTWSignature struct {
	family *FastFamily
	core.Grid
}

// Family returns the signature's family.
func (s *FastTWSignature) Family() *FastFamily { return s.family }

// SelfJoinEstimate returns the Fast-AMS self-join estimate from the
// signature's own counters: the median over rows of the row bucket sums
// Σ_b Z², each an unbiased estimator of SJ(R) with Var ≤ 2·SJ²/buckets
// (Thorup–Zhang; see core.FastTugOfWar).
func (s *FastTWSignature) SelfJoinEstimate() float64 {
	return core.Median(core.RowProducts(&s.Grid, &s.Grid))
}

// Merge adds other's counters into s. Both must come from one family;
// the result is exactly the signature of the concatenated streams.
func (s *FastTWSignature) Merge(other Signature) error {
	o, ok := other.(*FastTWSignature)
	if !ok {
		return errSchemeMismatch(s, other)
	}
	if err := compatibleFast(s, o); err != nil {
		return err
	}
	core.AddGrid(&s.Grid, &o.Grid)
	return nil
}

// terms returns the per-row inner products Y_j — the independent unbiased
// estimates EstimateJoin averages and EstimateJoinMedianOfMeans medians.
func (s *FastTWSignature) terms(other Signature) ([]float64, error) {
	o, ok := other.(*FastTWSignature)
	if !ok {
		return nil, errSchemeMismatch(s, other)
	}
	if err := compatibleFast(s, o); err != nil {
		return nil, err
	}
	return core.RowProducts(&s.Grid, &o.Grid), nil
}

func compatibleFast(a, b *FastTWSignature) error {
	if a.family == nil || b.family == nil {
		return errors.New("join: signature without family")
	}
	if a.family.buckets != b.family.buckets || a.family.rows != b.family.rows ||
		a.family.seed != b.family.seed {
		return errors.New("join: signatures from different families cannot be combined")
	}
	return nil
}

// MarshalBinary serializes the signature via the shared blob codec:
// buckets, rows, seed, n, counters. The tabulation tables are re-derived
// from the family seed on load, keeping blobs small enough to exchange
// between nodes.
func (s *FastTWSignature) MarshalBinary() ([]byte, error) {
	b := blob.NewBuilder(blob.MagicFastTWSig, 1, 8*4+8*s.MemoryWords())
	b.U64(uint64(s.family.buckets))
	b.U64(uint64(s.family.rows))
	b.U64(s.family.seed)
	b.I64(s.Len())
	b.I64s(s.Counters())
	return b.Seal(), nil
}

// UnmarshalBinary restores a signature serialized by MarshalBinary.
func (s *FastTWSignature) UnmarshalBinary(data []byte) error {
	_, payload, err := blob.Open(blob.MagicFastTWSig, 1, data)
	if err != nil {
		return fmt.Errorf("join: fast signature blob: %w", err)
	}
	c := blob.NewCursor(payload)
	buckets := c.Int()
	rows := c.Int()
	seed := c.U64()
	n := c.I64()
	if c.Err() != nil {
		return fmt.Errorf("join: fast signature blob: %w", c.Err())
	}
	// Division form: buckets·rows from a hostile header could overflow,
	// so validate against the payload-bounded counter count instead.
	cnt := c.Remaining() / 8
	if buckets < 1 || rows < 1 || c.Remaining() != 8*cnt || cnt%buckets != 0 || cnt/buckets != rows {
		return fmt.Errorf("join: fast signature blob length inconsistent with %dx%d", rows, buckets)
	}
	z := c.I64s(cnt)
	if err := c.Close(); err != nil {
		return fmt.Errorf("join: fast signature blob: %w", err)
	}
	fam, err := NewFastFamily(buckets, rows, seed)
	if err != nil {
		return err
	}
	fresh := fam.NewSignature()
	core.LoadGrid(&fresh.Grid, n, z)
	*s = *fresh
	return nil
}

var _ Signature = (*FastTWSignature)(nil)
