package join

import (
	"errors"
	"fmt"
	"math"

	"amstrack/internal/blob"
	"amstrack/internal/hash"
	"amstrack/internal/xrand"
)

// This file realizes the paper's §5 future-work item — "extending the
// work to more general scenarios such as three-way joins" — for chain
// joins F ⋈_a G ⋈_b H, following the construction that became standard in
// the follow-up literature (Dobra, Garofalakis, Gehrke, Rastogi, SIGMOD
// 2002): one independent four-wise family PER JOIN ATTRIBUTE, with the
// middle relation sketched by the product of its attributes' signs:
//
//	S(F)[m] = Σ_a f_a · ε⁰_m(a)
//	S(G)[m] = Σ_{(a,b)} g_{a,b} · ε⁰_m(a) · ε¹_m(b)
//	S(H)[m] = Σ_b h_b · ε¹_m(b)
//
// Independence across attributes and four-wise independence within each
// make E[S(F)·S(G)·S(H)] = Σ_{a,b} f_a·g_{a,b}·h_b — the chain join size —
// with variance bounded by a product of the relations' self-join-type
// moments, so averaging k atomic products again shrinks the error as 1/√k.

// ChainFamily is a shared family for three-way chain joins: k independent
// hash functions for each of the two join attributes.
type ChainFamily struct {
	k    int
	seed uint64
	fns  [2][]hash.FourWise
}

// NewChainFamily creates a chain family of size k (memory words per end
// relation; the middle relation also uses k words).
func NewChainFamily(k int, seed uint64) (*ChainFamily, error) {
	if k < 1 {
		return nil, fmt.Errorf("join: chain family size k = %d, must be >= 1", k)
	}
	f := &ChainFamily{k: k, seed: seed}
	for attr := 0; attr < 2; attr++ {
		f.fns[attr] = make([]hash.FourWise, k)
		for m := 0; m < k; m++ {
			f.fns[attr][m] = hash.NewFourWise(xrand.Mix64(seed ^ uint64(attr)<<62 ^ uint64(m)*0x94d049bb133111eb))
		}
	}
	return f, nil
}

// K returns the signature size.
func (f *ChainFamily) K() int { return f.k }

// Seed returns the family seed.
func (f *ChainFamily) Seed() uint64 { return f.seed }

// chainCompatible reports whether two chain families are the same family
// by value (size and seed), so signatures deserialized on another node —
// whose family is re-derived rather than shared by pointer — remain
// estimable and mergeable with local ones.
func chainCompatible(a, b *ChainFamily) error {
	if a == nil || b == nil {
		return errors.New("join: chain signature without family")
	}
	if a.k != b.k || a.seed != b.seed {
		return errors.New("join: chain signatures from different families cannot be combined")
	}
	return nil
}

// NewEndSignature returns an empty signature for an end relation joined on
// the given attribute (0 for the F-side attribute a, 1 for the H-side
// attribute b).
func (f *ChainFamily) NewEndSignature(attr int) (*ChainEndSignature, error) {
	if attr != 0 && attr != 1 {
		return nil, fmt.Errorf("join: chain attribute %d out of range {0,1}", attr)
	}
	return &ChainEndSignature{family: f, attr: attr, z: make([]int64, f.k)}, nil
}

// NewMiddleSignature returns an empty signature for the middle relation,
// which carries both join attributes.
func (f *ChainFamily) NewMiddleSignature() *ChainMiddleSignature {
	return &ChainMiddleSignature{family: f, z: make([]int64, f.k)}
}

// ChainEndSignature sketches an end relation of the chain.
type ChainEndSignature struct {
	family *ChainFamily
	attr   int
	z      []int64
	n      int64
}

// Insert adds a tuple with join-attribute value v.
func (s *ChainEndSignature) Insert(v uint64) { s.InsertBatch([]uint64{v}) }

// Delete removes a tuple with join-attribute value v (linear, exact).
func (s *ChainEndSignature) Delete(v uint64) error { return s.DeleteBatch([]uint64{v}) }

// InsertBatch adds a tuple per join-attribute value in vs, equivalent to
// repeated Insert: one pass of the batch sign kernel over the family.
func (s *ChainEndSignature) InsertBatch(vs []uint64) { s.apply(vs, 1) }

// DeleteBatch removes a tuple per join-attribute value in vs (linear,
// exact).
func (s *ChainEndSignature) DeleteBatch(vs []uint64) error {
	s.apply(vs, -1)
	return nil
}

// apply adds w times each value's sign to every counter: the one update
// path behind Insert, Delete and their batch forms.
func (s *ChainEndSignature) apply(vs []uint64, w int64) {
	hash.SignSums(s.family.fns[s.attr], vs, w, s.z)
	s.n += w * int64(len(vs))
}

// Len returns the tracked tuple count.
func (s *ChainEndSignature) Len() int64 { return s.n }

// MemoryWords returns k.
func (s *ChainEndSignature) MemoryWords() int { return len(s.z) }

// SelfJoinEstimate estimates SJ(R) = Σ_a f_a² from the signature's own
// counters: E[z_m²] = SJ(R) by pairwise independence of the signs, so
// the mean of the squared counters is unbiased. It feeds the chain
// estimator's variance envelope, mirroring how the pairwise path feeds
// Lemma 4.4 from signature counters.
func (s *ChainEndSignature) SelfJoinEstimate() float64 {
	sum := 0.0
	for _, z := range s.z {
		sum += float64(z) * float64(z)
	}
	return sum / float64(len(s.z))
}

// Attr returns which chain attribute (0 or 1) the signature is bound to.
func (s *ChainEndSignature) Attr() int { return s.attr }

// Seed returns the signature's family seed (with MemoryWords, the
// family identity by value).
func (s *ChainEndSignature) Seed() uint64 { return s.family.seed }

// Merge adds other's counters into s. Both must come from one family (by
// value: size and seed) and be bound to the same attribute; the result is
// exactly the signature of the concatenated streams.
func (s *ChainEndSignature) Merge(other *ChainEndSignature) error {
	if other == nil {
		return errors.New("join: nil chain signature")
	}
	if err := chainCompatible(s.family, other.family); err != nil {
		return err
	}
	if s.attr != other.attr {
		return fmt.Errorf("join: chain end signatures bound to different attributes (%d vs %d)", s.attr, other.attr)
	}
	for m, z := range other.z {
		s.z[m] += z
	}
	s.n += other.n
	return nil
}

// MarshalBinary serializes the signature via the shared blob codec: k,
// seed, attr, n, counters. The hash functions are re-derived from the
// family seed on load.
func (s *ChainEndSignature) MarshalBinary() ([]byte, error) {
	b := blob.NewBuilder(blob.MagicChainEndSig, 1, 8*3+4+8*len(s.z))
	b.U64(uint64(s.family.k))
	b.U64(s.family.seed)
	b.U32(uint32(s.attr))
	b.I64(s.n)
	b.I64s(s.z)
	return b.Seal(), nil
}

// UnmarshalBinary restores a signature serialized by MarshalBinary.
func (s *ChainEndSignature) UnmarshalBinary(data []byte) error {
	_, payload, err := blob.Open(blob.MagicChainEndSig, 1, data)
	if err != nil {
		return fmt.Errorf("join: chain end blob: %w", err)
	}
	c := blob.NewCursor(payload)
	k := c.Int()
	seed := c.U64()
	attr := c.U32()
	n := c.I64()
	if c.Err() != nil {
		return fmt.Errorf("join: chain end blob: %w", c.Err())
	}
	if attr > 1 {
		return fmt.Errorf("join: chain end blob attribute %d out of range {0,1}", attr)
	}
	if k < 1 || c.Remaining()%8 != 0 || c.Remaining()/8 != k {
		return fmt.Errorf("join: chain end blob length inconsistent with k = %d", k)
	}
	z := c.I64s(k)
	if err := c.Close(); err != nil {
		return fmt.Errorf("join: chain end blob: %w", err)
	}
	fam, err := NewChainFamily(k, seed)
	if err != nil {
		return err
	}
	fresh, err := fam.NewEndSignature(int(attr))
	if err != nil {
		return err
	}
	fresh.n = n
	copy(fresh.z, z)
	*s = *fresh
	return nil
}

// ChainMiddleSignature sketches the middle relation on both attributes.
type ChainMiddleSignature struct {
	family *ChainFamily
	z      []int64
	n      int64
}

// Insert adds a tuple with join-attribute values (a, b).
func (s *ChainMiddleSignature) Insert(a, b uint64) {
	s.InsertBatch([]uint64{a}, []uint64{b})
}

// Delete removes a tuple with join-attribute values (a, b).
func (s *ChainMiddleSignature) Delete(a, b uint64) error {
	return s.DeleteBatch([]uint64{a}, []uint64{b})
}

// InsertBatch adds the tuples (as[i], bs[i]), equivalent to repeated
// Insert. as and bs must be equally long.
func (s *ChainMiddleSignature) InsertBatch(as, bs []uint64) { s.apply(as, bs, 1) }

// DeleteBatch removes the tuples (as[i], bs[i]). as and bs must be
// equally long.
func (s *ChainMiddleSignature) DeleteBatch(as, bs []uint64) error {
	s.apply(as, bs, -1)
	return nil
}

// apply adds w times each tuple's sign product to every counter: the one
// update path behind Insert, Delete and their batch forms.
func (s *ChainMiddleSignature) apply(as, bs []uint64, w int64) {
	hash.PairSignSums(s.family.fns[0], s.family.fns[1], as, bs, w, s.z)
	s.n += w * int64(len(as))
}

// Len returns the tracked tuple count.
func (s *ChainMiddleSignature) Len() int64 { return s.n }

// MemoryWords returns k.
func (s *ChainMiddleSignature) MemoryWords() int { return len(s.z) }

// Seed returns the signature's family seed (with MemoryWords, the
// family identity by value).
func (s *ChainMiddleSignature) Seed() uint64 { return s.family.seed }

// SelfJoinEstimate estimates the PAIR self-join size SJ(G) = Σ_{a,b}
// g_{a,b}² from the signature's own counters: E[z_m²] factors over the
// two independent attribute families into exactly that sum.
func (s *ChainMiddleSignature) SelfJoinEstimate() float64 {
	sum := 0.0
	for _, z := range s.z {
		sum += float64(z) * float64(z)
	}
	return sum / float64(len(s.z))
}

// Merge adds other's counters into s. Both must come from one family (by
// value); the result is exactly the signature of the concatenated streams.
func (s *ChainMiddleSignature) Merge(other *ChainMiddleSignature) error {
	if other == nil {
		return errors.New("join: nil chain signature")
	}
	if err := chainCompatible(s.family, other.family); err != nil {
		return err
	}
	for m, z := range other.z {
		s.z[m] += z
	}
	s.n += other.n
	return nil
}

// MarshalBinary serializes the signature via the shared blob codec: k,
// seed, n, counters.
func (s *ChainMiddleSignature) MarshalBinary() ([]byte, error) {
	b := blob.NewBuilder(blob.MagicChainMidSig, 1, 8*3+8*len(s.z))
	b.U64(uint64(s.family.k))
	b.U64(s.family.seed)
	b.I64(s.n)
	b.I64s(s.z)
	return b.Seal(), nil
}

// UnmarshalBinary restores a signature serialized by MarshalBinary.
func (s *ChainMiddleSignature) UnmarshalBinary(data []byte) error {
	_, payload, err := blob.Open(blob.MagicChainMidSig, 1, data)
	if err != nil {
		return fmt.Errorf("join: chain middle blob: %w", err)
	}
	c := blob.NewCursor(payload)
	k := c.Int()
	seed := c.U64()
	n := c.I64()
	if c.Err() != nil {
		return fmt.Errorf("join: chain middle blob: %w", c.Err())
	}
	if k < 1 || c.Remaining()%8 != 0 || c.Remaining()/8 != k {
		return fmt.Errorf("join: chain middle blob length inconsistent with k = %d", k)
	}
	z := c.I64s(k)
	if err := c.Close(); err != nil {
		return fmt.Errorf("join: chain middle blob: %w", err)
	}
	fam, err := NewChainFamily(k, seed)
	if err != nil {
		return err
	}
	fresh := fam.NewMiddleSignature()
	fresh.n = n
	copy(fresh.z, z)
	*s = *fresh
	return nil
}

// EstimateChainJoin returns the unbiased estimator of the three-way chain
// join size |F ⋈_a G ⋈_b H|: the mean over the family of the triple
// products S(F)[m]·S(G)[m]·S(H)[m]. All three signatures must come from
// the same ChainFamily — by value (size and seed), so signatures shipped
// from other nodes qualify — with f on attribute 0 and h on attribute 1.
func EstimateChainJoin(f *ChainEndSignature, g *ChainMiddleSignature, h *ChainEndSignature) (float64, error) {
	if f == nil || g == nil || h == nil {
		return 0, errors.New("join: nil chain signature")
	}
	if err := chainCompatible(f.family, g.family); err != nil {
		return 0, err
	}
	if err := chainCompatible(g.family, h.family); err != nil {
		return 0, err
	}
	if f.attr != 0 || h.attr != 1 {
		return 0, errors.New("join: chain ends bound to wrong attributes (want f=attr0, h=attr1)")
	}
	sum := 0.0
	for m := range g.z {
		sum += float64(f.z[m]) * float64(g.z[m]) * float64(h.z[m])
	}
	return sum / float64(len(g.z)), nil
}

// ChainErrorBound is the §5-style one-standard-deviation envelope of the
// k-averaged chain estimator. Expanding E[X²] of one atomic product
// X = S(F)·S(G)·S(H) over the two independent four-wise families yields
// nine sign-pairing terms, and every one is at most SJ(F)·SJ(G)·SJ(H)
// (Cauchy–Schwarz, with SJ(G) the PAIR self-join Σ g_{a,b}²), so
//
//	Var(mean of k) ≤ 9·SJ(F)·SJ(G)·SJ(H) / k
//
// — the chain analogue of Lemma 4.4's 2·SJ(F)·SJ(G)/k.
func ChainErrorBound(sjF, sjG, sjH float64, k int) float64 {
	if k < 1 {
		return math.Inf(1)
	}
	return math.Sqrt(9 * sjF * sjG * sjH / float64(k))
}

// ChainUpperBound is the Fact 1.1 analogue for chains: by two
// applications of Cauchy–Schwarz,
//
//	|F ⋈a G ⋈b H| = Σ_{a,b} f_a·g_{a,b}·h_b ≤ √(SJ(F)·SJ(G)·SJ(H)).
func ChainUpperBound(sjF, sjG, sjH float64) float64 {
	return math.Sqrt(sjF * sjG * sjH)
}
