package join

import (
	"errors"
	"fmt"

	"amstrack/internal/blob"
	"amstrack/internal/core"
)

// Signature is the common contract of the §4.3 join signature schemes:
// a small per-relation synopsis, maintained under tuple inserts and
// deletes, such that the join size of any pair of relations sharing one
// hash family is estimable from their signatures alone. Two
// implementations exist:
//
//   - TWSignature: the paper's flat k-TW scheme — k counters, every one
//     touched on every update (O(k) per tuple);
//   - FastTWSignature: the bucketed scheme — rows × buckets counters, one
//     counter per row touched (O(rows) per tuple), same Lemma 4.4
//     variance bound at equal memory.
//
// The interface is sealed (the unexported terms method): both sides of an
// estimate must be the same scheme AND the same family, which the
// estimators verify.
type Signature interface {
	// Insert adds a tuple with the given joining-attribute value.
	Insert(v uint64)
	// Delete removes a tuple; exact by linearity, validity of the op
	// sequence is the caller's contract.
	Delete(v uint64) error
	// InsertBatch adds every value in vs, equivalent to repeated Insert;
	// implementations may reorder internally for cache locality.
	InsertBatch(vs []uint64)
	// DeleteBatch removes every value in vs.
	DeleteBatch(vs []uint64) error
	// Len returns the relation's current tuple count.
	Len() int64
	// MemoryWords returns the signature size in memory words — the k that
	// ErrorBound takes, for either scheme.
	MemoryWords() int
	// SelfJoinEstimate estimates SJ(R) from the signature's own counters.
	SelfJoinEstimate() float64
	// Counters returns a copy of the raw counters.
	Counters() []int64
	// Merge adds other's counters into the receiver (same scheme and
	// family required); the result is the signature of the concatenated
	// streams — the basis of sharded ingest and multi-node exchange.
	Merge(other Signature) error
	// MarshalBinary serializes the signature via the shared blob codec.
	MarshalBinary() ([]byte, error)

	// terms returns the scheme's vector of independent unbiased estimates
	// of |self ⋈ other|: the k products for the flat scheme, the per-row
	// bucket inner products for the fast one. Sealed.
	terms(other Signature) ([]float64, error)
}

// EstimateJoin returns the unbiased join-size estimate from two
// signatures of one scheme and family: the arithmetic mean of the
// scheme's independent per-term estimates (§4.3; the flat scheme's
// mean_m S_F[m]·S_G[m], the fast scheme's mean over rows). Either way
// Var ≤ 2·SJ(F)·SJ(G)/MemoryWords (Lemma 4.4 and the FastFamily
// analysis).
func EstimateJoin(a, b Signature) (float64, error) {
	terms, err := joinTerms(a, b)
	if err != nil {
		return 0, err
	}
	sum := 0.0
	for _, t := range terms {
		sum += t
	}
	return sum / float64(len(terms)), nil
}

// EstimateJoinMedianOfMeans combines the per-term estimates as the median
// of group means, groups of groupSize terms each (groupSize must divide
// the term count: k for the flat scheme, rows for the fast one). With
// groupSize equal to the term count it reduces to EstimateJoin. The
// median trades a constant variance factor for exponentially better tail
// bounds and is provided for production use.
func EstimateJoinMedianOfMeans(a, b Signature, groupSize int) (float64, error) {
	terms, err := joinTerms(a, b)
	if err != nil {
		return 0, err
	}
	k := len(terms)
	if groupSize < 1 || k%groupSize != 0 {
		return 0, fmt.Errorf("join: cannot split %d estimates into groups of %d", k, groupSize)
	}
	groups := k / groupSize
	means := make([]float64, groups)
	for g := 0; g < groups; g++ {
		sum := 0.0
		for m := g * groupSize; m < (g+1)*groupSize; m++ {
			sum += terms[m]
		}
		means[g] = sum / float64(groupSize)
	}
	return core.Median(means), nil
}

// UnmarshalSignature decodes a signature blob of either scheme,
// dispatching on the frame magic — the receiving side of a signature
// exchange does not need to know which scheme the sender runs. The
// dispatched decoder re-verifies the frame (CRC, version, payload
// lengths) as usual.
func UnmarshalSignature(data []byte) (Signature, error) {
	magic, ok := blob.PeekMagic(data)
	if !ok {
		return nil, fmt.Errorf("join: signature blob: %w", blob.ErrTooShort)
	}
	switch magic {
	case blob.MagicTWSignature:
		s := &TWSignature{}
		if err := s.UnmarshalBinary(data); err != nil {
			return nil, err
		}
		return s, nil
	case blob.MagicFastTWSig:
		s := &FastTWSignature{}
		if err := s.UnmarshalBinary(data); err != nil {
			return nil, err
		}
		return s, nil
	default:
		return nil, fmt.Errorf("join: signature blob: %w: %#x is no signature scheme", blob.ErrMagic, magic)
	}
}

func joinTerms(a, b Signature) ([]float64, error) {
	if a == nil || b == nil {
		return nil, errors.New("join: nil signature")
	}
	return a.terms(b)
}

func errSchemeMismatch(a, b Signature) error {
	return fmt.Errorf("join: cannot combine %T with %T (signatures must share one scheme and family)", a, b)
}
