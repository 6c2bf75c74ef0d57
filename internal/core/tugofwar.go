// Package core implements the paper's three self-join size trackers:
//
//   - TugOfWar (§2.2): the AMS F2 sketch. Each atomic estimator keeps a
//     counter Z = Σ_v ε_v·f_v with four-wise independent signs ε; X = Z² is
//     an unbiased estimator of SJ(R) with Var(X) ≤ 2·SJ(R)². The tracker
//     keeps s = s1·s2 such counters and answers queries with the median of
//     s2 group means of s1 estimators (Theorem 2.2).
//
//   - SampleCount (§2.1, Fig. 1): the improved sample-count algorithm with
//     reservoir-skipping position selection, O(1) amortized updates with
//     high probability, and deletion reversal (Theorem 2.1).
//
//   - NaiveSample (§2.3): the standard sampling baseline with the unbiased
//     scale-up estimator; it requires Ω(√n) samples in the worst case
//     (Lemma 2.3) and serves as the paper's strawman.
//
// All three satisfy the same Tracker interface so the experiment harness,
// the examples, and the public facade can treat them uniformly.
package core

import (
	"errors"
	"fmt"
	"math"

	"amstrack/internal/blob"
	"amstrack/internal/hash"
	"amstrack/internal/xrand"
)

// Tracker is the common interface of the self-join trackers: a limited-
// storage synopsis maintained under inserts and deletes that can estimate
// the self-join size of the current multiset on demand.
type Tracker interface {
	// Insert adds one occurrence of v to the tracked multiset.
	Insert(v uint64)
	// InsertBatch adds every value in vs, equivalent to calling Insert on
	// each in order; implementations may reorder internally for speed.
	InsertBatch(vs []uint64)
	// Delete removes one occurrence of v. Implementations that cannot
	// support deletion (NaiveSample) return an error.
	Delete(v uint64) error
	// DeleteBatch removes every value in vs, stopping at (and reporting)
	// the first failing delete.
	DeleteBatch(vs []uint64) error
	// Estimate returns the current self-join size estimate.
	Estimate() float64
	// MemoryWords returns the synopsis size in the paper's unit: the
	// number of Θ(log n)-bit memory words of state that scale with the
	// configured sample size.
	MemoryWords() int
}

// Config carries the two accuracy parameters shared by the trackers,
// exactly as in the paper: S1 controls accuracy (the group size of
// estimators that are averaged) and S2 controls confidence (the number of
// groups whose means are medianed). Total memory is s = S1·S2 words.
type Config struct {
	S1   int    // estimators per group (accuracy); must be >= 1
	S2   int    // number of groups (confidence); must be >= 1
	Seed uint64 // master seed; derived sub-seeds make runs reproducible
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.S1 < 1 {
		return fmt.Errorf("core: S1 = %d, must be >= 1", c.S1)
	}
	if c.S2 < 1 {
		return fmt.Errorf("core: S2 = %d, must be >= 1", c.S2)
	}
	return nil
}

// ConfigForError returns the Config that Theorem 2.2 prescribes for
// tug-of-war to achieve relative error eps with confidence 1-delta:
// s1 = ceil((4/eps)²) and s2 = ceil(2·log2(1/delta)).
func ConfigForError(eps, delta float64, seed uint64) (Config, error) {
	if eps <= 0 || eps >= 1 {
		return Config{}, fmt.Errorf("core: eps = %v, must be in (0,1)", eps)
	}
	if delta <= 0 || delta >= 1 {
		return Config{}, fmt.Errorf("core: delta = %v, must be in (0,1)", delta)
	}
	s1 := int(math.Ceil(16 / (eps * eps)))
	s2 := int(math.Ceil(2 * math.Log2(1/delta)))
	if s2 < 1 {
		s2 = 1
	}
	return Config{S1: s1, S2: s2, Seed: seed}, nil
}

// SampleCountConfigForError returns the Config Theorem 2.1 prescribes for
// sample-count on a domain of size t: s1 = ceil((4·t^¼/eps)²) = 16√t/eps².
func SampleCountConfigForError(eps, delta float64, domainSize int64, seed uint64) (Config, error) {
	if domainSize < 1 {
		return Config{}, fmt.Errorf("core: domain size = %d, must be >= 1", domainSize)
	}
	c, err := ConfigForError(eps, delta, seed)
	if err != nil {
		return Config{}, err
	}
	c.S1 = int(math.Ceil(16 * math.Sqrt(float64(domainSize)) / (eps * eps)))
	return c, nil
}

// TugOfWar is the AMS sketch tracker of §2.2. It maintains s1·s2 atomic
// counters Z_{i,j} = Σ_v ε_{i,j}(v)·f_v, each with its own four-wise
// independent ±1 hash function. Insert adds ε(v) to every counter; Delete
// subtracts it — the sketch is a linear function of the frequency vector,
// which is why deletions are exact here. Construct with NewTugOfWar.
type TugOfWar struct {
	cfg Config
	fns []hash.FourWise // len s1*s2, row-major: group j occupies [j*s1, (j+1)*s1)
	z   []int64         // counters, same layout
	n   int64           // current multiset size (diagnostics only)
}

// NewTugOfWar builds a tug-of-war tracker. The hash functions are derived
// deterministically from cfg.Seed, so two trackers with the same Config
// hold identical sketch families (this property is what the join-signature
// scheme of §4.3 builds on).
func NewTugOfWar(cfg Config) (*TugOfWar, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := cfg.S1 * cfg.S2
	t := &TugOfWar{
		cfg: cfg,
		fns: make([]hash.FourWise, s),
		z:   make([]int64, s),
	}
	for k := 0; k < s; k++ {
		t.fns[k] = hash.NewFourWise(xrand.Mix64(cfg.Seed ^ uint64(k)*0x9e3779b97f4a7c15))
	}
	return t, nil
}

// Insert adds one occurrence of v. O(s) time, as stated by Theorem 2.2.
func (t *TugOfWar) Insert(v uint64) {
	for k := range t.z {
		t.z[k] += t.fns[k].Sign(v)
	}
	t.n++
}

// Delete removes one occurrence of v. The sketch cannot detect deletion of
// an absent value (that is the exact engine's job); it always succeeds and
// stays correct as long as the overall op sequence is valid.
func (t *TugOfWar) Delete(v uint64) error {
	for k := range t.z {
		t.z[k] -= t.fns[k].Sign(v)
	}
	t.n--
	return nil
}

// Estimate returns the median over s2 groups of the mean over s1 counters
// of Z², per Theorem 2.2. It only reads the sketch (the group means live
// in a per-call buffer), so concurrent Estimate calls on one sketch are
// safe.
func (t *TugOfWar) Estimate() float64 {
	s1 := t.cfg.S1
	scratch := make([]float64, t.cfg.S2)
	for j := 0; j < t.cfg.S2; j++ {
		sum := 0.0
		for i := 0; i < s1; i++ {
			z := float64(t.z[j*s1+i])
			sum += z * z
		}
		scratch[j] = sum / float64(s1)
	}
	return Median(scratch)
}

// MemoryWords returns s1·s2: one word per counter. (Hash function
// coefficients are 4 extra words per counter; the paper counts the
// counters, and we report the same unit for comparability.)
func (t *TugOfWar) MemoryWords() int { return len(t.z) }

// Len returns the current multiset size implied by the update stream.
func (t *TugOfWar) Len() int64 { return t.n }

// Config returns the tracker's configuration.
func (t *TugOfWar) Config() Config { return t.cfg }

// Counters returns a copy of the raw Z counters (row-major, group j at
// [j*s1, (j+1)*s1)). The experiment harness uses it for the Fig. 15
// individual-estimator distribution plot.
func (t *TugOfWar) Counters() []int64 {
	out := make([]int64, len(t.z))
	copy(out, t.z)
	return out
}

// SetFrequencies loads the sketch directly from a frequency vector,
// replacing the current state: Z_k = Σ_v ε_k(v)·f_v. Because the sketch is
// linear, the result is bit-identical to inserting every occurrence one at
// a time; the experiment harness uses this to evaluate large sketch arrays
// quickly. Frequencies may be negative (the sketch is defined on any
// integer-valued frequency vector).
func (t *TugOfWar) SetFrequencies(freq map[uint64]int64) {
	for k := range t.z {
		t.z[k] = 0
	}
	t.n = 0
	for v, f := range freq {
		for k := range t.z {
			t.z[k] += t.fns[k].Sign(v) * f
		}
		t.n += f
	}
}

// Merge adds the counters of other into t. The two trackers must have the
// same Config (same seed, hence the same hash family); then the merged
// sketch is exactly the sketch of the concatenated streams — the property
// that lets per-partition sketches be combined at query time.
func (t *TugOfWar) Merge(other *TugOfWar) error {
	if t.cfg != other.cfg {
		return errors.New("core: cannot merge tug-of-war sketches with different configs")
	}
	for k := range t.z {
		t.z[k] += other.z[k]
	}
	t.n += other.n
	return nil
}

// MarshalBinary serializes the sketch via the shared blob codec: config,
// length, counters. The hash functions themselves are not stored — they
// are re-derived from the seed on load, which keeps signatures small
// enough to ship between nodes (the paper's motivation for per-relation
// signatures).
func (t *TugOfWar) MarshalBinary() ([]byte, error) {
	return marshalSketch(blob.MagicTugOfWar, t.cfg, t.n, t.z), nil
}

// UnmarshalBinary restores a sketch serialized by MarshalBinary.
func (t *TugOfWar) UnmarshalBinary(data []byte) error {
	cfg, n, z, err := unmarshalSketch(blob.MagicTugOfWar, "tug-of-war", data)
	if err != nil {
		return err
	}
	fresh, err := NewTugOfWar(cfg)
	if err != nil {
		return err
	}
	fresh.n = n
	copy(fresh.z, z)
	*t = *fresh
	return nil
}

// marshalSketch frames the (Config, length, counter vector) payload both
// sketch flavors share.
func marshalSketch(magic uint32, cfg Config, n int64, z []int64) []byte {
	b := blob.NewBuilder(magic, 1, 8*4+8*len(z))
	b.U64(uint64(cfg.S1))
	b.U64(uint64(cfg.S2))
	b.U64(cfg.Seed)
	b.I64(n)
	b.I64s(z)
	return b.Seal()
}

// unmarshalSketch opens and validates a sketch blob: framing first, then
// the config cross-checked against the counter payload size BEFORE any
// allocation scales with the header's claims.
func unmarshalSketch(magic uint32, kind string, data []byte) (Config, int64, []int64, error) {
	_, payload, err := blob.Open(magic, 1, data)
	if err != nil {
		return Config{}, 0, nil, fmt.Errorf("core: %s blob: %w", kind, err)
	}
	c := blob.NewCursor(payload)
	cfg := Config{S1: c.Int(), S2: c.Int(), Seed: c.U64()}
	n := c.I64()
	if c.Err() != nil {
		return Config{}, 0, nil, fmt.Errorf("core: %s blob: %w", kind, c.Err())
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, 0, nil, err
	}
	s := c.Remaining() / 8
	if c.Remaining() != 8*s || cfg.S1 > s || s%cfg.S1 != 0 || s/cfg.S1 != cfg.S2 {
		return Config{}, 0, nil, fmt.Errorf("core: %s blob length %d does not match config %dx%d", kind, len(data), cfg.S1, cfg.S2)
	}
	z := c.I64s(s)
	if err := c.Close(); err != nil {
		return Config{}, 0, nil, fmt.Errorf("core: %s blob: %w", kind, err)
	}
	return cfg, n, z, nil
}

// Median returns the median of xs (mean of the middle two for even length).
// It does not modify xs. It panics on an empty slice.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		panic("core: median of empty slice")
	}
	tmp := make([]float64, len(xs))
	copy(tmp, xs)
	// Insertion sort: group counts are small (s2 <= a few dozen).
	for i := 1; i < len(tmp); i++ {
		for j := i; j > 0 && tmp[j] < tmp[j-1]; j-- {
			tmp[j], tmp[j-1] = tmp[j-1], tmp[j]
		}
	}
	m := len(tmp) / 2
	if len(tmp)%2 == 1 {
		return tmp[m]
	}
	return (tmp[m-1] + tmp[m]) / 2
}

// MedianOfMeans partitions xs into groups of size s1 (xs must have length
// s1·s2 for some s2 >= 1) and returns the median of the group means. It is
// the estimator combination rule both Theorems 2.1 and 2.2 use.
func MedianOfMeans(xs []float64, s1 int) (float64, error) {
	if s1 < 1 || len(xs) == 0 || len(xs)%s1 != 0 {
		return 0, fmt.Errorf("core: cannot split %d estimators into groups of %d", len(xs), s1)
	}
	s2 := len(xs) / s1
	means := make([]float64, s2)
	for j := 0; j < s2; j++ {
		sum := 0.0
		for i := 0; i < s1; i++ {
			sum += xs[j*s1+i]
		}
		means[j] = sum / float64(s1)
	}
	return Median(means), nil
}
