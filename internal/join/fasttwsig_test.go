package join

import (
	"math"
	"testing"
	"testing/quick"

	"amstrack/internal/exact"
	"amstrack/internal/hash"
	"amstrack/internal/xrand"
)

func TestNewFastFamilyValidation(t *testing.T) {
	if _, err := NewFastFamily(0, 1, 1); err == nil {
		t.Fatal("buckets=0 accepted")
	}
	if _, err := NewFastFamily(1, 0, 1); err == nil {
		t.Fatal("rows=0 accepted")
	}
	if _, err := NewFastFamily(1, hash.MaxTab4Rows+1, 1); err == nil {
		t.Fatalf("rows=%d accepted", hash.MaxTab4Rows+1)
	}
	fam, err := NewFastFamily(64, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	if fam.K() != 256 || fam.Buckets() != 64 || fam.Rows() != 4 || fam.Seed() != 7 {
		t.Fatalf("family shape wrong: %+v", fam)
	}
	if got := fam.NewSignature().MemoryWords(); got != 256 {
		t.Fatalf("MemoryWords = %d", got)
	}
}

// TestFastEstimateJoinExactOnSingleSharedValue mirrors the flat scheme's
// exactness on degenerate input: one shared value lands in one bucket per
// row, so every row's inner product is |F|·|G| exactly.
func TestFastEstimateJoinExactOnSingleSharedValue(t *testing.T) {
	fam, _ := NewFastFamily(32, 4, 5)
	f, g := fam.NewSignature(), fam.NewSignature()
	for i := 0; i < 3; i++ {
		f.Insert(42)
	}
	for i := 0; i < 5; i++ {
		g.Insert(42)
	}
	est, err := EstimateJoin(f, g)
	if err != nil {
		t.Fatal(err)
	}
	if est != 15 {
		t.Fatalf("estimate = %v, want exactly 15", est)
	}
	if f.SelfJoinEstimate() != 9 {
		t.Fatalf("SJ estimate = %v, want exactly 9", f.SelfJoinEstimate())
	}
}

// TestFastEstimateJoinUnbiasedOverFamilies mirrors the Fast-AMS
// unbiasedness argument: for any pair of frequency vectors, E[Y_j] =
// Σ_v f_v·g_v because distinct values contribute only via colliding
// buckets AND agreeing signs, which the four-wise independent hash makes
// mean-zero. Empirically: average the single-row estimate across many
// independent families.
func TestFastEstimateJoinUnbiasedOverFamilies(t *testing.T) {
	r := xrand.New(13)
	fvals := make([]uint64, 2000)
	gvals := make([]uint64, 2000)
	for i := range fvals {
		fvals[i] = r.Uint64n(60)
		gvals[i] = r.Uint64n(60)
	}
	fh, gh := exact.FromValues(fvals), exact.FromValues(gvals)
	truth := float64(fh.JoinSize(gh))
	const fams = 3000
	sum := 0.0
	for seed := uint64(0); seed < fams; seed++ {
		// Tiny bucket count so collisions actually happen: unbiasedness
		// must survive them, not dodge them.
		fam, _ := NewFastFamily(4, 1, seed)
		sf, sg := fam.NewSignature(), fam.NewSignature()
		sf.SetFrequencies(fh.Frequencies())
		sg.SetFrequencies(gh.Frequencies())
		est, err := EstimateJoin(sf, sg)
		if err != nil {
			t.Fatal(err)
		}
		sum += est
	}
	mean := sum / fams
	if math.Abs(mean-truth)/truth > 0.1 {
		t.Fatalf("mean bucketed estimate %.0f deviates from join size %.0f", mean, truth)
	}
}

// TestFastEstimateJoinVarianceBound checks the FastFamily analysis
// empirically: Var(Y_j) ≤ 2·SJ(F)·SJ(G)/buckets, the flat Lemma 4.4 bound
// divided by the bucket count.
func TestFastEstimateJoinVarianceBound(t *testing.T) {
	r := xrand.New(21)
	fvals := make([]uint64, 1000)
	gvals := make([]uint64, 1000)
	for i := range fvals {
		fvals[i] = r.Uint64n(25)
		gvals[i] = r.Uint64n(25)
	}
	fh, gh := exact.FromValues(fvals), exact.FromValues(gvals)
	truth := float64(fh.JoinSize(gh))
	const buckets = 8
	bound := 2 * float64(fh.SelfJoin()) * float64(gh.SelfJoin()) / buckets
	const fams = 2000
	sumSq := 0.0
	for seed := uint64(0); seed < fams; seed++ {
		fam, _ := NewFastFamily(buckets, 1, seed)
		sf, sg := fam.NewSignature(), fam.NewSignature()
		sf.SetFrequencies(fh.Frequencies())
		sg.SetFrequencies(gh.Frequencies())
		est, _ := EstimateJoin(sf, sg)
		d := est - truth
		sumSq += d * d
	}
	variance := sumSq / fams
	if variance > bound*1.2 {
		t.Fatalf("empirical variance %.3g exceeds bucketed Lemma 4.4 bound %.3g", variance, bound)
	}
}

// TestFastAccuracyMatchesFlatAtEqualMemory is the §4.3 equal-memory
// comparison: at k total words the bucketed scheme's error must be in the
// same ballpark as the flat scheme's (same variance bound), not a
// constant factor worse.
func TestFastAccuracyMatchesFlatAtEqualMemory(t *testing.T) {
	r := xrand.New(31)
	fvals := make([]uint64, 20000)
	gvals := make([]uint64, 20000)
	for i := range fvals {
		fvals[i] = r.Uint64n(500)
		gvals[i] = r.Uint64n(500)
	}
	fh, gh := exact.FromValues(fvals), exact.FromValues(gvals)
	truth := float64(fh.JoinSize(gh))
	const k, rows, seeds = 256, 4, 12
	flatErr, fastErr := 0.0, 0.0
	for seed := uint64(0); seed < seeds; seed++ {
		flatFam, _ := NewFamily(k, 300+seed)
		a, b := flatFam.NewSignature(), flatFam.NewSignature()
		a.SetFrequencies(fh.Frequencies())
		b.SetFrequencies(gh.Frequencies())
		est, _ := EstimateJoin(a, b)
		flatErr += math.Abs(est - truth)

		fastFam, _ := NewFastFamily(k/rows, rows, 300+seed)
		c, d := fastFam.NewSignature(), fastFam.NewSignature()
		c.SetFrequencies(fh.Frequencies())
		d.SetFrequencies(gh.Frequencies())
		est, _ = EstimateJoin(c, d)
		fastErr += math.Abs(est - truth)
	}
	// Equal variance bounds; allow generous slack for the small trial count.
	if fastErr > 3*flatErr {
		t.Fatalf("fast error %.3g more than 3x flat error %.3g at equal memory", fastErr/seeds, flatErr/seeds)
	}
}

func TestFastTWSignatureLinearity(t *testing.T) {
	fam, _ := NewFastFamily(16, 2, 3)
	s := fam.NewSignature()
	s.Insert(7)
	s.Insert(7)
	s.Insert(9)
	if err := s.Delete(7); err != nil {
		t.Fatal(err)
	}
	want := fam.NewSignature()
	want.Insert(7)
	want.Insert(9)
	cs, cw := s.Counters(), want.Counters()
	for i := range cs {
		if cs[i] != cw[i] {
			t.Fatalf("counter %d: %d != %d after delete", i, cs[i], cw[i])
		}
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestFastSetFrequenciesMatchesStreaming(t *testing.T) {
	fam, _ := NewFastFamily(8, 3, 11)
	f := func(vals []uint8) bool {
		a := fam.NewSignature()
		b := fam.NewSignature()
		h := exact.NewHistogram()
		for _, v := range vals {
			a.Insert(uint64(v))
			h.Insert(uint64(v))
		}
		b.SetFrequencies(h.Frequencies())
		ca, cb := a.Counters(), b.Counters()
		for m := range ca {
			if ca[m] != cb[m] {
				return false
			}
		}
		return a.Len() == b.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFastBatchMatchesSingle(t *testing.T) {
	fam, _ := NewFastFamily(32, 2, 17)
	vs := make([]uint64, 500)
	r := xrand.New(3)
	for i := range vs {
		vs[i] = r.Uint64n(40)
	}
	one, batch := fam.NewSignature(), fam.NewSignature()
	for _, v := range vs {
		one.Insert(v)
	}
	batch.InsertBatch(vs)
	co, cb := one.Counters(), batch.Counters()
	for i := range co {
		if co[i] != cb[i] {
			t.Fatalf("counter %d differs: %d vs %d", i, co[i], cb[i])
		}
	}
	if err := batch.DeleteBatch(vs[:100]); err != nil {
		t.Fatal(err)
	}
	for _, v := range vs[:100] {
		if err := one.Delete(v); err != nil {
			t.Fatal(err)
		}
	}
	co, cb = one.Counters(), batch.Counters()
	for i := range co {
		if co[i] != cb[i] {
			t.Fatalf("counter %d differs after batch delete", i)
		}
	}
}

func TestFastMergeEqualsConcatenation(t *testing.T) {
	fam, _ := NewFastFamily(16, 2, 23)
	a, b, all := fam.NewSignature(), fam.NewSignature(), fam.NewSignature()
	r := xrand.New(9)
	for i := 0; i < 300; i++ {
		v := r.Uint64n(50)
		if i%2 == 0 {
			a.Insert(v)
		} else {
			b.Insert(v)
		}
		all.Insert(v)
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	ca, call := a.Counters(), all.Counters()
	for i := range ca {
		if ca[i] != call[i] {
			t.Fatalf("merged counter %d differs", i)
		}
	}
	if a.Len() != all.Len() {
		t.Fatalf("merged Len = %d, want %d", a.Len(), all.Len())
	}
	// Merge must reject other schemes and other families.
	flatFam, _ := NewFamily(32, 23)
	if err := a.Merge(flatFam.NewSignature()); err == nil {
		t.Fatal("cross-scheme merge accepted")
	}
	otherFam, _ := NewFastFamily(16, 2, 99)
	if err := a.Merge(otherFam.NewSignature()); err == nil {
		t.Fatal("cross-family merge accepted")
	}
}

func TestEstimateJoinRejectsSchemeMix(t *testing.T) {
	flatFam, _ := NewFamily(16, 1)
	fastFam, _ := NewFastFamily(8, 2, 1)
	if _, err := EstimateJoin(flatFam.NewSignature(), fastFam.NewSignature()); err == nil {
		t.Fatal("flat×fast estimate accepted")
	}
	if _, err := EstimateJoin(fastFam.NewSignature(), flatFam.NewSignature()); err == nil {
		t.Fatal("fast×flat estimate accepted")
	}
	other, _ := NewFastFamily(8, 2, 2)
	if _, err := EstimateJoin(fastFam.NewSignature(), other.NewSignature()); err == nil {
		t.Fatal("cross-family fast estimate accepted")
	}
	if _, err := EstimateJoin(nil, nil); err == nil {
		t.Fatal("nil signatures accepted")
	}
}

func TestFastEstimateJoinMedianOfMeans(t *testing.T) {
	fam, _ := NewFastFamily(16, 4, 9)
	a, b := fam.NewSignature(), fam.NewSignature()
	r := xrand.New(2)
	for i := 0; i < 500; i++ {
		a.Insert(r.Uint64n(30))
		b.Insert(r.Uint64n(30))
	}
	mean, err := EstimateJoin(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// groupSize = rows reduces to the plain mean.
	mom, err := EstimateJoinMedianOfMeans(a, b, 4)
	if err != nil {
		t.Fatal(err)
	}
	if mom != mean {
		t.Fatalf("median-of-means over one group %v != mean %v", mom, mean)
	}
	if _, err := EstimateJoinMedianOfMeans(a, b, 3); err == nil {
		t.Fatal("groupSize not dividing rows accepted")
	}
	if _, err := EstimateJoinMedianOfMeans(a, b, 2); err != nil {
		t.Fatal(err)
	}
}

func TestFastTWSignatureSerializationRoundTrip(t *testing.T) {
	fam, _ := NewFastFamily(32, 4, 77)
	s := fam.NewSignature()
	r := xrand.New(5)
	for i := 0; i < 1000; i++ {
		s.Insert(r.Uint64n(100))
	}
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back FastTWSignature
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	cs, cb := s.Counters(), back.Counters()
	for i := range cs {
		if cs[i] != cb[i] {
			t.Fatalf("counter %d differs after round trip", i)
		}
	}
	if back.Len() != s.Len() {
		t.Fatalf("Len = %d, want %d", back.Len(), s.Len())
	}
	// The restored signature still estimates against the original.
	est, err := EstimateJoin(s, &back)
	if err != nil {
		t.Fatal(err)
	}
	if est <= 0 {
		t.Fatalf("self-estimate = %v", est)
	}
}

// TestFastTWSignatureUnmarshalRejectsCorruption is the corrupt-input table
// for this Unmarshal: truncated header, truncated body, bad magic, CRC
// flip, and dimension/length mismatch.
func TestFastTWSignatureUnmarshalRejectsCorruption(t *testing.T) {
	fam, _ := NewFastFamily(8, 2, 1)
	s := fam.NewSignature()
	s.Insert(4)
	data, _ := s.MarshalBinary()

	flatFam, _ := NewFamily(4, 1)
	flat := flatFam.NewSignature()
	flatBlob, _ := flat.MarshalBinary()

	cases := map[string][]byte{
		"empty":            nil,
		"truncated header": data[:3],
		"truncated body":   data[:len(data)-5],
		"bad magic":        flatBlob, // a flat signature blob is not a fast one
		"crc flip": func() []byte {
			bad := append([]byte(nil), data...)
			bad[len(bad)-2] ^= 0x10
			return bad
		}(),
		"payload flip": func() []byte {
			bad := append([]byte(nil), data...)
			bad[9] ^= 0x01
			return bad
		}(),
	}
	for name, blobData := range cases {
		var back FastTWSignature
		if err := back.UnmarshalBinary(blobData); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// Every truncation point must be rejected.
	for cut := 0; cut < len(data); cut++ {
		var back FastTWSignature
		if err := back.UnmarshalBinary(data[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d accepted", cut, len(data))
		}
	}
}
