package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSplitMix64KnownStream(t *testing.T) {
	// Reference values for seed 0 from the public-domain reference
	// implementation (Steele/Lea/Flood).
	s := NewSplitMix64(0)
	want := []uint64{
		0xe220a8397b1dcdaf,
		0x6e789e6aa1b965f4,
		0x06c45d188009454f,
		0xf88bb8a8724c81ec,
		0x1b39896a51a8749b,
	}
	for i, w := range want {
		if got := s.Next(); got != w {
			t.Fatalf("SplitMix64(0) output %d = %#x, want %#x", i, got, w)
		}
	}
}

func TestMix64MatchesSplitMixStep(t *testing.T) {
	// Mix64(x) must equal the output of a SplitMix64 whose state is x.
	f := func(x uint64) bool {
		s := &SplitMix64{state: x}
		return s.Next() == Mix64(x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNewDeterministic(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams from equal seeds diverged at step %d", i)
		}
	}
}

func TestNewDistinctSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams from different seeds collided %d/1000 times", same)
	}
}

func TestUint64nBounds(t *testing.T) {
	r := New(7)
	for _, n := range []uint64{1, 2, 3, 10, 1 << 40, math.MaxUint64} {
		for i := 0; i < 200; i++ {
			if v := r.Uint64n(n); v >= n {
				t.Fatalf("Uint64n(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestUint64nPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uint64n(0) did not panic")
		}
	}()
	New(1).Uint64n(0)
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	for _, n := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Intn(%d) did not panic", n)
				}
			}()
			New(1).Intn(n)
		}()
	}
}

func TestUint64nUniformity(t *testing.T) {
	// Chi-square-style sanity check over 8 buckets.
	r := New(99)
	const buckets = 8
	const draws = 80000
	var count [buckets]int
	for i := 0; i < draws; i++ {
		count[r.Uint64n(buckets)]++
	}
	exp := float64(draws) / buckets
	chi2 := 0.0
	for _, c := range count {
		d := float64(c) - exp
		chi2 += d * d / exp
	}
	// 7 degrees of freedom; 99.99th percentile is about 27.9.
	if chi2 > 35 {
		t.Fatalf("Uint64n badly non-uniform: chi2 = %.2f, counts = %v", chi2, count)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
	}
}

func TestFloat64OpenRange(t *testing.T) {
	r := New(5)
	for i := 0; i < 10000; i++ {
		v := r.Float64Open()
		if v <= 0 || v > 1 {
			t.Fatalf("Float64Open() = %v out of (0,1]", v)
		}
	}
}

func TestSignBalance(t *testing.T) {
	r := New(3)
	sum := 0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Sign()
	}
	// |sum| should be O(sqrt(n)); 6 sigma = 6*sqrt(n) ≈ 1900.
	if abs := math.Abs(float64(sum)); abs > 2000 {
		t.Fatalf("Sign() biased: sum = %d over %d draws", sum, n)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(11)
	for _, n := range []int{0, 1, 2, 17, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	r := New(13)
	s := []int{0, 1, 2, 3, 4, 5, 6, 7}
	r.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
	seen := make([]bool, len(s))
	for _, v := range s {
		if seen[v] {
			t.Fatalf("Shuffle produced duplicate: %v", s)
		}
		seen[v] = true
	}
}

func TestForkIndependence(t *testing.T) {
	r := New(21)
	f := r.Fork()
	// A forked stream must not equal the parent's continued stream.
	same := 0
	for i := 0; i < 100; i++ {
		if r.Uint64() == f.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("forked stream tracks parent (%d collisions)", same)
	}
}

func TestPoissonMeanVariance(t *testing.T) {
	r := New(17)
	for _, lambda := range []float64{0.5, 3, 20, 50, 200} {
		const n = 40000
		sum, sumSq := 0.0, 0.0
		for i := 0; i < n; i++ {
			v := float64(r.Poisson(lambda))
			sum += v
			sumSq += v * v
		}
		mean := sum / n
		variance := sumSq/n - mean*mean
		// Mean and variance of Poisson are both lambda. Allow 5 sigma on
		// the mean estimate: sigma_mean = sqrt(lambda/n).
		tol := 5 * math.Sqrt(lambda/float64(n))
		if math.Abs(mean-lambda) > tol {
			t.Errorf("Poisson(%v): mean = %.3f, want %v +- %.3f", lambda, mean, lambda, tol)
		}
		if math.Abs(variance-lambda) > 0.15*lambda+1 {
			t.Errorf("Poisson(%v): variance = %.3f, want about %v", lambda, variance, lambda)
		}
	}
}

func TestPoissonNonPositiveLambda(t *testing.T) {
	r := New(1)
	if got := r.Poisson(0); got != 0 {
		t.Fatalf("Poisson(0) = %d, want 0", got)
	}
	if got := r.Poisson(-3); got != 0 {
		t.Fatalf("Poisson(-3) = %d, want 0", got)
	}
}

func TestGeometricMean(t *testing.T) {
	r := New(19)
	for _, p := range []float64{0.1, 0.5, 0.9} {
		const n = 50000
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += float64(r.Geometric(p))
		}
		mean := sum / n
		want := (1 - p) / p
		if math.Abs(mean-want) > 0.1*want+0.05 {
			t.Errorf("Geometric(%v): mean = %.3f, want %.3f", p, mean, want)
		}
	}
}

func TestGeometricEdge(t *testing.T) {
	r := New(1)
	if got := r.Geometric(1); got != 0 {
		t.Fatalf("Geometric(1) = %d, want 0", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Geometric(0) did not panic")
		}
	}()
	r.Geometric(0)
}

func TestBinomialMoments(t *testing.T) {
	r := New(23)
	cases := []struct {
		n int
		p float64
	}{
		{10, 0.5}, {100, 0.1}, {1000, 0.3}, {1 << 16, 0.25},
	}
	for _, c := range cases {
		const trials = 2000
		sum := 0.0
		for i := 0; i < trials; i++ {
			sum += float64(r.Binomial(c.n, c.p))
		}
		mean := sum / trials
		want := float64(c.n) * c.p
		sigma := math.Sqrt(float64(c.n) * c.p * (1 - c.p) / trials)
		if math.Abs(mean-want) > 6*sigma+0.01 {
			t.Errorf("Binomial(%d,%v): mean = %.2f, want %.2f +- %.2f", c.n, c.p, mean, want, 6*sigma)
		}
	}
}

func TestBinomialEdges(t *testing.T) {
	r := New(1)
	if got := r.Binomial(0, 0.5); got != 0 {
		t.Fatalf("Binomial(0, .5) = %d", got)
	}
	if got := r.Binomial(10, 0); got != 0 {
		t.Fatalf("Binomial(10, 0) = %d", got)
	}
	if got := r.Binomial(10, 1); got != 10 {
		t.Fatalf("Binomial(10, 1) = %d", got)
	}
	if got := r.Binomial(10, 1.5); got != 10 {
		t.Fatalf("Binomial(10, 1.5) = %d", got)
	}
}

func TestNormalMoments(t *testing.T) {
	r := New(29)
	const n = 100000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Normal()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("Normal mean = %.4f, want 0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Errorf("Normal variance = %.4f, want 1", variance)
	}
}

func TestExpMean(t *testing.T) {
	r := New(31)
	const n = 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Exp()
	}
	if mean := sum / n; math.Abs(mean-1) > 0.03 {
		t.Errorf("Exp mean = %.4f, want 1", mean)
	}
}

func TestZipfRanksAndSkew(t *testing.T) {
	r := New(37)
	z := NewZipf(r, 1.0, 100)
	counts := make([]int, 101)
	const n = 100000
	for i := 0; i < n; i++ {
		v := z.Next()
		if v < 1 || v > 100 {
			t.Fatalf("Zipf rank %d out of [1,100]", v)
		}
		counts[v]++
	}
	// Rank 1 must dominate rank 10 by roughly 10x for alpha=1.
	ratio := float64(counts[1]) / float64(counts[10]+1)
	if ratio < 5 || ratio > 20 {
		t.Errorf("Zipf(1.0) rank1/rank10 ratio = %.2f, want about 10", ratio)
	}
}

func TestZipfPanicsOnBadN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewZipf(n=0) did not panic")
		}
	}()
	NewZipf(New(1), 1.0, 0)
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= r.Uint64()
	}
	_ = sink
}

func BenchmarkPoisson20(b *testing.B) {
	r := New(1)
	var sink int
	for i := 0; i < b.N; i++ {
		sink += r.Poisson(20)
	}
	_ = sink
}

// TestSeedDraws: seeds drawn back to back differ, so the jitter
// generators a fleet builds in one clock tick do not run in lockstep.
func TestSeedDraws(t *testing.T) {
	seen := map[uint64]bool{}
	for i := 0; i < 64; i++ {
		s := Seed()
		if seen[s] {
			t.Fatalf("Seed repeated %#x after %d draws", s, i)
		}
		seen[s] = true
	}
}
