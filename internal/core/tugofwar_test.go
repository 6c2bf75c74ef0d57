package core

import (
	"math"
	"sync"
	"testing"
	"testing/quick"

	"amstrack/internal/exact"
	"amstrack/internal/xrand"
)

func TestConfigValidate(t *testing.T) {
	if err := (Config{S1: 1, S2: 1}).Validate(); err != nil {
		t.Fatalf("minimal config rejected: %v", err)
	}
	if err := (Config{S1: 0, S2: 1}).Validate(); err == nil {
		t.Fatal("S1=0 accepted")
	}
	if err := (Config{S1: 1, S2: 0}).Validate(); err == nil {
		t.Fatal("S2=0 accepted")
	}
}

func TestConfigForError(t *testing.T) {
	c, err := ConfigForError(0.1, 0.01, 7)
	if err != nil {
		t.Fatal(err)
	}
	// s1 = ceil(16/0.01) = 1600; s2 = ceil(2*log2(100)) = 14.
	if c.S1 != 1600 {
		t.Errorf("S1 = %d, want 1600", c.S1)
	}
	if c.S2 != 14 {
		t.Errorf("S2 = %d, want 14", c.S2)
	}
	if c.Seed != 7 {
		t.Errorf("Seed = %d", c.Seed)
	}
	for _, bad := range [][2]float64{{0, 0.5}, {1, 0.5}, {0.5, 0}, {0.5, 1}, {-1, 0.5}, {0.5, -1}} {
		if _, err := ConfigForError(bad[0], bad[1], 0); err == nil {
			t.Errorf("ConfigForError(%v, %v) accepted", bad[0], bad[1])
		}
	}
}

func TestSampleCountConfigForError(t *testing.T) {
	c, err := SampleCountConfigForError(0.5, 0.25, 10000, 0)
	if err != nil {
		t.Fatal(err)
	}
	// s1 = ceil(16*sqrt(10000)/0.25) = ceil(16*100/0.25) = 6400.
	if c.S1 != 6400 {
		t.Errorf("S1 = %d, want 6400", c.S1)
	}
	if _, err := SampleCountConfigForError(0.5, 0.25, 0, 0); err == nil {
		t.Error("domain size 0 accepted")
	}
	if _, err := SampleCountConfigForError(0, 0.25, 10, 0); err == nil {
		t.Error("eps 0 accepted")
	}
}

func TestNewTugOfWarRejectsBadConfig(t *testing.T) {
	if _, err := NewTugOfWar(Config{S1: 0, S2: 1}); err == nil {
		t.Fatal("bad config accepted")
	}
}

func TestTugOfWarExactOnSingleValue(t *testing.T) {
	// A multiset of k copies of one value: every counter is ±k, so every
	// X = k², and the estimate is exactly SJ = k² regardless of s.
	tw, err := NewTugOfWar(Config{S1: 3, S2: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		tw.Insert(42)
	}
	if got := tw.Estimate(); got != 100 {
		t.Fatalf("estimate = %v, want exactly 100", got)
	}
}

func TestTugOfWarEmptyIsZero(t *testing.T) {
	tw, _ := NewTugOfWar(Config{S1: 4, S2: 2, Seed: 1})
	if got := tw.Estimate(); got != 0 {
		t.Fatalf("empty estimate = %v", got)
	}
}

func TestTugOfWarInsertDeleteCancels(t *testing.T) {
	// The sketch is linear: inserting then deleting any multiset returns
	// every counter to zero.
	f := func(vals []uint8, seed uint64) bool {
		tw, err := NewTugOfWar(Config{S1: 4, S2: 2, Seed: seed})
		if err != nil {
			return false
		}
		for _, v := range vals {
			tw.Insert(uint64(v))
		}
		for _, v := range vals {
			if err := tw.Delete(uint64(v)); err != nil {
				return false
			}
		}
		for _, z := range tw.RawCounters() {
			if z != 0 {
				return false
			}
		}
		return tw.Estimate() == 0 && tw.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTugOfWarDeletionEquivalence(t *testing.T) {
	// Feeding insert/delete sequence Â must leave the sketch identical to
	// feeding its canonical insert-only sequence A (linearity).
	a, _ := NewTugOfWar(Config{S1: 8, S2: 2, Seed: 3})
	b, _ := NewTugOfWar(Config{S1: 8, S2: 2, Seed: 3})
	// Â: insert 1..5, delete 3, insert 3 3, delete 1.
	for _, v := range []uint64{1, 2, 3, 4, 5} {
		a.Insert(v)
	}
	_ = a.Delete(3)
	a.Insert(3)
	a.Insert(3)
	_ = a.Delete(1)
	// A: multiset {2,3,3,4,5}.
	for _, v := range []uint64{2, 3, 3, 4, 5} {
		b.Insert(v)
	}
	za, zb := a.RawCounters(), b.RawCounters()
	for k := range za {
		if za[k] != zb[k] {
			t.Fatalf("counter %d differs: %d vs %d", k, za[k], zb[k])
		}
	}
}

func TestTugOfWarUnbiasedOverSeeds(t *testing.T) {
	// E[X] = SJ: averaging single-counter estimates across many independent
	// seeds must converge to the exact self-join size.
	vals := []uint64{1, 1, 1, 2, 2, 3, 4, 5, 5, 5, 5, 6}
	sj := float64(exact.SelfJoinOf(vals))
	const seeds = 3000
	sum := 0.0
	for seed := uint64(0); seed < seeds; seed++ {
		tw, _ := NewTugOfWar(Config{S1: 1, S2: 1, Seed: seed})
		for _, v := range vals {
			tw.Insert(v)
		}
		sum += tw.Estimate()
	}
	mean := sum / seeds
	// Var(X) <= 2*SJ² → sigma of the mean <= SJ*sqrt(2/seeds) ≈ 0.026*SJ.
	if math.Abs(mean-sj)/sj > 0.15 {
		t.Fatalf("mean single-sketch estimate %.1f deviates from SJ %.1f", mean, sj)
	}
}

func TestTugOfWarAccuracyTheorem(t *testing.T) {
	// Theorem 2.2: relative error <= 4/sqrt(s1) with prob >= 1 - 2^{-s2/2}.
	// With s1=256, s2=8: error <= 0.25 with prob >= 0.93. Run 40 trials on
	// a skewed multiset and require at most a handful of violations.
	r := xrand.New(99)
	vals := make([]uint64, 20000)
	for i := range vals {
		vals[i] = r.Uint64n(200) * r.Uint64n(2) // skewed: many zeros
	}
	sj := float64(exact.SelfJoinOf(vals))
	violations := 0
	const trials = 40
	for trial := 0; trial < trials; trial++ {
		tw, _ := NewTugOfWar(Config{S1: 256, S2: 8, Seed: uint64(trial)})
		tw.SetFrequencies(exact.FromValues(vals).Frequencies())
		if exact.RelativeError(tw.Estimate(), sj) > 0.25 {
			violations++
		}
	}
	if violations > 6 {
		t.Fatalf("%d/%d trials exceeded the Theorem 2.2 error bound", violations, trials)
	}
}

func TestTugOfWarSetFrequenciesMatchesStreaming(t *testing.T) {
	f := func(vals []uint8, seed uint64) bool {
		cfg := Config{S1: 4, S2: 3, Seed: seed}
		a, _ := NewTugOfWar(cfg)
		b, _ := NewTugOfWar(cfg)
		h := exact.NewHistogram()
		for _, v := range vals {
			a.Insert(uint64(v))
			h.Insert(uint64(v))
		}
		b.SetFrequencies(h.Frequencies())
		za, zb := a.RawCounters(), b.RawCounters()
		for k := range za {
			if za[k] != zb[k] {
				return false
			}
		}
		return a.Len() == b.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTugOfWarMerge(t *testing.T) {
	cfg := Config{S1: 4, S2: 2, Seed: 5}
	whole, _ := NewTugOfWar(cfg)
	part1, _ := NewTugOfWar(cfg)
	part2, _ := NewTugOfWar(cfg)
	r := xrand.New(8)
	for i := 0; i < 1000; i++ {
		v := r.Uint64n(50)
		whole.Insert(v)
		if i%2 == 0 {
			part1.Insert(v)
		} else {
			part2.Insert(v)
		}
	}
	if err := part1.Merge(part2); err != nil {
		t.Fatal(err)
	}
	zw, zp := whole.RawCounters(), part1.RawCounters()
	for k := range zw {
		if zw[k] != zp[k] {
			t.Fatalf("merged counter %d = %d, whole-stream = %d", k, zp[k], zw[k])
		}
	}
	if part1.Len() != whole.Len() {
		t.Fatalf("merged Len = %d, want %d", part1.Len(), whole.Len())
	}
}

func TestTugOfWarMergeRejectsDifferentConfigs(t *testing.T) {
	a, _ := NewTugOfWar(Config{S1: 4, S2: 2, Seed: 5})
	b, _ := NewTugOfWar(Config{S1: 4, S2: 2, Seed: 6})
	if err := a.Merge(b); err == nil {
		t.Fatal("merge across seeds accepted")
	}
	c, _ := NewTugOfWar(Config{S1: 2, S2: 4, Seed: 5})
	if err := a.Merge(c); err == nil {
		t.Fatal("merge across shapes accepted")
	}
}

func TestTugOfWarSerializationRoundTrip(t *testing.T) {
	tw, _ := NewTugOfWar(Config{S1: 8, S2: 3, Seed: 11})
	r := xrand.New(1)
	for i := 0; i < 500; i++ {
		tw.Insert(r.Uint64n(100))
	}
	blob, err := tw.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back TugOfWar
	if err := back.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if back.Estimate() != tw.Estimate() || back.Len() != tw.Len() || back.Config() != tw.Config() {
		t.Fatal("round trip changed sketch state")
	}
	// The restored sketch must keep tracking identically.
	tw.Insert(7)
	back.Insert(7)
	if back.Estimate() != tw.Estimate() {
		t.Fatal("restored sketch diverged on further inserts")
	}
}

func TestTugOfWarUnmarshalRejectsCorruption(t *testing.T) {
	tw, _ := NewTugOfWar(Config{S1: 2, S2: 2, Seed: 1})
	tw.Insert(1)
	blob, _ := tw.MarshalBinary()

	var back TugOfWar
	if err := back.UnmarshalBinary(blob[:10]); err == nil {
		t.Error("truncated blob accepted")
	}
	bad := append([]byte(nil), blob...)
	bad[8] ^= 0xff
	if err := back.UnmarshalBinary(bad); err == nil {
		t.Error("corrupted blob accepted (checksum)")
	}
	// Valid checksum but wrong magic.
	bad2 := append([]byte(nil), blob...)
	bad2[0] ^= 0xff
	// Recompute trailing checksum so only the magic check can fail.
	bad2 = bad2[:len(bad2)-4]
	sum := crc32ChecksumIEEE(bad2)
	bad2 = append(bad2, byte(sum), byte(sum>>8), byte(sum>>16), byte(sum>>24))
	if err := back.UnmarshalBinary(bad2); err == nil {
		t.Error("wrong magic accepted")
	}
}

func TestTugOfWarCountersCopy(t *testing.T) {
	tw, _ := NewTugOfWar(Config{S1: 2, S2: 1, Seed: 1})
	tw.Insert(5)
	c := tw.Counters()
	c[0] = 999
	if tw.Counters()[0] == 999 {
		t.Fatal("Counters returned live slice")
	}
}

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{3, 1}, 2},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{-1, -5, 2, 0, 7}, 0},
	}
	for _, c := range cases {
		if got := Median(c.in); got != c.want {
			t.Errorf("Median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestMedianDoesNotMutate(t *testing.T) {
	in := []float64{3, 1, 2}
	Median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Fatalf("Median mutated input: %v", in)
	}
}

func TestMedianPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Median(nil) did not panic")
		}
	}()
	Median(nil)
}

func TestMedianOfMeans(t *testing.T) {
	// Groups (1,3), (10,20), (2,2): means 2, 15, 2 → median 2.
	got, err := MedianOfMeans([]float64{1, 3, 10, 20, 2, 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Fatalf("MedianOfMeans = %v, want 2", got)
	}
	if _, err := MedianOfMeans([]float64{1, 2, 3}, 2); err == nil {
		t.Fatal("uneven split accepted")
	}
	if _, err := MedianOfMeans(nil, 1); err == nil {
		t.Fatal("empty input accepted")
	}
	if _, err := MedianOfMeans([]float64{1}, 0); err == nil {
		t.Fatal("s1=0 accepted")
	}
}

// crc32ChecksumIEEE avoids importing hash/crc32 in two files of the test
// package under different names.
func crc32ChecksumIEEE(b []byte) uint32 {
	table := make([]uint32, 256)
	for i := range table {
		c := uint32(i)
		for k := 0; k < 8; k++ {
			if c&1 != 0 {
				c = 0xedb88320 ^ (c >> 1)
			} else {
				c >>= 1
			}
		}
		table[i] = c
	}
	crc := ^uint32(0)
	for _, x := range b {
		crc = table[byte(crc)^x] ^ (crc >> 8)
	}
	return ^crc
}

func BenchmarkTugOfWarInsertS64(b *testing.B) {
	tw, _ := NewTugOfWar(Config{S1: 8, S2: 8, Seed: 1})
	for i := 0; i < b.N; i++ {
		tw.Insert(uint64(i & 1023))
	}
}

func BenchmarkTugOfWarEstimateS256(b *testing.B) {
	tw, _ := NewTugOfWar(Config{S1: 32, S2: 8, Seed: 1})
	for i := 0; i < 10000; i++ {
		tw.Insert(uint64(i & 255))
	}
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += tw.Estimate()
	}
	_ = sink
}

// TestConcurrentEstimateReadOnly runs Estimate from several goroutines
// on one shared, fully built sketch (the coordinator's cached-bundle
// shape: many /v1/join requests reading one merged sketch). Estimate
// must be read-only — every caller gets the serial answer, and -race
// sees no write.
func TestConcurrentEstimateReadOnly(t *testing.T) {
	cfg := Config{S1: 64, S2: 8, Seed: 17}
	flat, _ := NewTugOfWar(cfg)
	fast, _ := NewFastTugOfWar(cfg)
	r := xrand.New(5)
	for i := 0; i < 4000; i++ {
		v := r.Uint64n(200)
		flat.Insert(v)
		fast.Insert(v)
	}
	for _, tr := range []Tracker{flat, fast} {
		want := tr.Estimate()
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					if got := tr.Estimate(); got != want {
						t.Errorf("%T: concurrent Estimate = %v, serial %v", tr, got, want)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}
