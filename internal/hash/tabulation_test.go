package hash

import (
	"math"
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestTab4Determinism(t *testing.T) {
	h1 := NewTab4(12345)
	h2 := NewTab4(12345)
	for x := uint64(0); x < 1000; x++ {
		if h1.Hash(x) != h2.Hash(x) {
			t.Fatalf("same seed produced different hash at x=%d", x)
		}
	}
}

func TestTab4SeedsDiffer(t *testing.T) {
	h1 := NewTab4(1)
	h2 := NewTab4(2)
	same := 0
	for x := uint64(0); x < 1000; x++ {
		if h1.Sign(x) == h2.Sign(x) {
			same++
		}
	}
	if same < 400 || same > 600 {
		t.Fatalf("sign agreement between seeds = %d/1000, want about 500", same)
	}
}

func TestTab4SignIsPlusMinusOne(t *testing.T) {
	h := NewTab4(3)
	for x := uint64(0); x < 2000; x++ {
		if s := h.Sign(x); s != 1 && s != -1 {
			t.Fatalf("Tab4.Sign(%d) = %d", x, s)
		}
	}
}

// TestTab4Balance checks the marginal: over many family members, each fixed
// point hashes to +1 about half the time.
func TestTab4Balance(t *testing.T) {
	const members = 4000
	for _, x := range []uint64{0, 1, 42, 1 << 40, ^uint64(0)} {
		sum := int64(0)
		for seed := uint64(0); seed < members; seed++ {
			sum += NewTab4(seed).Sign(x)
		}
		// 6 sigma = 6*sqrt(members) ≈ 380.
		if math.Abs(float64(sum)) > 400 {
			t.Errorf("point %d biased across family: sum = %d over %d members", x, sum, members)
		}
	}
}

// TestTab4PairProducts checks pairwise independence empirically:
// E[ε_x ε_y] ≈ 0 for x != y across family members.
func TestTab4PairProducts(t *testing.T) {
	const members = 4000
	pairs := [][2]uint64{{0, 1}, {5, 9}, {1, 1 << 30}, {123, 456}, {0, 1 << 63}}
	for _, p := range pairs {
		sum := int64(0)
		for seed := uint64(0); seed < members; seed++ {
			h := NewTab4(seed)
			sum += h.Sign(p[0]) * h.Sign(p[1])
		}
		if math.Abs(float64(sum)) > 400 {
			t.Errorf("pair %v correlated: sum = %d over %d members", p, sum, members)
		}
	}
}

// TestTab4QuadProducts checks the four-point product on generic quads, the
// property driving the tug-of-war variance bound.
func TestTab4QuadProducts(t *testing.T) {
	const members = 4000
	quads := [][4]uint64{
		{0, 1, 2, 3},
		{10, 20, 30, 40},
		{1, 1 << 10, 1 << 20, 1 << 30},
	}
	for _, q := range quads {
		sum := int64(0)
		for seed := uint64(0); seed < members; seed++ {
			h := NewTab4(seed)
			sum += h.Sign(q[0]) * h.Sign(q[1]) * h.Sign(q[2]) * h.Sign(q[3])
		}
		if math.Abs(float64(sum)) > 400 {
			t.Errorf("quad %v correlated: sum = %d over %d members", q, sum, members)
		}
	}
}

// TestTab4AdversarialQuads is the test that separates this family from
// SIMPLE tabulation. Each quad below forms a rectangle in character space
// (every byte position's four values pair up), so under simple tabulation
// the four hashes XOR to zero and the product of signs is +1 for EVERY
// member. The derived-character tables must break all of them.
func TestTab4AdversarialQuads(t *testing.T) {
	const members = 4000
	quads := [][4]uint64{
		// Rectangle in the two lowest bytes.
		{0x0000, 0x0001, 0x0100, 0x0101},
		// Rectangle spanning the two 32-bit halves.
		{0, 1, 1 << 32, 1<<32 | 1},
		// Rectangle across distant bytes within one half.
		{0, 0xff, 0xff << 16, 0xff<<16 | 0xff},
		// Three different pairing partitions across three byte positions:
		// bytes (b0,b1,b2) = (0,0,0), (0,1,1), (1,0,1), (1,1,0).
		{0x000000, 0x010100, 0x010001, 0x000101},
		// Same structure in the high half.
		{0, 0x0101 << 40, 0x0100<<40 | 1<<32, 0x0001<<40 | 1<<32},
	}
	for _, q := range quads {
		sum := int64(0)
		for seed := uint64(0); seed < members; seed++ {
			h := NewTab4(seed)
			sum += h.Sign(q[0]) * h.Sign(q[1]) * h.Sign(q[2]) * h.Sign(q[3])
		}
		if math.Abs(float64(sum)) > 400 {
			t.Errorf("adversarial quad %x correlated: sum = %d over %d members (simple tabulation would give %d)",
				q, sum, members, members)
		}
	}
}

// TestTab4OutputSpread buckets hashes of consecutive keys by their top bits;
// the full 64-bit output must be uniform, since FastTugOfWar carves bucket
// indices out of it.
func TestTab4OutputSpread(t *testing.T) {
	const n = 1 << 16
	h := NewTab4(42)
	var buckets [16]int
	for x := uint64(0); x < n; x++ {
		buckets[h.Hash(x)>>60]++
	}
	exp := float64(n) / 16
	for i, c := range buckets {
		if math.Abs(float64(c)-exp) > 6*math.Sqrt(exp) {
			t.Errorf("bucket %d count %d deviates from %f", i, c, exp)
		}
	}
}

// TestTab4SignMatchesHashLowBit pins the sign convention shared with
// FourWise: the sign is the low output bit mapped to ±1.
func TestTab4SignMatchesHashLowBit(t *testing.T) {
	h := NewTab4(7)
	for x := uint64(0); x < 512; x++ {
		want := int64(h.Hash(x)&1)*2 - 1
		if got := h.Sign(x); got != want {
			t.Fatalf("Sign(%d) = %d, want %d", x, got, want)
		}
	}
}

// TestTab4SharedPerSeed: one seed, one backing table; distinct seeds,
// distinct tables.
func TestTab4SharedPerSeed(t *testing.T) {
	a, b, c := NewTab4(12345), NewTab4(12345), NewTab4(12346)
	if a.Table() != b.Table() {
		t.Fatal("two calls on one seed built two tables")
	}
	if a.Table() == c.Table() {
		t.Fatal("two seeds share a table")
	}
}

// TestTab4ConcurrentFirstUse: goroutines racing to build one seed's
// table all get the same one.
func TestTab4ConcurrentFirstUse(t *testing.T) {
	const seed, workers = 0x5eed, 64
	tables := make([]*[tab4Size]uint64, workers)
	var wg sync.WaitGroup
	for i := range tables {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tables[i] = NewTab4(seed).Table()
		}()
	}
	wg.Wait()
	for i, tb := range tables {
		if tb != tables[0] {
			t.Fatalf("goroutine %d got its own table", i)
		}
	}
}

// TestTab4CacheReleasesSweep: once a 4,000-seed sweep's members are
// garbage, the collector takes their tables and the cache forgets them.
func TestTab4CacheReleasesSweep(t *testing.T) {
	const base, members = 1 << 40, 4000
	for seed := uint64(base); seed < base+members; seed++ {
		NewTab4(seed)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		left := 0
		for seed := uint64(base); seed < base+members; seed++ {
			if Tab4Cached(seed) {
				left++
			}
		}
		if left == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d sweep seeds still cached after GC", left, members)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func BenchmarkTab4Sign(b *testing.B) {
	h := NewTab4(1)
	var sink int64
	for i := 0; i < b.N; i++ {
		sink += h.Sign(uint64(i))
	}
	_ = sink
}

func BenchmarkTab4Hash(b *testing.B) {
	h := NewTab4(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += h.Hash(uint64(i))
	}
	_ = sink
}
