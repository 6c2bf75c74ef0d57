package hash

import (
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"amstrack/internal/xrand"
)

// Tab4 is the scalar reference for one member of the family: one seed's
// tables, hashed one member at a time, as every sketch row hashed before
// rows were grouped. The statistical tests below run on it, and
// TestTab4x8LanesMatchTab4 holds every lane of a group to it.
type Tab4 struct {
	t *[tab4Size]uint64
}

func NewTab4(seed uint64) Tab4 {
	r := xrand.New(xrand.Mix64(seed) ^ tab4Salt)
	t := new([tab4Size]uint64)
	for i := range t {
		t[i] = r.Uint64()
	}
	return Tab4{t: t}
}

func (h Tab4) Hash(x uint64) uint64 {
	t := h.t
	b0 := x & 0xff
	b1 := (x >> 8) & 0xff
	b2 := (x >> 16) & 0xff
	b3 := (x >> 24) & 0xff
	b4 := (x >> 32) & 0xff
	b5 := (x >> 40) & 0xff
	b6 := (x >> 48) & 0xff
	b7 := x >> 56
	v := t[b0] ^ t[256+b1] ^ t[512+b2] ^ t[768+b3] ^
		t[1024+b4] ^ t[1280+b5] ^ t[1536+b6] ^ t[1792+b7]
	s0 := b0 + b1
	s1 := b2 + b3
	s2 := b4 + b5
	s3 := b6 + b7
	v ^= t[tab4L1+s0] ^ t[tab4L1+512+s1] ^ t[tab4L1+1024+s2] ^ t[tab4L1+1536+s3]
	u0 := s0 + s1
	u1 := s2 + s3
	v ^= t[tab4L2+u0] ^ t[tab4L2+1024+u1]
	return v ^ t[tab4L3+u0+u1]
}

func (h Tab4) Sign(x uint64) int64 {
	return int64(h.Hash(x)&1)*2 - 1
}

var _ SignFamily = Tab4{}

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
	for _, q := range adversarialQuads {
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

// adversarialQuads are key quads that form rectangles in character
// space, so their hashes cancel under simple tabulation.
var adversarialQuads = [][4]uint64{
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

// rowSeeds returns n row seeds from one stream, so the groups of every
// row count up to n share their full groups.
func rowSeeds(n int) []uint64 {
	seeds := make([]uint64, n)
	for r := range seeds {
		seeds[r] = xrand.Mix64(0xa11ce ^ uint64(r+1)*0x94d049bb133111eb)
	}
	return seeds
}

// laneKeys are the keys the lane tests hash: random 64-bit, small, the
// adversarial quads and the extremes.
func laneKeys() []uint64 {
	r := xrand.New(0x1a7e)
	var keys []uint64
	for i := 0; i < 256; i++ {
		keys = append(keys, r.Uint64(), uint64(i))
	}
	for _, q := range adversarialQuads {
		keys = append(keys, q[:]...)
	}
	return append(keys, ^uint64(0), 1<<63)
}

// refHashes returns the scalar member's hash of every key, [row][key],
// for each of seeds.
func refHashes(seeds, keys []uint64) [][]uint64 {
	out := make([][]uint64, len(seeds))
	for r, seed := range seeds {
		ref := NewTab4(seed)
		out[r] = make([]uint64, len(keys))
		for i, x := range keys {
			out[r][i] = ref.Hash(x)
		}
	}
	return out
}

// checkLanes holds every lane of groups, rows built on the first n seeds
// at width `buckets`, to the scalar members: AddSigns of key x with
// weight 1 adds the scalar sign of x, +1 for output bit 0 set and −1
// otherwise, to the counter that is the multiply-shift bucket
// (h>>32)·buckets>>32 of the member's output h, and adding x back with
// weight −1 zeroes it. The counters are z, zero on entry and on return.
// A group whose first row, lane count and width are in checked was held
// to the members already: the seeds are one stream, so it is the same
// interned group.
func checkLanes(t *testing.T, z []int64, checked map[[3]int]bool, groups []Tab4x8, n, buckets int, keys []uint64, ref [][]uint64) {
	t.Helper()
	if want := (n + tab4Lanes - 1) / tab4Lanes; len(groups) != want {
		t.Fatalf("%d rows: %d groups, want %d", n, len(groups), want)
	}
	row := 0
	key := make([]uint64, 1)
	for gi, g := range groups {
		lanes := min(n-gi*tab4Lanes, tab4Lanes)
		if g.Lanes() != lanes || g.Buckets() != buckets {
			t.Fatalf("%d rows of %d: group %d has %d lanes of %d, want %d", n, buckets, gi, g.Lanes(), g.Buckets(), lanes)
		}
		id := [3]int{row, lanes, buckets}
		if checked[id] {
			row += lanes
			continue
		}
		checked[id] = true
		for i, x := range keys {
			key[0] = x
			for _, w := range []int64{1, -1} {
				g.AddSigns(z[:lanes*buckets], key, w)
				for j := range lanes {
					h := ref[row+j][i]
					b := int((h >> 32) * uint64(buckets) >> 32)
					want := int64(0) // after adding x back
					if w == 1 {
						want = int64(h&1)*2 - 1
					}
					if got := z[j*buckets+b]; got != want {
						t.Fatalf("%d rows of %d: group %d lane %d holds %d in bucket %d after adding %#x with weight %d, want %d",
							n, buckets, gi, j, got, b, x, w, want)
					}
				}
			}
		}
		row += lanes
	}
}

// TestTab4x8LanesMatchTab4: for every row count 1..MaxTab4Rows, row r of
// NewTab4Rows at a width that is not a power of two, or is 2^16, hashes
// on the wide layout, and every lane's bucket and sign equal the scalar
// member's on its seed. At width 3 every key's full 64-bit hash equals
// the scalar member's, and a partial group's dead lanes hash to 0.
func TestTab4x8LanesMatchTab4(t *testing.T) {
	keys := laneKeys()
	seeds := rowSeeds(MaxTab4Rows)
	ref := refHashes(seeds, keys)
	z := make([]int64, tab4Lanes<<16)
	checked := map[[3]int]bool{}
	for n := 1; n <= MaxTab4Rows; n++ {
		for _, width := range []int{3, 125, 1152, 1 << 16} {
			groups := NewTab4Rows(seeds[:n], width)
			for gi, g := range groups {
				if !g.Wide() {
					t.Fatalf("%d rows of %d: group %d is narrow", n, width, gi)
				}
			}
			checkLanes(t, z, checked, groups, n, width, keys, ref)
			if width != 3 {
				continue
			}
			row := 0
			for gi, g := range groups {
				for i, x := range keys {
					h := g.wide.hash(x)
					for j, hj := range h {
						want := uint64(0)
						if j < g.Lanes() {
							want = ref[row+j][i]
						}
						if hj != want {
							t.Fatalf("%d rows: group %d lane %d hashes %#x to %#x, want %#x", n, gi, j, x, hj, want)
						}
					}
				}
				row += g.Lanes()
			}
		}
	}
}

// TestTab4x8NarrowLanesMatchTab4: for every row count 1..MaxTab4Rows and
// every power-of-two width 2^0..2^15, the rows hash on the narrow layout,
// and every lane's bucket and sign equal the scalar member's on its seed.
func TestTab4x8NarrowLanesMatchTab4(t *testing.T) {
	keys := laneKeys()
	seeds := rowSeeds(MaxTab4Rows)
	ref := refHashes(seeds, keys)
	z := make([]int64, tab4Lanes<<maxNarrowLog)
	checked := map[[3]int]bool{}
	for n := 1; n <= MaxTab4Rows; n++ {
		for k := 0; k <= maxNarrowLog; k++ {
			groups := NewTab4Rows(seeds[:n], 1<<k)
			for gi, g := range groups {
				if g.Wide() {
					t.Fatalf("%d rows of %d: group %d is wide", n, 1<<k, gi)
				}
			}
			checkLanes(t, z, checked, groups, n, 1<<k, keys, ref)
		}
	}
}

// TestTab4x8SharedPerSeeds: in either layout, one seed tuple, one group;
// another tuple, a prefix of it included, another group.
func TestTab4x8SharedPerSeeds(t *testing.T) {
	seeds := rowSeeds(16)
	for _, width := range []int{128, 125} {
		a, b := NewTab4Rows(seeds, width), NewTab4Rows(seeds[:8], width)
		if a[0].Tables() != b[0].Tables() {
			t.Fatalf("width %d: two calls on one seed tuple built two groups", width)
		}
		if a[0].Tables() == a[1].Tables() {
			t.Fatalf("width %d: two seed tuples share a group", width)
		}
		if c := NewTab4Rows(seeds[:7], width); c[0].Tables() == a[0].Tables() {
			t.Fatalf("width %d: a 7-seed prefix shares the 8-seed group", width)
		}
	}
}

// TestTab4x8SharedAcrossWidths: every power-of-two width up to 2^15 on
// one seed tuple reads one narrow group, and no wide one is built for
// them; a width that is not a power of two, or is 2^16, gets its own
// wide group, shared in turn by every such width.
func TestTab4x8SharedAcrossWidths(t *testing.T) {
	seeds := []uint64{0xd1ff, 0xd200, 0xd201}
	var keep [][]Tab4x8
	narrow, wide := Tab4x8Built(func() {
		for k := 0; k <= maxNarrowLog; k++ {
			keep = append(keep, NewTab4Rows(seeds, 1<<k))
		}
	})
	if narrow != 1 || wide != 0 {
		t.Fatalf("16 power-of-two widths on one seed tuple built %d narrow and %d wide groups, want 1 and 0", narrow, wide)
	}
	for _, g := range keep {
		if g[0].Tables() != keep[0][0].Tables() {
			t.Fatalf("width %d reads another group than width 1", g[0].Buckets())
		}
	}
	if !Tab4x8Cached(seeds, false) || Tab4x8Cached(seeds, true) {
		t.Fatal("the cache does not hold exactly the narrow group")
	}
	for _, width := range []int{3, 1152, 1 << 16} {
		g := NewTab4Rows(seeds, width)[0]
		if !g.Wide() || g.Tables() == keep[0][0].Tables() {
			t.Fatalf("width %d shares the narrow group", width)
		}
		if g.Tables() != NewTab4Rows(seeds, 125)[0].Tables() {
			t.Fatalf("width %d and width 125 read two wide groups", width)
		}
		keep = append(keep, []Tab4x8{g})
	}
	if !Tab4x8Cached(seeds, true) {
		t.Fatal("the wide group is not cached")
	}
	runtime.KeepAlive(keep)
}

// TestTab4x8ConcurrentFirstUse: goroutines racing to build one seed
// tuple's group, in either layout, all get the same one.
func TestTab4x8ConcurrentFirstUse(t *testing.T) {
	const workers = 64
	seeds := []uint64{0x5eed, 0x5eee, 0x5eef}
	widths := []int{1024, 1152}
	tables := make([]any, workers)
	var wg sync.WaitGroup
	for i := range tables {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tables[i] = NewTab4Rows(seeds, widths[i%2])[0].Tables()
		}()
	}
	wg.Wait()
	for i, tb := range tables {
		if tb != tables[i%2] {
			t.Fatalf("goroutine %d got its own group", i)
		}
	}
	if tables[0] == tables[1] {
		t.Fatal("the narrow and the wide width share one group")
	}
}

// TestTab4x8CacheReleasesSweep: once a 1,024-seed sweep's groups are
// garbage, half of them narrow and half wide, the collector takes their
// tables and the cache forgets them.
func TestTab4x8CacheReleasesSweep(t *testing.T) {
	const base, members = 1 << 40, 1024
	seeds := make([]uint64, members)
	for i := range seeds {
		seeds[i] = base + uint64(i)
	}
	NewTab4Rows(seeds[:members/2], 64)
	NewTab4Rows(seeds[members/2:], 100)
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		left := 0
		for i := 0; i < members; i += tab4Lanes {
			if Tab4x8Cached(seeds[i:i+tab4Lanes], i >= members/2) {
				left++
			}
		}
		if left == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d sweep groups still cached after GC", left, members/tab4Lanes)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// BenchmarkTab4x8Hash times one key's eight hashes on each layout: the
// narrow one's two words of 16-bit fields and the wide one's eight full
// hashes.
func BenchmarkTab4x8Hash(b *testing.B) {
	seeds := rowSeeds(tab4Lanes)
	b.Run("narrow", func(b *testing.B) {
		t := NewTab4Rows(seeds, 1024)[0].narrow
		var sink uint64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			lo, hi := t.hash(uint64(i) * 0x9e3779b97f4a7c15)
			sink += lo ^ hi
		}
		benchSink = sink
	})
	b.Run("wide", func(b *testing.B) {
		t := NewTab4Rows(seeds, 1152)[0].wide
		var sink uint64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h := t.hash(uint64(i) * 0x9e3779b97f4a7c15)
			sink += h[0] ^ h[7]
		}
		benchSink = sink
	})
}

var benchSink uint64
