package hash

import (
	"math/bits"
	"runtime"
	"sync"
	"weak"

	"amstrack/internal/xrand"
)

// This file implements a tabulation-based four-wise independent hash family
// in the style of Thorup & Zhang, "Tabulation Based 4-Universal Hashing
// with Applications to Second Moment Estimation" (SODA 2004) — the exact
// application this repository needs: replacing the degree-3 polynomial over
// GF(2^61−1) in the tug-of-war sketch's inner loop with table lookups.
//
// Plain "simple tabulation" (split the key into bytes, XOR one table entry
// per byte) is only THREE-wise independent: four keys forming a rectangle
// in character space, e.g. {ab, aB, Ab, AB}, hit every table cell an even
// number of times, so their hash values always XOR to zero. Four-wise
// independence — the property the AMS variance bound actually uses — needs
// derived characters whose arithmetic breaks such rectangles.
//
// Construction. The 64-bit key's bytes form the leaves of a binary tree;
// every internal node carries the INTEGER sum of its two children (sums do
// not wrap, so each level widens by one bit). Every node, leaf or internal,
// gets its own table of uniform random 64-bit entries, and the hash is the
// XOR of all 15 lookups:
//
//	leaves   x0 .. x7                  8 tables × 256 entries
//	level 1  x0+x1, x2+x3, x4+x5, x6+x7   4 tables × 512
//	level 2  (x0+x1)+(x2+x3), ...         2 tables × 1024
//	level 3  sum of everything            1 table  × 2048
//
// Why this is 4-wise independent: call a multiset of ≤ 4 keys DEGENERATE if
// every table cell is hit an even number of times (only then can the XOR of
// their hashes be biased). For ≤ 3 distinct keys no split is degenerate
// (some position has a value with odd multiplicity — this is why simple
// tabulation is 3-wise independent). For 4 distinct keys, suppose every
// leaf position pairs the keys up. The pairing partition cannot be the same
// in every position (the keys would coincide), so some tree node has
// children paired by two DIFFERENT partitions, say {x,y|z,w} on the left
// and {x,z|y,w} on the right. The node's four sums then form a rectangle
// {A+B, A+B', A'+B, A'+B'} over the integers, and integer addition admits
// no nontrivial pairing of such sums (A+B = A'+B' and A+B' = A'+B force
// A = A' over ℤ). So the four sums contain a value of odd multiplicity,
// and induction up the tree yields an odd cell. Hence for any ≤ 4 distinct
// keys some table entry appears an odd number of times in the XOR, which
// makes the 64-bit outputs (jointly, as full words) 4-wise independent.
//
// Cost: a member's tables are 8192 entries (64 KiB), and a hash is 15
// lookups and 7 adds — versus three 61-bit modular multiplications for the
// polynomial family. One evaluation yields 64 independent output bits, so
// a sketch derives a sign AND a bucket from a single evaluation (see
// core.FastTugOfWar). A sketch row needs its own member, and a sketch's
// rows hash in groups of eight (Tab4x8): the group stores its members'
// tables interleaved, computes a key's 15 indices once, and reads one
// entry per tree node for all eight hashes.
//
// A row reads two things from its hash: the sign (bit 0) and the bucket.
// Each output bit is the XOR of the same bit of the 15 entries, so a
// table that keeps only some bits of each entry hashes to exactly those
// bits of the full hash. A group therefore keeps only the bits its rows
// read. When the row width is a power of two 2^k with k ≤ 15, the bucket
// is the top k bits, so each lane keeps a 16-bit field, bit 0 and the top
// 15 bits: eight lanes fit in two words, a group is 128 KiB, and a key
// XORs 30 words for eight rows. Every other width keeps all 64 bits
// (512 KiB, 120 words), the only layout whose bucket can be a
// multiply-shift over all 32 high bits.

// tab4Size is the total entry count across all 15 node tables:
// 8·256 + 4·512 + 2·1024 + 2048 = 8192 entries per member.
const tab4Size = 8*256 + 4*512 + 2*1024 + 2048

// Table offsets of the non-leaf levels within the flat array.
const (
	tab4L1 = 8 * 256         // level-1 tables, 4 × 512
	tab4L2 = tab4L1 + 4*512  // level-2 tables, 2 × 1024
	tab4L3 = tab4L2 + 2*1024 // level-3 table, 2048
)

// tab4Salt separates the table streams from every other use of a seed.
const tab4Salt = 0x7ab47ab47ab47ab4

// tab4Lanes is the member count of one Tab4x8 group.
const tab4Lanes = 8

// maxNarrowLog is the largest k for which a width of 2^k buckets hashes
// on the narrow layout: a 16-bit lane holds the sign and 15 bucket bits.
const maxNarrowLog = 15

// MaxTab4Rows bounds the rows of one fast synopsis (core.FastTugOfWar,
// join.FastFamily). Each row hashes under its own seed, and rows hash in
// groups of tab4Lanes, each group 128 KiB of tables on the narrow layout
// and 512 KiB on the wide one, whether all its lanes are live or not.
// Decoders take the row count from untrusted input: 64 rows bound one at
// 1 MiB of narrow tables or 4 MiB of wide ones, where an unbounded count
// would let a small blob ask for terabytes.
const MaxTab4Rows = 64

// Tab4x8 is a group of up to tab4Lanes members of the family, hashed
// together for rows of one width: lane j of a group built on seeds
// s_0..s_{n-1} is the member on s_j. The group interleaves its members'
// tables entry by entry, so the entries one key reads in all eight lanes
// sit together, one entry per tree node: a key costs 15 entries for eight
// hashes, where eight separate members cost 120. The group holds the
// narrow layout's tables when its width is a power of two up to 2^15,
// and the wide layout's otherwise. The zero value is not
// usable; construct with NewTab4Rows. Groups are immutable after
// construction and safe for concurrent reads.
type Tab4x8 struct {
	narrow  *tab4x8Narrow // the narrow layout's tables, or nil
	wide    *tab4x8Wide   // the wide layout's tables, or nil
	lanes   int           // live lanes, 1..8
	buckets int           // the row width
	shift   uint          // narrow: 16 − log2(buckets), the bucket's offset in a field
	mask    uint64        // narrow: buckets − 1
}

// tab4x8Wide holds entry i of lane j at [i][j], all 64 bits; a dead
// lane's entries are zero.
type tab4x8Wide [tab4Size][tab4Lanes]uint64

// tab4x8Narrow holds lane j's 16-bit field of entry i (narrowField) at
// bit 16·(j%4) of [i][j/4]; a dead lane's fields are zero.
type tab4x8Narrow [tab4Size][2]uint64

// narrowField keeps the bits of a 64-bit entry that a narrow lane reads:
// bit 0 (the sign) at bit 0, and bits 49..63 (the bucket of any width up
// to 2^15) at bits 1..15.
func narrowField(h uint64) uint64 { return h>>48&^1 | h&1 }

// tab4x8Key names a group's tables by its live lanes' seeds.
type tab4x8Key struct {
	seeds [tab4Lanes]uint64
	lanes int
}

// tab4x8s interns each layout's tables by seed tuple, so every sketch,
// snapshot and decoded bundle on one seed stream reads one copy, and every
// power-of-two width on it one narrow copy. The entries are weak: a
// group's tables live exactly as long as some Tab4x8 refers to them, and
// a cleanup drops the entry once they are collected, so sweeps over
// thousands of seeds pin nothing.
var tab4x8s = struct {
	mu     sync.Mutex
	narrow map[tab4x8Key]weak.Pointer[tab4x8Narrow]
	wide   map[tab4x8Key]weak.Pointer[tab4x8Wide]
}{
	narrow: map[tab4x8Key]weak.Pointer[tab4x8Narrow]{},
	wide:   map[tab4x8Key]weak.Pointer[tab4x8Wide]{},
}

// NewTab4Rows returns the hashes of len(seeds) rows of `buckets` counters
// each, row r on seeds[r], as ⌈len(seeds)/8⌉ groups: row r is lane r%8 of
// group r/8, and the last group may be partial. Each member's tables are
// filled deterministically from its seed — same seed, same member, the
// property that lets distributed sketches share a hash family, exactly as
// with NewFourWise. Within a process, calls on one seed tuple share one
// group's tables per layout.
func NewTab4Rows(seeds []uint64, buckets int) []Tab4x8 {
	groups := make([]Tab4x8, 0, (len(seeds)+tab4Lanes-1)/tab4Lanes)
	for len(seeds) > 0 {
		n := min(len(seeds), tab4Lanes)
		groups = append(groups, newTab4x8(seeds[:n], buckets))
		seeds = seeds[n:]
	}
	return groups
}

// newTab4x8 returns the group on 1..8 seeds for rows of `buckets`
// counters, on its width's layout with interned tables.
func newTab4x8(seeds []uint64, buckets int) Tab4x8 {
	var key tab4x8Key
	key.lanes = copy(key.seeds[:], seeds)
	g := Tab4x8{lanes: key.lanes, buckets: buckets}
	tab4x8s.mu.Lock()
	defer tab4x8s.mu.Unlock()
	if k := bits.TrailingZeros(uint(buckets)); buckets == 1<<k && k <= maxNarrowLog {
		g.narrow = intern(tab4x8s.narrow, key, func(t *tab4x8Narrow) {
			fill(seeds, func(i int, draws []uint64) {
				for j, h := range draws {
					t[i][j/4] |= narrowField(h) << (16 * (j % 4))
				}
			})
		})
		g.shift, g.mask = uint(16-k), uint64(buckets-1)
	} else {
		g.wide = intern(tab4x8s.wide, key, func(t *tab4x8Wide) {
			fill(seeds, func(i int, draws []uint64) { copy(t[i][:], draws) })
		})
	}
	return g
}

// fill draws a group's tables in lockstep, one draw per live lane per
// entry, from the stream each seed's member has always drawn from; put
// stores entry i's draws, lane j's at draws[j], in a layout's tables.
func fill(seeds []uint64, put func(i int, draws []uint64)) {
	rs := make([]*xrand.Rand, len(seeds))
	for j, seed := range seeds {
		rs[j] = xrand.New(xrand.Mix64(seed) ^ tab4Salt)
	}
	draws := make([]uint64, len(rs))
	for i := range tab4Size {
		for j, r := range rs {
			draws[j] = r.Uint64()
		}
		put(i, draws)
	}
}

// intern returns the tables m holds for key, or builds them with build,
// records them weakly and returns them. The caller holds tab4x8s.mu.
func intern[T any](m map[tab4x8Key]weak.Pointer[T], key tab4x8Key, build func(*T)) *T {
	if t := m[key].Value(); t != nil {
		return t
	}
	t := new(T)
	build(t)
	wp := weak.Make(t)
	m[key] = wp
	runtime.AddCleanup(t, func(key tab4x8Key) {
		tab4x8s.mu.Lock()
		if m[key] == wp { // newer tables may have replaced them
			delete(m, key)
		}
		tab4x8s.mu.Unlock()
	}, key)
	return t
}

// Lanes returns the group's live lane count, 1..8.
func (g Tab4x8) Lanes() int { return g.lanes }

// Buckets returns the row width the group was built for.
func (g Tab4x8) Buckets() int { return g.buckets }

// AddSigns adds w·ε_j(x) to counter b_j(x) of row j, for every key x in
// xs and every live lane j, where row j is z[j·Buckets() : (j+1)·Buckets()];
// counters past the group's Lanes() rows are not touched. ε_j(x) is +1
// when output bit 0 of lane j's member is 1 and −1 otherwise, and b_j(x)
// is the multiply-shift (h>>32)·Buckets()>>32 of the member's output h,
// unbiased up to Buckets()/2^32 and, for a width of 2^k, exactly h's top
// k bits. Bucket and sign come from disjoint output bits, so they are
// jointly four-wise independent across distinct keys. Each layout
// decodes a key's eight lanes without a per-lane branch, and keys are
// hashed two at a time, so the second key's table reads overlap the
// first's.
func (g Tab4x8) AddSigns(z []int64, xs []uint64, w int64) {
	s1 := g.buckets
	z = z[:g.lanes*s1]
	if t := g.wide; t != nil {
		i := 0
		for ; i+1 < len(xs); i += 2 {
			ha, hb := t.hash(xs[i]), t.hash(xs[i+1])
			addWide(z, &ha, g.lanes, s1, w)
			addWide(z, &hb, g.lanes, s1, w)
		}
		if i < len(xs) {
			h := t.hash(xs[i])
			addWide(z, &h, g.lanes, s1, w)
		}
		return
	}
	t, s, m := g.narrow, g.shift, g.mask
	nlo := min(g.lanes, 4) // live lanes in a key's low word
	zhi := z[nlo*s1:]      // the rows of the high word's lanes
	nhi := g.lanes - nlo
	i := 0
	for ; i+1 < len(xs); i += 2 {
		la, ha := t.hash(xs[i])
		lb, hb := t.hash(xs[i+1])
		addNarrow(z, la, nlo, s1, s, m, w)
		addNarrow(zhi, ha, nhi, s1, s, m, w)
		addNarrow(z, lb, nlo, s1, s, m, w)
		addNarrow(zhi, hb, nhi, s1, s, m, w)
	}
	if i < len(xs) {
		lo, hi := t.hash(xs[i])
		addNarrow(z, lo, nlo, s1, s, m, w)
		addNarrow(zhi, hi, nhi, s1, s, m, w)
	}
}

// addWide adds w·ε_j to one counter of row j, the bucket full hash h[j]
// picks, for each of the first n rows of z, row j at z[j*s1:].
func addWide(z []int64, h *[tab4Lanes]uint64, n, s1 int, w int64) {
	row := 0
	for _, hj := range h[:n] {
		neg := int64(hj&1) - 1 // 0 for sign +1, -1 for sign -1
		z[row+int(hj>>32*uint64(s1)>>32)] += (w ^ neg) - neg
		row += s1
	}
}

// addNarrow adds w·ε_j to one counter of row j, for each of the first n
// rows of z, row j at z[j*s1:] and its lane's 16-bit field at bit 16j of
// f: the sign at the field's bit 0, and the bucket f>>s&m, its top
// log2(s1) bits. A word of four live lanes, every word of a full group,
// is decoded unrolled.
func addNarrow(z []int64, f uint64, n, s1 int, s uint, m uint64, w int64) {
	if n < 4 {
		row := 0
		for range n {
			neg := int64(f&1) - 1 // 0 for sign +1, -1 for sign -1
			z[row+int(f>>s&m)] += (w ^ neg) - neg
			row += s1
			f >>= 16
		}
		return
	}
	n0 := int64(f&1) - 1
	z[int(f>>s&m)] += (w ^ n0) - n0
	f >>= 16
	n1 := int64(f&1) - 1
	z[s1+int(f>>s&m)] += (w ^ n1) - n1
	f >>= 16
	n2 := int64(f&1) - 1
	z[2*s1+int(f>>s&m)] += (w ^ n2) - n2
	f >>= 16
	n3 := int64(f&1) - 1
	z[3*s1+int(f>>s&m)] += (w ^ n3) - n3
}

// The two kernels below compute a key's 15 table indices once for all
// eight lanes. The tree's node sums sit several per word: p holds the
// pair sums x0+x1, x2+x3, x4+x5, x6+x7 (each <= 510) in 16-bit fields,
// and q the quad sums (each <= 1020) in 32-bit fields. Each index is cut
// from x, p or q where it is used, so few values stay live beside the
// lane accumulators, which are scalars so that the compiler keeps them in
// registers.

// hash returns x's eight lanes of 16-bit fields, lanes 0..3 in lo and
// 4..7 in hi: two words per entry, 30 in all.
func (t *tab4x8Narrow) hash(x uint64) (lo, hi uint64) {
	p := x&0x00ff00ff00ff00ff + x>>8&0x00ff00ff00ff00ff
	q := p&0x0000ffff0000ffff + p>>16&0x0000ffff0000ffff
	e := &t[x&0xff]
	lo, hi = e[0], e[1]
	lo, hi = xorNarrow(&t[256+x>>8&0xff], lo, hi)
	lo, hi = xorNarrow(&t[512+x>>16&0xff], lo, hi)
	lo, hi = xorNarrow(&t[768+x>>24&0xff], lo, hi)
	lo, hi = xorNarrow(&t[1024+x>>32&0xff], lo, hi)
	lo, hi = xorNarrow(&t[1280+x>>40&0xff], lo, hi)
	lo, hi = xorNarrow(&t[1536+x>>48&0xff], lo, hi)
	lo, hi = xorNarrow(&t[1792+x>>56], lo, hi)
	lo, hi = xorNarrow(&t[tab4L1+p&0xffff], lo, hi)
	lo, hi = xorNarrow(&t[tab4L1+512+p>>16&0xffff], lo, hi)
	lo, hi = xorNarrow(&t[tab4L1+1024+p>>32&0xffff], lo, hi)
	lo, hi = xorNarrow(&t[tab4L1+1536+p>>48], lo, hi)
	lo, hi = xorNarrow(&t[tab4L2+q&0xffffffff], lo, hi)
	lo, hi = xorNarrow(&t[tab4L2+1024+q>>32], lo, hi)
	return xorNarrow(&t[tab4L3+q&0xffffffff+q>>32], lo, hi)
}

// xorNarrow returns lo, hi XOR the two words of one narrow entry.
func xorNarrow(e *[2]uint64, lo, hi uint64) (uint64, uint64) {
	return lo ^ e[0], hi ^ e[1]
}

// hash returns x's full 64-bit hash under each lane, lane j's at [j]; a
// dead lane's is 0. All 64 output bits of a lane are jointly four-wise
// independent across distinct keys.
func (t *tab4x8Wide) hash(x uint64) [tab4Lanes]uint64 {
	p := x&0x00ff00ff00ff00ff + x>>8&0x00ff00ff00ff00ff
	q := p&0x0000ffff0000ffff + p>>16&0x0000ffff0000ffff
	e := &t[x&0xff]
	h0, h1, h2, h3, h4, h5, h6, h7 := e[0], e[1], e[2], e[3], e[4], e[5], e[6], e[7]
	h0, h1, h2, h3, h4, h5, h6, h7 = xorEntry(&t[256+x>>8&0xff], h0, h1, h2, h3, h4, h5, h6, h7)
	h0, h1, h2, h3, h4, h5, h6, h7 = xorEntry(&t[512+x>>16&0xff], h0, h1, h2, h3, h4, h5, h6, h7)
	h0, h1, h2, h3, h4, h5, h6, h7 = xorEntry(&t[768+x>>24&0xff], h0, h1, h2, h3, h4, h5, h6, h7)
	h0, h1, h2, h3, h4, h5, h6, h7 = xorEntry(&t[1024+x>>32&0xff], h0, h1, h2, h3, h4, h5, h6, h7)
	h0, h1, h2, h3, h4, h5, h6, h7 = xorEntry(&t[1280+x>>40&0xff], h0, h1, h2, h3, h4, h5, h6, h7)
	h0, h1, h2, h3, h4, h5, h6, h7 = xorEntry(&t[1536+x>>48&0xff], h0, h1, h2, h3, h4, h5, h6, h7)
	h0, h1, h2, h3, h4, h5, h6, h7 = xorEntry(&t[1792+x>>56], h0, h1, h2, h3, h4, h5, h6, h7)
	h0, h1, h2, h3, h4, h5, h6, h7 = xorEntry(&t[tab4L1+p&0xffff], h0, h1, h2, h3, h4, h5, h6, h7)
	h0, h1, h2, h3, h4, h5, h6, h7 = xorEntry(&t[tab4L1+512+p>>16&0xffff], h0, h1, h2, h3, h4, h5, h6, h7)
	h0, h1, h2, h3, h4, h5, h6, h7 = xorEntry(&t[tab4L1+1024+p>>32&0xffff], h0, h1, h2, h3, h4, h5, h6, h7)
	h0, h1, h2, h3, h4, h5, h6, h7 = xorEntry(&t[tab4L1+1536+p>>48], h0, h1, h2, h3, h4, h5, h6, h7)
	h0, h1, h2, h3, h4, h5, h6, h7 = xorEntry(&t[tab4L2+q&0xffffffff], h0, h1, h2, h3, h4, h5, h6, h7)
	h0, h1, h2, h3, h4, h5, h6, h7 = xorEntry(&t[tab4L2+1024+q>>32], h0, h1, h2, h3, h4, h5, h6, h7)
	h0, h1, h2, h3, h4, h5, h6, h7 = xorEntry(&t[tab4L3+q&0xffffffff+q>>32], h0, h1, h2, h3, h4, h5, h6, h7)
	return [tab4Lanes]uint64{h0, h1, h2, h3, h4, h5, h6, h7}
}

// xorEntry returns h0..h7 XOR the eight lanes of one wide entry.
func xorEntry(e *[tab4Lanes]uint64, h0, h1, h2, h3, h4, h5, h6, h7 uint64) (uint64, uint64, uint64, uint64, uint64, uint64, uint64, uint64) {
	return h0 ^ e[0], h1 ^ e[1], h2 ^ e[2], h3 ^ e[3], h4 ^ e[4], h5 ^ e[5], h6 ^ e[6], h7 ^ e[7]
}
