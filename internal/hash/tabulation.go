package hash

import (
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
// tables interleaved (512 KiB), computes a key's 15 indices once, and
// reads one 64-byte line per tree node for all eight hashes.

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

// MaxTab4Rows bounds the rows of one fast synopsis (core.FastTugOfWar,
// join.FastFamily). Each row hashes under its own seed, and rows hash in
// groups of tab4Lanes, each group 512 KiB of tables whether all its lanes
// are live or not. Decoders take the row count from untrusted input:
// 64 rows bound one at 4 MiB of tables, where an unbounded count would
// let a small blob ask for terabytes.
const MaxTab4Rows = 64

// Tab4x8 is a group of up to tab4Lanes members of the family, hashed
// together: lane j of a group built on seeds s_0..s_{n-1} is the member
// on s_j. The group interleaves its members' tables entry by entry, so
// the entries one key reads in all eight lanes share one 64-byte line
// per tree node: a key costs 15 lines for eight hashes, where eight
// separate members cost 120. The zero value is not usable; construct
// with NewTab4Rows. Groups are immutable after construction and safe for
// concurrent reads.
type Tab4x8 struct {
	t     *tab4x8Tables
	lanes int // live lanes, 1..8
}

// tab4x8Tables holds entry i of lane j at [i][j]; a dead lane's entries
// are zero.
type tab4x8Tables [tab4Size][tab4Lanes]uint64

// tab4x8Key names a group by its live lanes' seeds.
type tab4x8Key struct {
	seeds [tab4Lanes]uint64
	lanes int
}

// tab4x8s interns the groups by seed tuple, so every sketch, snapshot and
// decoded bundle on one seed stream reads one copy. The entries are weak:
// a group's tables live exactly as long as some Tab4x8 refers to them,
// and a cleanup drops the entry once they are collected, so sweeps over
// thousands of seeds pin nothing.
var tab4x8s = struct {
	mu sync.Mutex
	m  map[tab4x8Key]weak.Pointer[tab4x8Tables]
}{m: map[tab4x8Key]weak.Pointer[tab4x8Tables]{}}

// NewTab4Rows returns the hashes of len(seeds) rows, row r on seeds[r],
// as ⌈len(seeds)/8⌉ groups: row r is lane r%8 of group r/8, and the last
// group may be partial. Each member's tables are filled deterministically
// from its seed — same seed, same member, the property that lets
// distributed sketches share a hash family, exactly as with NewFourWise.
// Within a process, calls on one seed tuple share one group.
func NewTab4Rows(seeds []uint64) []Tab4x8 {
	groups := make([]Tab4x8, 0, (len(seeds)+tab4Lanes-1)/tab4Lanes)
	for len(seeds) > 0 {
		n := min(len(seeds), tab4Lanes)
		groups = append(groups, newTab4x8(seeds[:n]))
		seeds = seeds[n:]
	}
	return groups
}

// newTab4x8 returns the interned group on 1..8 seeds. It fills the lanes
// in lockstep, one draw per live lane per entry, from the stream each
// seed's member has always drawn from.
func newTab4x8(seeds []uint64) Tab4x8 {
	var key tab4x8Key
	key.lanes = copy(key.seeds[:], seeds)
	tab4x8s.mu.Lock()
	defer tab4x8s.mu.Unlock()
	if t := tab4x8s.m[key].Value(); t != nil {
		return Tab4x8{t: t, lanes: key.lanes}
	}
	rs := make([]*xrand.Rand, key.lanes)
	for j, seed := range seeds {
		rs[j] = xrand.New(xrand.Mix64(seed) ^ tab4Salt)
	}
	t := new(tab4x8Tables)
	for i := range t {
		e := &t[i]
		for j, r := range rs {
			e[j] = r.Uint64()
		}
	}
	wp := weak.Make(t)
	tab4x8s.m[key] = wp
	runtime.AddCleanup(t, func(key tab4x8Key) {
		tab4x8s.mu.Lock()
		if tab4x8s.m[key] == wp { // a newer group may have replaced it
			delete(tab4x8s.m, key)
		}
		tab4x8s.mu.Unlock()
	}, key)
	return Tab4x8{t: t, lanes: key.lanes}
}

// Lanes returns the group's live lane count, 1..8.
func (g Tab4x8) Lanes() int { return g.lanes }

// Hash returns x's 64-bit hash under each lane of the group, lane j's at
// [j]; a dead lane's is 0. It computes the key's 15 table indices once
// for all eight lanes. All 64 output bits of a lane are jointly four-wise
// independent across distinct keys, so disjoint bit fields of one output
// may be used as independent hash values (e.g. a bucket index and a
// sign).
func (g Tab4x8) Hash(x uint64) [tab4Lanes]uint64 {
	t := g.t
	// The tree's node sums, several per word: p holds the pair sums
	// x0+x1, x2+x3, x4+x5, x6+x7 (each <= 510) in 16-bit fields, and q
	// the quad sums (each <= 1020) in 32-bit fields. Each index is cut
	// from x, p or q where it is used, so few values stay live beside the
	// eight lane accumulators, which are scalars so that the compiler
	// keeps them in registers.
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

// xorEntry returns h0..h7 XOR the eight lanes of one table entry.
func xorEntry(e *[tab4Lanes]uint64, h0, h1, h2, h3, h4, h5, h6, h7 uint64) (uint64, uint64, uint64, uint64, uint64, uint64, uint64, uint64) {
	return h0 ^ e[0], h1 ^ e[1], h2 ^ e[2], h3 ^ e[3], h4 ^ e[4], h5 ^ e[5], h6 ^ e[6], h7 ^ e[7]
}
