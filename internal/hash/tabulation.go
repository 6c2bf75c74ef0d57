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
// Cost: 15 lookups into 64 KiB of tables (L1/L2-resident) and 7 adds —
// versus three 61-bit modular multiplications for the polynomial family.
// The bigger win is architectural: one Tab4 evaluation yields 64
// independent output bits, so a sketch can derive a sign AND a bucket from
// a single evaluation (see core.FastTugOfWar).

// tab4Size is the total entry count across all 15 node tables:
// 8·256 + 4·512 + 2·1024 + 2048 = 8192 entries (64 KiB).
const tab4Size = 8*256 + 4*512 + 2*1024 + 2048

// Table offsets of the non-leaf levels within the flat array.
const (
	tab4L1 = 8 * 256         // level-1 tables, 4 × 512
	tab4L2 = tab4L1 + 4*512  // level-2 tables, 2 × 1024
	tab4L3 = tab4L2 + 2*1024 // level-3 table, 2048
)

// MaxTab4Rows bounds the rows of one fast synopsis (core.FastTugOfWar,
// join.FastFamily). Each row hashes under its own seed, so each costs a
// 64 KiB table, and decoders take the row count from untrusted input:
// without a bound a small blob could ask for terabytes of tables.
const MaxTab4Rows = 64

// Tab4 is a member of the tabulation-based four-wise independent family
// over 64-bit keys. The zero value is not usable; construct with NewTab4.
// Members are immutable after construction and safe for concurrent reads.
type Tab4 struct {
	t *[tab4Size]uint64
}

// tab4s interns the tables by seed, so every sketch, snapshot and decoded
// bundle on one seed reads one copy. The entries are weak: a table lives
// exactly as long as some Tab4 refers to it, and a cleanup drops its entry
// once it is collected, so sweeps over thousands of seeds pin nothing.
var tab4s = struct {
	mu sync.Mutex
	m  map[uint64]weak.Pointer[[tab4Size]uint64]
}{m: map[uint64]weak.Pointer[[tab4Size]uint64]{}}

// NewTab4 returns the family member whose tables are filled
// deterministically from seed: same seed, same member — the property that
// lets distributed sketches share a hash family, exactly as with
// NewFourWise. Within a process, calls on one seed share one table.
func NewTab4(seed uint64) Tab4 {
	tab4s.mu.Lock()
	defer tab4s.mu.Unlock()
	if t := tab4s.m[seed].Value(); t != nil {
		return Tab4{t: t}
	}
	r := xrand.New(xrand.Mix64(seed) ^ 0x7ab47ab47ab47ab4)
	t := new([tab4Size]uint64)
	for i := range t {
		t[i] = r.Uint64()
	}
	wp := weak.Make(t)
	tab4s.m[seed] = wp
	runtime.AddCleanup(t, func(seed uint64) {
		tab4s.mu.Lock()
		if tab4s.m[seed] == wp { // a newer table may have replaced it
			delete(tab4s.m, seed)
		}
		tab4s.mu.Unlock()
	}, seed)
	return Tab4{t: t}
}

// Hash returns the 64-bit hash of x. All 64 output bits are jointly
// four-wise independent across distinct keys, so disjoint bit fields of the
// output may be used as independent hash values (e.g. a bucket index and a
// sign).
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
	s0 := b0 + b1 // <= 510
	s1 := b2 + b3
	s2 := b4 + b5
	s3 := b6 + b7
	v ^= t[tab4L1+s0] ^ t[tab4L1+512+s1] ^ t[tab4L1+1024+s2] ^ t[tab4L1+1536+s3]
	u0 := s0 + s1 // <= 1020
	u1 := s2 + s3
	v ^= t[tab4L2+u0] ^ t[tab4L2+1024+u1]
	return v ^ t[tab4L3+u0+u1] // u0+u1 <= 2040
}

// Sign returns ε(x) ∈ {-1, +1}, four-wise independent across distinct x.
func (h Tab4) Sign(x uint64) int64 {
	return int64(h.Hash(x)&1)*2 - 1
}

// MemoryBytes reports the size of the member's table. NewTab4 shares one
// table per seed, so a process pays this once per live seed, however many
// members hold it.
func (h Tab4) MemoryBytes() int { return tab4Size * 8 }

var _ SignFamily = Tab4{}
