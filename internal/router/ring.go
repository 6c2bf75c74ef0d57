// Package router is the partitioned-ingest tier: a stateless daemon
// that hashes each row's routing key (its primary attribute) onto a
// consistent-hash ring of amsd nodes and streams it to the owner over
// the amswire protocol, exposing the same wire + HTTP ingest surfaces
// upstream that a single amsd node does — existing loaders point at the
// router unchanged and the fleet behaves like one big node.
//
// Correctness rests on AGMS linearity (DESIGN.md §6, §12): a synopsis
// is a linear function of the update stream, so ANY partition of the
// stream across nodes yields partitions whose merged synopsis is
// bit-identical to a single node that saw everything. Placement is
// therefore pure performance policy — the ring exists to spread load
// and to keep membership changes cheap (1/N movement), not to keep the
// answer right. What linearity does NOT forgive is duplication: a batch
// applied twice is counted twice, silently. The router's one hard
// invariant is that an acknowledged batch is never re-sent — failover
// moves only un-ACKed work, and a node whose recovered state disagrees
// with the router's acked ledger is refused rejoin (degrade, don't lie).
package router

import (
	"hash/fnv"
	"math/bits"
	"sort"
	"strconv"

	"amstrack/internal/xrand"
)

// DefaultVNodes is the virtual-node count per member when Options
// leaves it zero: enough points that load imbalance stays within a few
// percent for small fleets, cheap enough that ring construction is
// microseconds.
const DefaultVNodes = 64

// Ring is an immutable consistent-hash ring: members × vnodes points on
// the uint64 circle, each key owned by the first point clockwise from
// its hash. Construction is deterministic — two routers building a ring
// from the same member list (any order) agree on every key's owner, so
// a fleet of stateless routers needs no coordination. Membership change
// rebuilds the ring (cheap); keys move only between a leaving/joining
// member and its neighbors, ~1/N of the space.
//
// The points are two flat arrays sorted by (hash, member), and a start
// table indexes them by the top bits of a hash: start[b] is the first
// point whose hash, shifted right by shift, is at least b. The table has
// the next power of two at or above the point count, so a lookup reads
// one entry and steps forward about once.
type Ring struct {
	members []string // sorted, deduped
	hashes  []uint64 // point hashes, ascending
	owner   []int32  // owner[i] indexes members: point i's member
	start   []int32
	shift   uint
}

// pointHash places one virtual node on the circle. FNV-1a over
// "member#vnode" is stable across processes and Go versions (unlike
// maphash); Mix64 on top spreads FNV's weak low bits over the full
// word so the start table's buckets stay balanced.
func pointHash(member string, vnode int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(member))
	h.Write([]byte{'#'})
	h.Write([]byte(strconv.Itoa(vnode)))
	return xrand.Mix64(h.Sum64())
}

// KeyHash places a routing key on the circle. Keys are hashed
// independently of members (Mix64, not FNV) so adversarial or
// sequential key sets cannot cluster on one arc.
func KeyHash(key uint64) uint64 { return xrand.Mix64(key) }

// NewRing builds the ring for the given members. The member list is
// deduped and sorted first, so any permutation of the same set builds
// an identical ring. vnodes <= 0 uses DefaultVNodes.
func NewRing(members []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	sorted := append([]string(nil), members...)
	sort.Strings(sorted)
	deduped := sorted[:0]
	for i, m := range sorted {
		if i == 0 || m != sorted[i-1] {
			deduped = append(deduped, m)
		}
	}
	type point struct {
		hash uint64
		m    int32 // index into deduped
	}
	points := make([]point, 0, len(deduped)*vnodes)
	for m, name := range deduped {
		for v := 0; v < vnodes; v++ {
			points = append(points, point{pointHash(name, v), int32(m)})
		}
	}
	// Members are sorted, so ordering ties by index orders them by name:
	// a total order even on (astronomically rare) hash ties.
	sort.Slice(points, func(i, j int) bool {
		a, b := points[i], points[j]
		return a.hash < b.hash || a.hash == b.hash && a.m < b.m
	})
	n := len(points)
	r := &Ring{members: deduped, hashes: make([]uint64, n), owner: make([]int32, n)}
	for i, p := range points {
		r.hashes[i], r.owner[i] = p.hash, p.m
	}
	// The start table has the next power of two at or above n buckets.
	width := bits.Len(uint(max(n-1, 0)))
	r.shift = uint(64 - width)
	r.start = make([]int32, 1<<width)
	for b := range r.start {
		r.start[b] = int32(sort.Search(n, func(i int) bool { return r.hashes[i]>>r.shift >= uint64(b) }))
	}
	return r
}

// Members returns the sorted member list (shared; do not mutate).
func (r *Ring) Members() []string { return r.members }

// mask reads the alive predicate once per member into a slice indexed
// like Members(). A nil alive accepts every member.
func (r *Ring) mask(alive func(string) bool) []bool {
	live := make([]bool, len(r.members))
	for m, name := range r.members {
		live[m] = alive == nil || alive(name)
	}
	return live
}

// walk is the ownership rule: the index into Members() of the first
// point at or clockwise of circle position h whose member live accepts,
// or -1 when none does.
func (r *Ring) walk(h uint64, live []bool) int {
	n := len(r.hashes)
	i := int(r.start[h>>r.shift])
	for i < n && r.hashes[i] < h {
		i++
	}
	for range n {
		if i == n {
			i = 0
		}
		if m := r.owner[i]; live[m] {
			return int(m)
		}
		i++
	}
	return -1
}

// Owner returns the member owning key, skipping members the alive
// predicate rejects — the failover walk is the ownership rule: when a
// node is down its arcs fall to the next live point clockwise, and the
// moment it is live again they fall back, with every router agreeing
// because the walk is a pure function of (ring, alive set, key). A nil
// alive accepts every member. ok is false when no member is alive.
func (r *Ring) Owner(key uint64, alive func(string) bool) (owner string, ok bool) {
	m := r.walk(KeyHash(key), r.mask(alive))
	if m < 0 {
		return "", false
	}
	return r.members[m], true
}

// SuccessorOf returns the first live member clockwise of member's first
// virtual node, excluding member itself — where a drain hands its data.
// ok is false when member is alone (or everything else is dead).
func (r *Ring) SuccessorOf(member string, alive func(string) bool) (string, bool) {
	// Strictly after the point: h+1 wraps to 0 past the circle's last
	// hash, as the walk does.
	h := pointHash(member, 0) + 1
	m := r.walk(h, r.mask(func(m string) bool { return m != member && (alive == nil || alive(m)) }))
	if m < 0 {
		return "", false
	}
	return r.members[m], true
}
