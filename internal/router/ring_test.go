package router

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"amstrack/internal/xrand"
)

// TestRingDeterministicAcrossRouters is the property a fleet of
// stateless routers depends on: two rings built independently from the
// same membership — in ANY input order — assign every key to the same
// owner. No coordination, no shared state, just the hash.
func TestRingDeterministicAcrossRouters(t *testing.T) {
	members := []string{"http://n3:7600", "http://n1:7600", "http://n5:7600", "http://n2:7600", "http://n4:7600"}
	shuffled := []string{"http://n5:7600", "http://n2:7600", "http://n4:7600", "http://n1:7600", "http://n3:7600"}
	a := NewRing(members, 0)
	b := NewRing(shuffled, 0)
	dup := NewRing(append(append([]string(nil), members...), members...), 0) // dedup must not change placement

	rng := xrand.New(99)
	for i := 0; i < 20000; i++ {
		key := rng.Uint64()
		oa, ok := a.Owner(key, nil)
		if !ok {
			t.Fatal("ring with members found no owner")
		}
		ob, _ := b.Owner(key, nil)
		od, _ := dup.Owner(key, nil)
		if oa != ob || oa != od {
			t.Fatalf("key %d: owners diverge across identically-membered rings: %q vs %q vs %q", key, oa, ob, od)
		}
	}
}

// TestRingMinimalMovement pins the consistent-hashing contract: adding
// or removing one of N members moves only ~1/N of the keyspace, and
// every key that moves is explained by the membership change — a key
// moves on removal only if the removed node owned it, and on addition
// only onto the new node.
func TestRingMinimalMovement(t *testing.T) {
	const n, keys = 5, 40000
	members := make([]string, n)
	for i := range members {
		members[i] = fmt.Sprintf("http://node%d:7600", i)
	}
	full := NewRing(members, 0)
	without := NewRing(members[:n-1], 0)
	plusOne := NewRing(append(append([]string(nil), members...), "http://node-new:7600"), 0)

	rng := xrand.New(7)
	removedOwned, movedOnRemove, movedOnAdd, movedElsewhere := 0, 0, 0, 0
	for i := 0; i < keys; i++ {
		key := rng.Uint64()
		before, _ := full.Owner(key, nil)
		afterRemove, _ := without.Owner(key, nil)
		afterAdd, _ := plusOne.Owner(key, nil)

		removed := members[n-1]
		if before == removed {
			removedOwned++
		}
		if before != afterRemove {
			moved := before == removed // only the removed node's keys may move
			if !moved {
				t.Fatalf("key %d moved %q→%q on removal of %q — movement not minimal", key, before, afterRemove, removed)
			}
			movedOnRemove++
		}
		if before != afterAdd {
			if afterAdd != "http://node-new:7600" {
				movedElsewhere++
			}
			movedOnAdd++
		}
	}
	if movedElsewhere > 0 {
		t.Fatalf("%d keys moved between OLD members when a node was added — movement not minimal", movedElsewhere)
	}
	if movedOnRemove != removedOwned {
		t.Fatalf("removal moved %d keys but the removed member owned %d", movedOnRemove, removedOwned)
	}
	// Fractions: ~1/5 on removal, ~1/6 on addition, generous ±60%
	// tolerance (vnode placement is hash-lumpy at small N).
	checkFraction := func(what string, moved int, ideal float64) {
		frac := float64(moved) / keys
		if frac < ideal*0.4 || frac > ideal*1.6 {
			t.Fatalf("%s moved %.3f of keys, want ~%.3f (1/N movement violated)", what, frac, ideal)
		}
	}
	checkFraction("removal", movedOnRemove, 1.0/n)
	checkFraction("addition", movedOnAdd, 1.0/(n+1))
}

// TestRingFailoverWalkStability: masking a member with the alive
// predicate must behave exactly like the ownership rule says — dead
// member's keys land on live members, every other key keeps its owner,
// and un-masking restores the original assignment bit-for-bit.
func TestRingFailoverWalkStability(t *testing.T) {
	members := []string{"http://a:1", "http://b:1", "http://c:1"}
	ring := NewRing(members, 0)
	dead := "http://b:1"
	alive := func(m string) bool { return m != dead }

	rng := xrand.New(3)
	reassigned := 0
	for i := 0; i < 10000; i++ {
		key := rng.Uint64()
		before, _ := ring.Owner(key, nil)
		during, ok := ring.Owner(key, alive)
		if !ok || during == dead {
			t.Fatalf("key %d: failover walk landed on the dead member", key)
		}
		if before != dead && during != before {
			t.Fatalf("key %d: owner changed %q→%q though its owner was alive", key, before, during)
		}
		if before == dead {
			reassigned++
		}
		after, _ := ring.Owner(key, nil)
		if after != before {
			t.Fatalf("key %d: assignment did not restore after the mask lifted", key)
		}
	}
	if reassigned == 0 {
		t.Fatal("dead member owned no keys — test tests nothing")
	}

	// All dead: no owner, reported honestly.
	if _, ok := ring.Owner(1, func(string) bool { return false }); ok {
		t.Fatal("owner found on a fully dead ring")
	}

	// SuccessorOf never returns the member itself and respects alive.
	succ, ok := ring.SuccessorOf(dead, alive)
	if !ok || succ == dead {
		t.Fatalf("SuccessorOf(%q) = %q, ok=%v", dead, succ, ok)
	}
	if _, ok := NewRing([]string{"solo"}, 0).SuccessorOf("solo", nil); ok {
		t.Fatal("a lone member found a successor")
	}
}

// TestRingIndexMatchesBruteForce: the start-table lookup and its
// failover walk place every key where a linear scan of the sorted
// (hash, member) points does, for vnodes 1, 3 and 64 and all 32 alive
// masks of a 5-member ring. The keys are random, small and sequential,
// or hashed past the last point, where the walk wraps to the first.
// Owner, the partition's walk and SuccessorOf are each checked.
func TestRingIndexMatchesBruteForce(t *testing.T) {
	members := []string{"http://n0:1", "http://n1:1", "http://n2:1", "http://n3:1", "http://n4:1"}
	for _, vnodes := range []int{1, 3, 64} {
		ring := NewRing(members, vnodes)
		type point struct {
			hash   uint64
			member string
		}
		var points []point
		for _, m := range members {
			for v := 0; v < vnodes; v++ {
				points = append(points, point{pointHash(m, v), m})
			}
		}
		sort.Slice(points, func(i, j int) bool {
			a, b := points[i], points[j]
			return a.hash < b.hash || a.hash == b.hash && a.member < b.member
		})
		// scan starts at the first point whose hash past accepts and walks
		// on, wrapping after the last, to the first member accept takes.
		scan := func(past func(uint64) bool, accept func(string) bool) (string, bool) {
			i := 0
			for i < len(points) && !past(points[i].hash) {
				i++
			}
			for j := range points {
				if p := points[(i+j)%len(points)]; accept(p.member) {
					return p.member, true
				}
			}
			return "", false
		}

		const perKind = 5000 / 3
		rng := xrand.New(uint64(vnodes))
		keys := make([]uint64, 0, 5000)
		for k := uint64(0); k < perKind; k++ {
			keys = append(keys, k)
		}
		last := points[len(points)-1].hash
		for len(keys) < 2*perKind {
			if k := rng.Uint64(); KeyHash(k) > last {
				keys = append(keys, k)
			}
		}
		for len(keys) < 5000 {
			keys = append(keys, rng.Uint64())
		}

		for mask := 0; mask < 1<<len(members); mask++ {
			alive := func(m string) bool { return mask>>slices.Index(members, m)&1 == 1 }
			live := ring.mask(alive)
			parts, err := partition(ring, live, 1, keys)
			if mask == 0 && err == nil {
				t.Fatalf("vnodes %d: partition over a fully dead ring did not fail", vnodes)
			}
			placed := map[uint64]string{}
			for _, p := range parts {
				for _, k := range p.vals {
					placed[k] = p.owner
				}
			}
			for _, k := range keys {
				h := KeyHash(k)
				want, wantOK := scan(func(x uint64) bool { return x >= h }, alive)
				got, ok := ring.Owner(k, alive)
				if got != want || ok != wantOK {
					t.Fatalf("vnodes %d mask %05b key %d: Owner = %q %v, linear scan %q %v", vnodes, mask, k, got, ok, want, wantOK)
				}
				if wantOK && placed[k] != want {
					t.Fatalf("vnodes %d mask %05b key %d: partition placed it on %q, linear scan %q", vnodes, mask, k, placed[k], want)
				}
				if mask == 1<<len(members)-1 {
					if got, _ := ring.Owner(k, nil); got != want {
						t.Fatalf("vnodes %d key %d: Owner(nil) = %q, linear scan %q", vnodes, k, got, want)
					}
				}
			}
			for _, m := range members {
				h := pointHash(m, 0)
				want, wantOK := scan(func(x uint64) bool { return x > h },
					func(o string) bool { return o != m && alive(o) })
				if got, ok := ring.SuccessorOf(m, alive); got != want || ok != wantOK {
					t.Fatalf("vnodes %d mask %05b: SuccessorOf(%q) = %q %v, linear scan %q %v", vnodes, mask, m, got, ok, want, wantOK)
				}
			}
		}
	}
}

// TestPartitionInvariants calls the partition directly over random
// alive subsets of 3- and 5-member rings: every part is owned by a live
// member and holds whole rows within maxPartVals, no part can grow
// into another's values, each owner's parts concatenate to exactly its
// rows in input order (so all parts together are a permutation of the
// input), and the parts do not alias the caller's buffer.
// TestRouterCutsAtFrameBound covers the cut itself.
func TestPartitionInvariants(t *testing.T) {
	rng := xrand.New(5)
	for _, size := range []int{3, 5} {
		members := make([]string, size)
		for i := range members {
			members[i] = fmt.Sprintf("http://node%d:7600", i)
		}
		ring := NewRing(members, 0)
		for arity := 1; arity <= 3; arity++ {
			limit := maxPartVals - maxPartVals%arity
			for _, rows := range []int{0, 1, 511, 512, 5000, 3*maxPartVals + 7} {
				live := make([]bool, size)
				for !slices.Contains(live, true) {
					for i := range live {
						live[i] = rng.Uint64n(2) == 1
					}
				}
				alive := func(m string) bool { return live[slices.Index(ring.Members(), m)] }
				vals := make([]uint64, rows*arity)
				for i := range vals {
					vals[i] = rng.Uint64n(1 << 20)
				}
				want := map[string][]uint64{}
				for i := 0; i < len(vals); i += arity {
					owner, _ := ring.Owner(vals[i], alive)
					want[owner] = append(want[owner], vals[i:i+arity]...)
				}

				parts, err := partition(ring, live, arity, vals)
				if err != nil {
					t.Fatal(err)
				}
				clear(vals)
				got := map[string][]uint64{}
				for _, p := range parts {
					what := fmt.Sprintf("%d members, arity %d, %d rows: part of %d values for %s", size, arity, rows, len(p.vals), p.owner)
					switch {
					case !alive(p.owner):
						t.Fatalf("%s: owner is not alive in the snapshot", what)
					case len(p.vals) == 0 || len(p.vals)%arity != 0 || len(p.vals) > limit:
						t.Fatalf("%s: want whole rows, at most %d values", what, limit)
					case cap(p.vals) != len(p.vals):
						t.Fatalf("%s: capacity %d lets it grow into its neighbour", what, cap(p.vals))
					}
					got[p.owner] = append(got[p.owner], p.vals...)
				}
				if len(got) != len(want) {
					t.Fatalf("%d members, arity %d, %d rows: parts for %d owners, want %d", size, arity, rows, len(got), len(want))
				}
				for owner, w := range want {
					if !slices.Equal(got[owner], w) {
						t.Fatalf("%d members, arity %d, %d rows: %s's parts are not its rows in input order", size, arity, rows, owner)
					}
				}
			}
		}
		if _, err := partition(ring, make([]bool, size), 1, []uint64{1}); err == nil || err.Error() != "router: no live nodes" {
			t.Fatalf("%d members, none alive: err = %v, want router: no live nodes", size, err)
		}
	}
}
