package hash

// Tables exposes the group's backing tables so tests can tell shared
// groups from copies.
func (g Tab4x8) Tables() *tab4x8Tables { return g.t }

// Tab4x8Cached reports whether the intern cache holds an entry for the
// group on seeds.
func Tab4x8Cached(seeds []uint64) bool {
	var key tab4x8Key
	key.lanes = copy(key.seeds[:], seeds)
	tab4x8s.mu.Lock()
	defer tab4x8s.mu.Unlock()
	_, ok := tab4x8s.m[key]
	return ok
}
