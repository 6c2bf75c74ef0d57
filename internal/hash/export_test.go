package hash

// Tables exposes the group's backing tables, narrow or wide, so tests can
// tell shared groups from copies.
func (g Tab4x8) Tables() any {
	if g.wide != nil {
		return g.wide
	}
	return g.narrow
}

// Wide reports whether the group hashes on the wide layout.
func (g Tab4x8) Wide() bool { return g.wide != nil }

// Tab4x8Cached reports whether the intern cache holds an entry for the
// tables on seeds in the wide layout, or the narrow one.
func Tab4x8Cached(seeds []uint64, wide bool) bool {
	var key tab4x8Key
	key.lanes = copy(key.seeds[:], seeds)
	tab4x8s.mu.Lock()
	defer tab4x8s.mu.Unlock()
	if wide {
		_, ok := tab4x8s.wide[key]
		return ok
	}
	_, ok := tab4x8s.narrow[key]
	return ok
}

// Tab4x8Built empties the intern cache, runs f and returns how many
// narrow and how many wide tables the cache then holds: those f built and
// still keeps. Groups built before stay usable; the cache only forgets
// them.
func Tab4x8Built(f func()) (narrow, wide int) {
	tab4x8s.mu.Lock()
	clear(tab4x8s.narrow)
	clear(tab4x8s.wide)
	tab4x8s.mu.Unlock()
	f()
	tab4x8s.mu.Lock()
	defer tab4x8s.mu.Unlock()
	return len(tab4x8s.narrow), len(tab4x8s.wide)
}
