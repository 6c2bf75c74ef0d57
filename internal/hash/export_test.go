package hash

// Table exposes the member's backing table so tests can tell shared
// tables from copies.
func (h Tab4) Table() *[tab4Size]uint64 { return h.t }

// Tab4Cached reports whether the intern cache holds an entry for seed.
func Tab4Cached(seed uint64) bool {
	tab4s.mu.Lock()
	defer tab4s.mu.Unlock()
	_, ok := tab4s.m[seed]
	return ok
}
