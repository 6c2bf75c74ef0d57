package router

import (
	"fmt"
	"sort"
)

// DrainReport records what a drain moved, relation by relation.
type DrainReport struct {
	Node  string      `json:"node"`
	Moved []DrainMove `json:"moved"`
}

type DrainMove struct {
	Relation string `json:"relation"`
	To       string `json:"to"`
	Rows     int64  `json:"rows"`
	Ops      uint64 `json:"ops"`
}

// DrainNode removes a member from service and rebalances its data into
// the ring: stop routing to it, barrier the in-flight stream, export
// each relation's bundle, merge it into the node's ring successor, and
// drop the source copy. Linearity makes the merge exact — the
// successor's synopsis after the merge equals one node having absorbed
// both partitions — and the acked ledger moves with the data, so a
// later audit of the successor still balances.
//
// Crash ordering (DESIGN.md §12): export → merge → delete, strictly.
// The merge is issued exactly once (coord.Fetcher.MergeBundleBytes
// never retries): a crash BEFORE the merge loses nothing (source still
// holds the rows; re-run the drain); a crash BETWEEN merge and delete
// leaves the rows double-counted until the operator deletes the source
// — which is why the source delete is attempted immediately and a
// failure of it is a loud error, not a shrug. Never re-run a drain
// whose merge may have landed without verifying the successor's stamp.
func (r *Router) DrainNode(member string) (*DrainReport, error) {
	r.mu.Lock()
	n := r.nodes[member]
	if n == nil {
		r.mu.Unlock()
		return nil, fmt.Errorf("router: unknown node %q", member)
	}
	if n.state == StateQuarantined {
		r.mu.Unlock()
		return nil, fmt.Errorf("router: node %q is quarantined; resolve the audit (forget) before draining", member)
	}
	if r.liveCountLocked() < 2 && r.aliveLocked(member) {
		r.mu.Unlock()
		return nil, fmt.Errorf("router: %q is the last live node; nothing to drain into", member)
	}
	n.draining = true // stops new routing immediately
	rels := make([]*relState, 0, len(r.rels))
	for _, rs := range r.rels {
		if _, ok := rs.accts[member]; ok {
			rels = append(rels, rs)
		}
	}
	r.mu.Unlock()
	sort.Slice(rels, func(i, j int) bool { return rels[i].name < rels[j].name })

	// Barrier: every batch routed before the draining flag flipped must
	// be acked (or failed) before the export, or the export would miss
	// in-flight rows and the delete would destroy them.
	for _, rs := range rels {
		if err := r.Flush(rs.name); err != nil {
			return nil, fmt.Errorf("drain %s: flush %q: %w", member, rs.name, err)
		}
	}

	rep := &DrainReport{Node: member}
	for _, rs := range rels {
		r.mu.Lock()
		succ, ok := r.ring.SuccessorOf(member, r.aliveLocked)
		r.mu.Unlock()
		if !ok {
			return rep, fmt.Errorf("drain %s: no live successor for %q", member, rs.name)
		}
		// Export, with the source's stamp: Seq is the op count the
		// ledger hands to the successor.
		st, err := r.opts.Fetcher.FetchStat(member, rs.name)
		if err != nil {
			return rep, fmt.Errorf("drain %s: stat %q: %w", member, rs.name, err)
		}
		bundle, err := r.opts.Fetcher.FetchBundleBytes(member, rs.name)
		if err != nil {
			return rep, fmt.Errorf("drain %s: export %q: %w", member, rs.name, err)
		}
		if err := r.opts.Fetcher.MergeBundleBytes(succ, rs.name, bundle); err != nil {
			return rep, fmt.Errorf("drain %s: merge %q into %s: %w", member, rs.name, succ, err)
		}
		// The merge landed: move the ledger BEFORE the delete, so even a
		// crash mid-drain leaves the successor's audit arithmetic right.
		r.mu.Lock()
		if a, ok := rs.accts[succ]; ok {
			a.base += st.Seq
		}
		delete(rs.accts, member)
		r.mu.Unlock()
		if err := r.opts.Fetcher.DeleteRelation(member, rs.name); err != nil {
			return rep, fmt.Errorf("drain %s: merged %q into %s but FAILED to delete the source — "+
				"the rows are now double-counted until the source copy is deleted by hand: %w",
				member, rs.name, succ, err)
		}
		rep.Moved = append(rep.Moved, DrainMove{Relation: rs.name, To: succ, Rows: st.Rows, Ops: st.Seq})
	}

	// The node is out: tear down its session and pin it down so the
	// prober does not resurrect it into the ring.
	r.mu.Lock()
	if n.sess != nil {
		n.sess.Close()
		n.sess = nil
	}
	n.state = StateDown
	n.lastErr = "drained"
	r.mu.Unlock()
	return rep, nil
}
