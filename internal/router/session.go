package router

import (
	"errors"
	"fmt"
	"net"
	"strings"

	"amstrack/internal/wire"
)

// openSession dials the wire address the node advertises, as read by
// probeNode. A node that fails the probe — unreachable, degraded, or
// serving no wire listener — fails the dial before anything is sent.
//
// A session is a wire.Stream whose tags are the sub-batches it carries:
// failover needs every un-acked batch back, and the stream hands each
// one back exactly once. Its window is QueueDepth, the value HELLO
// announces, and its ACK deadline is AckTimeout, armed at send. One TCP
// stream, so the node applies this router's batches in send order,
// which is what makes the teardown reconcile's prefix walk exact.
func (r *Router) openSession(n *node) (*wire.Stream[*subBatch], error) {
	addr, err := r.probeNode(n)
	if err != nil {
		return nil, err
	}
	st, err := wire.DialStream[*subBatch](rebaseHost(n.base, addr), r.opts.QueueDepth, r.opts.AckTimeout)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	if r.closed { // Close has already shut down the sessions it saw
		r.mu.Unlock()
		st.Close()
		return nil, errors.New("router closed")
	}
	n.sess = st
	r.done.Add(1)
	r.mu.Unlock()
	go func() {
		defer r.done.Done()
		pending, cause := st.Run(func(acked []*subBatch) { r.noteAcked(n, acked) })
		r.teardown(n, st, pending, cause)
	}()
	return st, nil
}

// rebaseHost joins the wire listener's port with the node's HTTP host:
// a node that binds its wire listener to 0.0.0.0 (or [::]) advertises
// an address that is not dialable from elsewhere, but the HTTP base URL
// the operator configured IS — reuse its host.
func rebaseHost(base, wireAddr string) string {
	_, port, err := net.SplitHostPort(wireAddr)
	if err != nil {
		return wireAddr
	}
	host := strings.TrimPrefix(base, "http://")
	host = strings.TrimPrefix(host, "https://")
	if i := strings.IndexByte(host, '/'); i >= 0 {
		host = host[:i]
	}
	if h, _, err := net.SplitHostPort(host); err == nil {
		host = h
	}
	if wh, _, err := net.SplitHostPort(wireAddr); err == nil {
		if ip := net.ParseIP(wh); ip != nil && !ip.IsUnspecified() {
			return wireAddr // concrete address; trust it
		}
	}
	return net.JoinHostPort(host, port)
}

// teardown disposes of an ended session's un-acked batches — the
// router's most delicate moment, because "un-acked" is not "not
// applied": the node may have staged a prefix of the pending stream
// before dying on the rest. Blindly failing everything over would
// double-apply that prefix if the node still holds it. So reconcile:
// ask the node (over HTTP — the wire conn died, the process may not
// have) for each touched relation's Seq and compare against the acked
// ledger. The difference is EXACTLY how many pending ops the node
// absorbed, and because one session is one ordered stream, those ops
// are a prefix of the pending list — promote that prefix to acked,
// fail over the rest. If the node is unreachable the router fails
// everything over optimistically; the rejoin audit re-runs the same
// arithmetic before the node may serve again, so a recovered surplus is
// caught there instead (quarantine), never silently merged.
func (r *Router) teardown(n *node, st *wire.Stream[*subBatch], pending []*subBatch, cause error) {
	r.mu.Lock()
	if n.sess == st {
		n.sess = nil
	}
	if len(pending) == 0 && errors.Is(cause, wire.ErrClosed) {
		// The router closed an idle session (shutdown, quarantine or
		// drain): nothing to dispose of, and no failure to record.
		r.mu.Unlock()
		return
	}
	r.markFailureLocked(n, cause)
	if len(pending) > 0 {
		// The node may hold any prefix of pending, so (a) it owes the
		// rejoin audit before ANY path restores it to healthy — even a
		// probe that succeeds on the very next tick — and (b) it is held
		// quiescent until reconcile's stat reads finish, so no probe
		// rejoin or fresh session can stage new un-acked batches that
		// would inflate the computed surplus and wrongly promote old
		// pending work to acked.
		n.needsAudit = true
		n.reconciling = true
	}
	r.mu.Unlock()

	if len(pending) == 0 {
		return
	}
	r.reconcile(n, pending, cause)
	r.mu.Lock()
	n.reconciling = false
	r.cond.Broadcast()
	r.mu.Unlock()
}

// reconcile implements the prefix walk described on teardown. pending
// is in send order.
func (r *Router) reconcile(n *node, pending []*subBatch, cause error) {
	// Per-relation surplus: recovered Seq minus the acked ledger.
	type relRec struct {
		surplus   int64
		reachable bool
	}
	recs := map[*relState]*relRec{}
	for _, sb := range pending {
		rs := sb.rel
		if _, ok := recs[rs]; ok {
			continue
		}
		rec := &relRec{}
		st, err := r.once.FetchStat(n.base, rs.name)
		if err == nil {
			r.mu.Lock()
			if a := rs.accts[n.base]; a != nil {
				rec.surplus = int64(st.Seq) - int64(a.base+a.acked)
				rec.reachable = true
			}
			r.mu.Unlock()
		}
		recs[rs] = rec
	}
	// A stat is only trustworthy from a node whose durability is intact:
	// after a disk-level crash the engine keeps applying staged ops to
	// its in-memory synopses while their oplog appends fail, so Seq
	// counts ops that will NOT survive the restart. Promoting those to
	// acked would lose them silently. /healthz surfaces the sticky oplog
	// error as "degraded" — anything but a clean "ok" downgrades the
	// reconcile to the optimistic path (fail over everything; the rejoin
	// audit re-checks the arithmetic against the RECOVERED image before
	// the node may serve again). The probe comes AFTER the stats: a
	// stat's own barrier is what pushes the node's buffered records to
	// the OS, so a write failing there turns the node degraded only once
	// that stat has answered.
	if _, err := r.probeNode(n); err != nil {
		for _, rec := range recs {
			rec.reachable = false
		}
	}

	for _, sb := range pending {
		rec := recs[sb.rel]
		rows := int64(sb.rowCount())
		switch {
		case !rec.reachable:
			// Node unreachable: fail over now; the rejoin audit holds
			// the node at the door if its oplog recovered these ops.
			r.failover(sb, cause)
		case rec.surplus >= rows:
			// The node absorbed this batch before dying — it IS applied
			// (and, per the amswire ack contract's drain-before-ack
			// ordering, observable via the stat barrier we just read).
			// Promote to acked; re-sending it would double-count.
			rec.surplus -= rows
			r.noteAcked(n, []*subBatch{sb})
		case rec.surplus == 0:
			r.failover(sb, cause)
		case rec.surplus < 0:
			// The node answered with FEWER ops than the acked ledger:
			// acked data did not survive. This batch was certainly not
			// applied, but the durability promise already broke — report
			// the loss as what it is, never as a surplus.
			r.mu.Lock()
			r.quarantineLocked(n, fmt.Sprintf(
				"relation %q: node recovered %d fewer ops than the acked ledger; acked data was lost",
				sb.rel.name, -rec.surplus))
			r.failLocked(sb, fmt.Errorf("node %s lost acked data (relation %q is %d ops short of the ledger): %w",
				n.base, sb.rel.name, -rec.surplus, cause))
			rec.surplus = 0
			r.mu.Unlock()
		default:
			// 0 < surplus < rows: the node's Seq is not the acked ledger
			// plus a whole-batch prefix of the pending stream. A node
			// logs each sub-batch as one record, so its own crash keeps
			// all of a batch or none; such a surplus comes from outside
			// input, rows another writer sent the node. Neither
			// resending (the prefix would double) nor dropping (the rest
			// would be lost) is exact — refuse to guess: quarantine the
			// node and surface a sticky error upstream.
			r.mu.Lock()
			r.quarantineLocked(n, fmt.Sprintf(
				"relation %q: node Seq is %d past the acked ledger, not a whole-batch prefix of the pending stream (next batch %d rows)",
				sb.rel.name, rec.surplus, rows))
			r.failLocked(sb, fmt.Errorf("node %s Seq is not the acked ledger plus a whole-batch prefix of the pending stream (surplus %d, next batch %d rows): %w",
				n.base, rec.surplus, rows, cause))
			rec.surplus = 0
			r.mu.Unlock()
		}
	}
}
