package router

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"time"

	"amstrack/internal/wire"
)

// session is one router→node amswire stream. It is deliberately NOT
// wire.Client: failover needs to retain every un-acked batch and to see
// exactly which sequence numbers a cumulative ACK covers, which the
// client's fire-and-forget surface hides. The session speaks the
// protocol directly over the exported frame codec — one TCP stream, so
// the node applies this router's batches in send order, which is what
// makes the teardown reconcile's prefix walk exact.
type session struct {
	r *Router
	n *node

	nc net.Conn

	// Guarded by Router.mu (the session shares the router's lock: every
	// mutation here already happens next to ledger mutations).
	seq     uint64
	pending []pendingBatch // send order; un-acked suffix of the stream
	dead    bool
	buf     []byte // frame encode scratch
}

type pendingBatch struct {
	seq uint64
	sb  *subBatch
}

// openSession dials the wire address the node advertises, as read by
// probeNode. A node that fails the probe — unreachable, degraded, or
// serving no wire listener — fails the dial before anything is sent.
func (r *Router) openSession(n *node) (*session, error) {
	addr, err := r.probeNode(n)
	if err != nil {
		return nil, err
	}
	nc, err := net.DialTimeout("tcp", rebaseHost(n.base, addr), r.opts.DialTimeout)
	if err != nil {
		return nil, err
	}
	s := &session{r: r, n: n, nc: nc}
	if err := s.handshake(); err != nil {
		nc.Close()
		return nil, err
	}
	r.mu.Lock()
	if n.sess != nil { // raced with another opener; keep the first
		r.mu.Unlock()
		s.nc.Close()
		return n.sess, nil
	}
	n.sess = s
	r.mu.Unlock()
	r.done.Add(1)
	go s.readLoop()
	return s, nil
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

func (s *session) handshake() error {
	hello := wire.Frame{Kind: wire.KindHello, Proto: wire.ProtoVersion,
		Window: uint32(s.r.opts.QueueDepth)}
	s.buf = wire.AppendFrame(s.buf[:0], &hello)
	s.nc.SetDeadline(time.Now().Add(s.r.opts.DialTimeout))
	if _, err := s.nc.Write(s.buf); err != nil {
		return fmt.Errorf("send HELLO: %w", err)
	}
	var rb []byte
	body, err := wire.ReadFrame(s.nc, &rb)
	if err != nil {
		return fmt.Errorf("read WELCOME: %w", err)
	}
	var f wire.Frame
	if err := wire.DecodeFrame(body, &f); err != nil {
		return err
	}
	if f.Kind != wire.KindWelcome {
		return fmt.Errorf("handshake: got %v, want WELCOME", f.Kind)
	}
	s.nc.SetDeadline(time.Time{})
	return nil
}

// send writes one batch frame, registering it as pending FIRST so a
// torn write still reconciles it. No FLUSH follows: the node's acker
// acks every staged batch after one drain round. A send error tears the
// session down, which reconciles every pending batch, including this
// one — so the caller never handles the batch again.
func (s *session) send(sb *subBatch) {
	r := s.r
	r.mu.Lock()
	if s.dead {
		r.mu.Unlock()
		r.failover(sb, errors.New("session closed"))
		return
	}
	s.seq++
	seq := s.seq
	s.pending = append(s.pending, pendingBatch{seq, sb})
	f := wire.Frame{Kind: wire.KindBatch, Seq: seq, Del: sb.del,
		Arity: sb.rel.arity, Relation: sb.rel.name, Vals: sb.vals}
	s.buf = wire.AppendFrame(s.buf[:0], &f)
	out := s.buf
	nc := s.nc
	r.mu.Unlock()

	nc.SetWriteDeadline(time.Now().Add(r.opts.AckTimeout))
	if _, err := nc.Write(out); err != nil {
		s.teardown(fmt.Errorf("write batch: %w", err))
	}
}

// shutdown closes the conn; the read loop observes it and tears down.
// Called under Router.mu.
func (s *session) shutdown() {
	s.dead = true
	s.nc.Close()
}

// readLoop consumes ACK/ERROR/GOODBYE frames. The read deadline is the
// ACK-timeout health signal: with batches pending, silence past
// AckTimeout means the node stopped acknowledging — treat it exactly
// like a dead connection and fail over.
func (s *session) readLoop() {
	defer s.r.done.Done()
	var rb []byte
	var f wire.Frame
	for {
		s.r.mu.Lock()
		hasPending := len(s.pending) > 0
		dead := s.dead
		s.r.mu.Unlock()
		if dead {
			s.teardown(errors.New("session shut down"))
			return
		}
		if hasPending {
			s.nc.SetReadDeadline(time.Now().Add(s.r.opts.AckTimeout))
		} else {
			s.nc.SetReadDeadline(time.Now().Add(s.r.opts.ProbeInterval + time.Second))
		}
		body, err := wire.ReadFrame(s.nc, &rb)
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() && !hasPending {
				continue // idle stream; keep listening
			}
			if hasPending {
				err = fmt.Errorf("no ACK progress within %v: %w", s.r.opts.AckTimeout, err)
			}
			s.teardown(err)
			return
		}
		if err := wire.DecodeFrame(body, &f); err != nil {
			s.teardown(err)
			return
		}
		switch f.Kind {
		case wire.KindAck:
			s.r.mu.Lock()
			var acked []pendingBatch
			for len(s.pending) > 0 && s.pending[0].seq <= f.Seq {
				acked = append(acked, s.pending[0])
				s.pending = s.pending[1:]
			}
			s.r.mu.Unlock()
			for _, pb := range acked {
				s.r.noteAcked(s.n, pb.sb)
			}
		case wire.KindError:
			s.teardown(fmt.Errorf("node error (relation %q): %s", f.Relation, f.Text))
			return
		case wire.KindGoodbye:
			s.teardown(fmt.Errorf("node shutting down: %s", f.Text))
			return
		default:
			s.teardown(fmt.Errorf("unexpected %v frame from node", f.Kind))
			return
		}
	}
}

// teardown closes the session and disposes of its un-acked batches —
// the router's most delicate moment, because "un-acked" is not "not
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
func (s *session) teardown(cause error) {
	r := s.r
	r.mu.Lock()
	if s.dead && len(s.pending) == 0 {
		if s.n.sess == s {
			s.n.sess = nil
		}
		r.mu.Unlock()
		return
	}
	s.dead = true
	s.nc.Close()
	if s.n.sess == s {
		s.n.sess = nil
	}
	pending := s.pending
	s.pending = nil
	r.markFailureLocked(s.n, cause)
	if len(pending) > 0 {
		// The node may hold any prefix of pending, so (a) it owes the
		// rejoin audit before ANY path restores it to healthy — even a
		// probe that succeeds on the very next tick — and (b) it is held
		// quiescent until reconcile's stat reads finish, so no probe
		// rejoin or fresh session can stage new un-acked batches that
		// would inflate the computed surplus and wrongly promote old
		// pending work to acked.
		s.n.needsAudit = true
		s.n.reconciling = true
	}
	r.mu.Unlock()

	if len(pending) == 0 {
		return
	}
	r.reconcile(s.n, pending, cause)
	r.mu.Lock()
	s.n.reconciling = false
	r.cond.Broadcast()
	r.mu.Unlock()
}

// reconcile implements the prefix walk described on teardown. pending
// is in send order.
func (r *Router) reconcile(n *node, pending []pendingBatch, cause error) {
	// A stat is only trustworthy from a node whose durability is intact:
	// after a disk-level crash the engine keeps applying staged ops to
	// its in-memory synopses while their oplog appends fail, so Seq
	// counts ops that will NOT survive the restart. Promoting those to
	// acked would lose them silently. /healthz surfaces the sticky oplog
	// error as "degraded" — anything but a clean "ok" downgrades the
	// reconcile to the optimistic path (fail over everything; the rejoin
	// audit re-checks the arithmetic against the RECOVERED image before
	// the node may serve again).
	_, probeErr := r.probeNode(n)
	trustStat := probeErr == nil

	// Per-relation surplus: recovered Seq minus the acked ledger.
	type relRec struct {
		surplus   int64
		reachable bool
	}
	recs := map[*relState]*relRec{}
	for _, pb := range pending {
		rs := pb.sb.rel
		if _, ok := recs[rs]; ok {
			continue
		}
		rec := &relRec{}
		if trustStat {
			st, err := r.once.FetchStat(n.base, rs.name)
			if err == nil {
				r.mu.Lock()
				if a := rs.accts[n.base]; a != nil {
					rec.surplus = int64(st.Seq) - int64(a.base+a.acked)
					rec.reachable = true
				}
				r.mu.Unlock()
			}
		}
		recs[rs] = rec
	}

	for _, pb := range pending {
		sb := pb.sb
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
			r.noteAcked(n, sb)
		case rec.surplus == 0:
			r.failover(sb, cause)
		case rec.surplus < 0:
			// The node answered with FEWER ops than the acked ledger:
			// acked data did not survive. This batch was certainly not
			// applied, but the durability promise already broke — report
			// the loss as what it is, never as a partial batch.
			r.mu.Lock()
			r.quarantineLocked(n, fmt.Sprintf(
				"relation %q: node recovered %d fewer ops than the acked ledger; acked data was lost",
				sb.rel.name, -rec.surplus))
			r.failLocked(sb, fmt.Errorf("node %s lost acked data (relation %q is %d ops short of the ledger): %w",
				n.base, sb.rel.name, -rec.surplus, cause))
			rec.surplus = 0
			r.mu.Unlock()
		default:
			// 0 < surplus < rows: the node died mid-batch. Neither
			// resending (prefix would double) nor dropping (suffix
			// would be lost) is exact — refuse to guess: quarantine the
			// node and surface a sticky error upstream.
			r.mu.Lock()
			r.quarantineLocked(n, fmt.Sprintf(
				"relation %q: node absorbed %d of a %d-row batch before failing; partial batches cannot be reconciled",
				sb.rel.name, rec.surplus, rows))
			r.failLocked(sb, fmt.Errorf("node %s absorbed a partial batch (%d of %d rows): %w",
				n.base, rec.surplus, rows, cause))
			rec.surplus = 0
			r.mu.Unlock()
		}
	}
}
